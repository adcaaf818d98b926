package core

import (
	"math"
	"testing"
	"testing/quick"

	"trajpattern/internal/grid"
	"trajpattern/internal/stat"
)

func TestSimilar(t *testing.T) {
	g := grid.NewSquare(10)
	a := Pattern{g.Index(grid.Cell{X: 3, Y: 3}), g.Index(grid.Cell{X: 4, Y: 4})}
	b := Pattern{g.Index(grid.Cell{X: 3, Y: 4}), g.Index(grid.Cell{X: 4, Y: 5})}
	// Adjacent cells: distance 0.1 at both snapshots.
	if !Similar(a, b, g, 0.15) {
		t.Error("close patterns not similar")
	}
	if Similar(a, b, g, 0.05) {
		t.Error("patterns similar under tight gamma")
	}
	if Similar(a, Pattern{a[0]}, g, 10) {
		t.Error("different lengths similar")
	}
}

// TestPaperWorkedExample reproduces the Section 4.2 example: six 2-patterns
// whose snapshot groups are (p1,p3,p4,p5),(p2,p6) at snapshot one and
// (p'1,p'3,p'6),(p'2,p'4),(p'5) at snapshot two; the final pattern groups
// must be (P2),(P4),(P5),(P6) and (P1,P3).
func TestPaperWorkedExample(t *testing.T) {
	g := grid.NewSquare(20) // cell size 0.05
	gamma := 0.12
	cell := func(x, y int) int { return g.Index(grid.Cell{X: x, Y: y}) }

	// Snapshot 1 blobs: {p1,p3,p4,p5} near (0.2,0.2); {p2,p6} near (0.7,0.7).
	s1 := map[int]int{
		1: cell(3, 3), 3: cell(4, 3), 4: cell(3, 4), 5: cell(4, 4),
		2: cell(13, 13), 6: cell(14, 13),
	}
	// Snapshot 2 blobs: {p'1,p'3,p'6} near (0.2,0.8); {p'2,p'4} near
	// (0.8,0.2); {p'5} isolated at (0.5,0.5).
	s2 := map[int]int{
		1: cell(3, 15), 3: cell(4, 15), 6: cell(3, 16),
		2: cell(15, 3), 4: cell(16, 3),
		5: cell(10, 10),
	}
	patterns := make([]Pattern, 0, 6)
	byID := make(map[string]int)
	for id := 1; id <= 6; id++ {
		p := Pattern{s1[id], s2[id]}
		byID[p.Key()] = id
		patterns = append(patterns, p)
	}

	groups, err := DiscoverGroups(patterns, g, gamma, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 5 {
		t.Fatalf("got %d groups, want 5: %+v", len(groups), groups)
	}
	// Collect groups as sets of pattern IDs.
	var got [][]int
	for _, grp := range groups {
		var ids []int
		for _, m := range grp.Members {
			ids = append(ids, byID[m.Key()])
		}
		got = append(got, ids)
	}
	want := map[int][]int{1: {1, 3}, 2: {2}, 4: {4}, 5: {5}, 6: {6}}
	matched := 0
	for _, ids := range got {
		if w, ok := want[ids[0]]; ok && equalIntSets(ids, w) {
			matched++
		}
	}
	if matched != 5 {
		t.Errorf("groups mismatch: got %v, want {1,3},{2},{4},{5},{6}", got)
	}
}

func equalIntSets(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[int]bool)
	for _, v := range a {
		set[v] = true
	}
	for _, v := range b {
		if !set[v] {
			return false
		}
	}
	return true
}

func TestDiscoverGroupsValidation(t *testing.T) {
	g := grid.NewSquare(4)
	if _, err := DiscoverGroups([]Pattern{{}}, g, 0.1, nil); err == nil {
		t.Error("empty pattern accepted")
	}
	if _, err := DiscoverGroups([]Pattern{{0}}, g, -1, nil); err == nil {
		t.Error("negative gamma accepted")
	}
	groups, err := DiscoverGroups(nil, g, 0.1, nil)
	if err != nil || len(groups) != 0 {
		t.Errorf("empty input: %v, %v", groups, err)
	}
}

func TestGroupsSeparateLengths(t *testing.T) {
	g := grid.NewSquare(4)
	patterns := []Pattern{{0}, {0, 1}, {0, 1, 2}}
	groups, err := DiscoverGroups(patterns, g, 100, nil) // everything within gamma
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("lengths merged: %+v", groups)
	}
	for _, grp := range groups {
		if grp.Len() != 1 {
			t.Errorf("cross-length group: %+v", grp)
		}
	}
}

func TestGroupsAllSimilarCollapse(t *testing.T) {
	g := grid.NewSquare(10)
	// Three adjacent 2-patterns, all pairwise within gamma.
	patterns := []Pattern{
		{g.Index(grid.Cell{X: 3, Y: 3}), g.Index(grid.Cell{X: 5, Y: 5})},
		{g.Index(grid.Cell{X: 3, Y: 4}), g.Index(grid.Cell{X: 5, Y: 6})},
		{g.Index(grid.Cell{X: 4, Y: 3}), g.Index(grid.Cell{X: 6, Y: 5})},
	}
	groups, err := DiscoverGroups(patterns, g, 0.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 || groups[0].Len() != 3 {
		t.Errorf("expected one group of 3, got %+v", groups)
	}
	if groups[0].PatternLen() != 2 {
		t.Errorf("PatternLen = %d", groups[0].PatternLen())
	}
}

func TestGroupsAllDistantSingletons(t *testing.T) {
	g := grid.NewSquare(10)
	patterns := []Pattern{
		{g.Index(grid.Cell{X: 0, Y: 0})},
		{g.Index(grid.Cell{X: 9, Y: 9})},
		{g.Index(grid.Cell{X: 0, Y: 9})},
	}
	groups, err := DiscoverGroups(patterns, g, 0.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Errorf("expected 3 singletons, got %+v", groups)
	}
}

func TestDefaultGamma(t *testing.T) {
	if math.Abs(DefaultGamma(0.1)-0.3) > 1e-15 {
		t.Errorf("DefaultGamma = %v", DefaultGamma(0.1))
	}
}

// Property: DiscoverGroups partitions the input (every pattern in exactly
// one group) and every group satisfies pairwise similarity at every
// snapshot.
func TestQuickGroupsInvariants(t *testing.T) {
	g := grid.NewSquare(6)
	f := func(seed uint64, nRaw, lenRaw, gammaRaw uint8) bool {
		rng := stat.NewRNG(seed)
		n := 1 + int(nRaw)%12
		plen := 1 + int(lenRaw)%4
		gamma := float64(gammaRaw%10) / 10 * 0.5
		seen := make(map[string]bool)
		var patterns []Pattern
		for i := 0; i < n; i++ {
			p := make(Pattern, plen)
			for j := range p {
				p[j] = rng.Intn(36)
			}
			if seen[p.Key()] {
				continue // duplicate patterns are not meaningful input
			}
			seen[p.Key()] = true
			patterns = append(patterns, p)
		}
		groups, err := DiscoverGroups(patterns, g, gamma, nil)
		if err != nil {
			return false
		}
		// Partition check.
		count := 0
		covered := make(map[string]bool)
		for _, grp := range groups {
			for _, m := range grp.Members {
				if covered[m.Key()] {
					return false
				}
				covered[m.Key()] = true
				count++
			}
			// Pairwise similarity check.
			for i := 0; i < len(grp.Members); i++ {
				for j := i + 1; j < len(grp.Members); j++ {
					if !Similar(grp.Members[i], grp.Members[j], g, gamma) {
						return false
					}
				}
			}
		}
		return count == len(patterns)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

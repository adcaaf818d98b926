package core

import (
	"context"
	"math"
	"testing"

	"trajpattern/internal/grid"
	"trajpattern/internal/stat"
	"trajpattern/internal/traj"
)

func TestWildPatternBasics(t *testing.T) {
	p := WildPattern{3, Wildcard, Wildcard, 7}
	if p.SpecifiedLen() != 2 {
		t.Errorf("SpecifiedLen = %d", p.SpecifiedLen())
	}
	if p.String() != "3,*,*,7" {
		t.Errorf("String = %q", p.String())
	}
}

func TestNMWildValidation(t *testing.T) {
	s := testScorer(t, randomDataset(1, 2, 8, 0.1), 4)
	if _, err := s.NMWild(WildPattern{Wildcard, Wildcard}); err == nil {
		t.Error("all-wildcard pattern accepted")
	}
	if _, err := s.NMWild(WildPattern{Wildcard, 3}); err == nil {
		t.Error("leading wildcard accepted")
	}
	if _, err := s.NMWild(WildPattern{3, Wildcard}); err == nil {
		t.Error("trailing wildcard accepted")
	}
}

func TestNMWildNoWildcardsMatchesNM(t *testing.T) {
	s := testScorer(t, randomDataset(2, 4, 10, 0.1), 4)
	p := Pattern{3, 7, 11}
	wp := WildPattern{3, 7, 11}
	got, err := s.NMWild(wp)
	if err != nil {
		t.Fatal(err)
	}
	if want := s.NM(p); math.Abs(got-want) > 1e-12 {
		t.Errorf("NMWild = %v, NM = %v", got, want)
	}
}

// nmWildScan is the reference NMWild: a window-by-window scan that adds
// the specified positions' log-probs in pattern order, skipping wildcards,
// normalizes each trajectory's best window by the specified length, and
// adds DefaultLogFloor for a trajectory shorter than the pattern.
func nmWildScan(s *Scorer, p WildPattern) float64 {
	vecs := make([][]float64, len(p))
	for j, cell := range p {
		if cell != Wildcard {
			vecs[j] = s.CellVector(cell)
		}
	}
	var total float64
	m := len(p)
	for ti := range s.data {
		start, end := s.offsets[ti], s.offsets[ti+1]
		if end-start < m {
			total += DefaultLogFloor
			continue
		}
		best := math.Inf(-1)
		for w := start; w+m <= end; w++ {
			var sum float64
			for j := 0; j < m; j++ {
				if vecs[j] != nil {
					sum += vecs[j][w+j]
				}
			}
			if sum > best {
				best = sum
			}
		}
		total += best / float64(p.SpecifiedLen())
	}
	return total
}

// TestNMWildMatchesWindowScan checks NMWild, which scores through the
// shared-prefix walk, against the window-by-window reference bit for bit
// on random wildcard patterns, over trajectories both longer and shorter
// than the pattern.
func TestNMWildMatchesWindowScan(t *testing.T) {
	rng := stat.NewRNG(23)
	g := grid.NewSquare(4)
	for inst := 0; inst < 20; inst++ {
		data := make(traj.Dataset, 2+rng.Intn(5))
		for i := range data {
			data[i] = make(traj.Trajectory, 1+rng.Intn(12))
			for j := range data[i] {
				data[i][j] = traj.P(rng.Float64(), rng.Float64(), 0.02+0.2*rng.Float64())
			}
		}
		s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth()})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 30; k++ {
			p := make(WildPattern, 1+rng.Intn(8))
			for j := range p {
				p[j] = rng.Intn(g.NumCells())
				if j > 0 && j < len(p)-1 && rng.Bool(0.4) {
					p[j] = Wildcard
				}
			}
			got, err := s.NMWild(p)
			if err != nil {
				t.Fatal(err)
			}
			if want := nmWildScan(s, p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("instance %d, %s: NMWild %v, window scan %v", inst, p, got, want)
			}
		}
	}
}

func TestNMWildSkipsNoisyMiddle(t *testing.T) {
	// Four trajectories walk A, noiseᵢ, B where the middle cell differs
	// per trajectory (the four corners). Any exact 3-pattern A,?,B can
	// match at most one trajectory's middle; A,*,B matches all four.
	g := grid.NewSquare(4)
	a, b := 5, 10
	ca, cb := g.CenterAt(a), g.CenterAt(b)
	var data traj.Dataset
	for _, noise := range []int{0, 3, 12, 15} {
		data = append(data, traj.Trajectory{
			{Mean: ca, Sigma: 0.03},
			{Mean: g.CenterAt(noise), Sigma: 0.03},
			{Mean: cb, Sigma: 0.03},
		})
	}
	s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		t.Fatal(err)
	}
	wild, err := s.NMWild(WildPattern{a, Wildcard, b})
	if err != nil {
		t.Fatal(err)
	}
	exactBest := math.Inf(-1)
	for mid := 0; mid < 16; mid++ {
		if v := s.NM(Pattern{a, mid, b}); v > exactBest {
			exactBest = v
		}
	}
	if wild <= exactBest {
		t.Errorf("wildcard NM %v should beat best exact middle %v", wild, exactBest)
	}
}

func TestMineWithWildcards(t *testing.T) {
	// Repeating A, varying-noise, B walks: the wildcard refinement should
	// produce patterns at least as good as the plain mined ones.
	g := grid.NewSquare(4)
	a, b := 5, 10
	var data traj.Dataset
	for _, noise := range []int{0, 3, 12, 15} {
		var tr traj.Trajectory
		for r := 0; r < 3; r++ {
			tr = append(tr,
				traj.Point{Mean: g.CenterAt(a), Sigma: 0.03},
				traj.Point{Mean: g.CenterAt(noise), Sigma: 0.03},
				traj.Point{Mean: g.CenterAt(b), Sigma: 0.03},
			)
		}
		data = append(data, tr)
	}
	s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		t.Fatal(err)
	}
	wild, plain, err := MineWithWildcards(context.Background(), s, MinerConfig{K: 5, MinLen: 2, MaxLen: 4, MaxLowQ: 20}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(wild) != len(plain.Patterns) {
		t.Fatalf("size mismatch: %d vs %d", len(wild), len(plain.Patterns))
	}
	// Sorted descending and each refined NM >= the best plain NM it came
	// from is not guaranteed after re-ranking, but the best refined NM
	// must be at least the best plain NM.
	for i := 1; i < len(wild); i++ {
		if wild[i].NM > wild[i-1].NM {
			t.Error("wild results not sorted")
		}
	}
	if wild[0].NM < plain.Patterns[0].NM-1e-12 {
		t.Errorf("refinement degraded the best pattern: %v < %v", wild[0].NM, plain.Patterns[0].NM)
	}
	if _, _, err := MineWithWildcards(context.Background(), s, MinerConfig{K: 2, MaxLen: 3}, -1); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestExpandWithWildcards(t *testing.T) {
	// Data walks A, noise, B repeatedly: expansion should insert a star.
	g := grid.NewSquare(4)
	a, b := 5, 10
	var tr traj.Trajectory
	for r := 0; r < 4; r++ {
		tr = append(tr,
			traj.Point{Mean: g.CenterAt(a), Sigma: 0.03},
			traj.Point{Mean: g.CenterAt(0), Sigma: 0.03},
			traj.Point{Mean: g.CenterAt(b), Sigma: 0.03},
		)
	}
	s, err := NewScorer(traj.Dataset{tr}, Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		t.Fatal(err)
	}
	wp, nm, err := s.ExpandWithWildcards(Pattern{a, b}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if wp.String() != "5,*,10" {
		t.Errorf("expanded = %q, want 5,*,10", wp.String())
	}
	base, err := s.NMWild(WildPattern{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if nm <= base {
		t.Errorf("expansion did not improve NM: %v vs %v", nm, base)
	}
	// Budget 0 returns the pattern unchanged.
	wp0, _, err := s.ExpandWithWildcards(Pattern{a, b}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if wp0.String() != "5,10" {
		t.Errorf("zero budget changed pattern: %q", wp0.String())
	}
	if _, _, err := s.ExpandWithWildcards(nil, 1); err == nil {
		t.Error("empty pattern accepted")
	}
	if _, _, err := s.ExpandWithWildcards(Pattern{a}, -1); err == nil {
		t.Error("negative budget accepted")
	}
}

package core

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"trajpattern/internal/geom"
	"trajpattern/internal/grid"
	"trajpattern/internal/stat"
	"trajpattern/internal/traj"
)

// FuzzLoadPatterns checks that the pattern-file decoder never panics on
// arbitrary input and that everything it accepts is structurally safe to
// serve (non-empty patterns, non-negative cells, finite NM) and re-encodes
// stably. Seeds come from testdata so the corpus starts at realistic
// on-disk shapes.
func FuzzLoadPatterns(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz_patterns_*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no testdata pattern seeds")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add("")
	f.Add("{}")
	f.Add(`{"version":1,"patterns":[]}`)
	f.Add(`{"version":1,"patterns":[{"cells":[-1],"nm":0}]}`)
	f.Add(`{"version":1,"patterns":[{"cells":[],"nm":0}]}`)
	f.Add(`{"version":2,"patterns":[{"cells":[1],"nm":0}]}`)
	f.Add(`{"version":1,"patterns":[{"cells":[1],"nm":1e400}]}`)
	f.Fuzz(func(t *testing.T, in string) {
		pats, err := ReadPatterns(strings.NewReader(in), nil)
		if err != nil {
			return
		}
		for i, sp := range pats {
			if len(sp.Pattern) == 0 {
				t.Fatalf("accepted empty pattern at %d", i)
			}
			for j, c := range sp.Pattern {
				if c < 0 {
					t.Fatalf("accepted negative cell at [%d][%d]: %d", i, j, c)
				}
			}
			if math.IsNaN(sp.NM) || math.IsInf(sp.NM, 0) {
				t.Fatalf("accepted non-finite NM at %d: %v", i, sp.NM)
			}
		}
		var out bytes.Buffer
		if err := WritePatterns(&out, pats); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		pats2, err := ReadPatterns(&out, nil)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if len(pats2) != len(pats) {
			t.Fatalf("round trip changed pattern count: %d vs %d", len(pats2), len(pats))
		}
		for i := range pats {
			if !pats[i].Pattern.Equal(pats2[i].Pattern) || pats[i].NM != pats2[i].NM {
				t.Fatalf("round trip changed pattern %d", i)
			}
		}
	})
}

// FuzzParsePattern checks that ParsePattern never panics and that every
// successfully parsed key round-trips exactly.
func FuzzParsePattern(f *testing.F) {
	f.Add("1,2,3")
	f.Add("")
	f.Add("0")
	f.Add("-1,5")
	f.Add("9999999999999999999999")
	f.Add("1,,2")
	f.Add("a,b")
	f.Fuzz(func(t *testing.T, key string) {
		p, err := ParsePattern(key)
		if err != nil {
			return
		}
		if len(p) == 0 {
			t.Fatalf("ParsePattern(%q) returned empty pattern without error", key)
		}
		back := p.Key()
		// Canonical keys round-trip; non-canonical inputs (leading zeros,
		// plus signs) may normalize, but re-parsing the canonical form
		// must be stable.
		p2, err := ParsePattern(back)
		if err != nil {
			t.Fatalf("canonical key %q failed to parse: %v", back, err)
		}
		if !p.Equal(p2) {
			t.Fatalf("round trip changed pattern: %v vs %v", p, p2)
		}
	})
}

// FuzzScoreAllMatchesNM checks that ScoreAll returns, for every pattern of
// an arbitrary batch, the bits per-pattern NM returns, and that NM and
// Match return the bits of the naive window-by-window scan
// (naiveLogMatches): NM sums its log-matches over len(p) in trajectory
// order, Match the exp of those of trajectories at least as long as p.
// The input encodes the batch: bytes are cells (mod 9), 0xff ends a
// pattern, and at most walkDepth+8 positions per pattern are kept. Seeds
// cover shared prefixes, duplicates, patterns longer than some
// trajectories (walkData holds every length from 0 to 9), neighbours
// sharing more than walkDepth positions and 1 to 4 workers.
func FuzzScoreAllMatchesNM(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0xff, 1, 2, 4, 0xff, 1, 2, 0xff, 1, 2, 3, 5}, uint8(1))
	f.Add([]byte{1, 2, 3, 4, 0xff, 1, 2, 5, 6, 0xff, 1, 2, 5, 6, 7, 0xff, 1, 7, 7}, uint8(2))
	f.Add([]byte{4, 4, 0xff, 4, 4, 0xff, 4, 4, 4, 0xff, 4}, uint8(2))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 0xff, 0, 1, 2, 3, 4, 5, 6, 0xff, 8}, uint8(3))
	f.Add([]byte{7, 0xff, 3, 0xff, 7, 0xff, 5, 6, 0xff, 5, 6, 7, 8, 0}, uint8(4))
	f.Add([]byte{2, 0xff, 0xff, 2, 3}, uint8(0))
	deep := bytes.Repeat([]byte{1, 2, 3, 4, 5}, 8)[:walkDepth+4]
	f.Add(slices.Concat(deep, []byte{0, 0, 0, 0, 0xff}, deep, []byte{4, 4, 4}), uint8(0))
	data := walkData()
	g := grid.NewSquare(3)
	ref, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte, workers uint8) {
		var batch []Pattern
		var cur Pattern
		for _, b := range append(raw, 0xff) {
			switch {
			case b == 0xff:
				if len(cur) > 0 {
					batch = append(batch, cur)
				}
				cur = nil
			case len(cur) < walkDepth+8:
				cur = append(cur, int(b)%g.NumCells())
			}
		}
		s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth(), Workers: 1 + int(workers)%4})
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.ScoreAll(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range batch {
			var nm, match float64
			for ti, lm := range naiveLogMatches(ref, p) {
				nm += lm / float64(len(p))
				if len(data[ti]) >= len(p) {
					match += math.Exp(lm)
				}
			}
			want := ref.NM(p)
			if math.Float64bits(want) != math.Float64bits(nm) {
				t.Fatalf("pattern %d %v: NM %v, naive %v", i, p, want, nm)
			}
			if m := ref.Match(p); math.Float64bits(m) != math.Float64bits(match) {
				t.Fatalf("pattern %d %v: Match %v, naive %v", i, p, m, match)
			}
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("pattern %d %v: ScoreAll %v, NM %v", i, p, got[i], want)
			}
		}
	})
}

// FuzzExtensions checks that Extensions hands every child prefix·c, once,
// the bits LogMatches gives it. The dataset is drawn from seed: one to four
// trajectories of 0 to 9 positions and an empty one, on a 3×3 grid. raw
// encodes the call: the bytes before the first 0xff are the prefix's cells
// (mod 9, at most 12, so a prefix can be longer than every trajectory) and
// the bytes after it the cells to extend it with, repeats kept. Each input
// gets a fresh scorer, so the cells are built inside the call; when bit 2
// of opts is set the prefix's are built first. 1 to 4 workers scan.
func FuzzExtensions(f *testing.F) {
	f.Add([]byte{0xff, 0, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(1), uint8(0))
	f.Add([]byte{4, 0xff, 4, 3, 4, 5}, uint8(2), uint8(1))
	f.Add([]byte{1, 2, 0xff, 0, 1, 2, 2, 3}, uint8(3), uint8(6))
	f.Add([]byte{1, 2, 3, 0xff, 8, 7, 6, 5, 4}, uint8(4), uint8(3))
	f.Add([]byte{5, 1, 7, 1, 0xff, 1, 7}, uint8(9), uint8(2))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 0xff, 2, 2, 2}, uint8(5), uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2, 0xff, 1, 5}, uint8(6), uint8(7))
	f.Add([]byte{3, 3, 3, 3, 0xff}, uint8(7), uint8(3))
	g := grid.NewSquare(3)
	f.Fuzz(func(t *testing.T, raw []byte, seed, opts uint8) {
		var prefix Pattern
		var cells []int
		at := bytes.IndexByte(raw, 0xff)
		if at < 0 {
			at = len(raw)
		}
		for _, b := range raw[:min(at, 12)] {
			prefix = append(prefix, int(b)%g.NumCells())
		}
		for _, b := range raw[min(at+1, len(raw)):] {
			cells = append(cells, int(b)%g.NumCells())
		}
		rng := stat.NewRNG(uint64(seed))
		var data traj.Dataset
		for range 1 + rng.Intn(4) {
			tr := make(traj.Trajectory, rng.Intn(10))
			for j := range tr {
				tr[j] = traj.P(rng.Float64(), rng.Float64(), 0.02+0.2*rng.Float64())
			}
			data = append(data, tr)
		}
		data = slices.Insert(data, rng.Intn(len(data)+1), traj.Trajectory{})
		ref, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth()})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth(), Workers: 1 + int(opts)%4})
		if err != nil {
			t.Fatal(err)
		}
		if opts&4 != 0 {
			s.Prepare(prefix)
		}
		var mu sync.Mutex
		got := make([][]float64, len(cells))
		calls := make([]int, len(cells))
		s.Extensions(prefix, cells, func(k int, logM []float64) {
			mu.Lock()
			defer mu.Unlock()
			calls[k]++
			got[k] = slices.Clone(logM)
		})
		for k, c := range cells {
			if calls[k] != 1 {
				t.Fatalf("child %d (cell %d) handed over %d times", k, c, calls[k])
			}
			child := prefix.Concat(Pattern{c})
			want := ref.LogMatches(child)
			if len(got[k]) != len(want) {
				t.Fatalf("child %v: %d log-matches, want %d", child, len(got[k]), len(want))
			}
			for ti := range want {
				if math.Float64bits(got[k][ti]) != math.Float64bits(want[ti]) {
					t.Fatalf("child %v, trajectory %d of %d positions: Extensions %v, LogMatches %v",
						child, ti, len(data[ti]), got[k][ti], want[ti])
				}
			}
		}
	})
}

// FuzzCellBuildMatchesLogProb checks that the box-mode cell build stores,
// at every position of every cell, the bits logProb returns. Every three
// input bytes are a point: its mean's x and y on a 1/128 lattice over
// [−0.5, 1.5), so means fall on and off cell edges, inside and outside
// the grid, and its σ, which is 0 when the byte is a multiple of 8. The
// points repeat up to a drawn count of positions, at most 1,400 (six
// build blocks), in trajectories of 37. The grid is nx×ny cells (1 to 16
// each) over the unit square, δ is a drawn multiple (¼ to 2) of the cell
// width, and 1 to 4 workers build.
func FuzzCellBuildMatchesLogProb(f *testing.F) {
	f.Add([]byte{40, 200, 10, 90, 91, 10, 150, 60, 10, 70, 140, 11}, uint8(16), uint8(16), uint8(3), uint8(1), uint16(700))
	f.Add([]byte{128, 128, 0, 96, 160, 0, 64, 64, 8, 80, 100, 0, 0, 255, 3}, uint8(4), uint8(3), uint8(1), uint8(2), uint16(40))
	f.Add([]byte{20, 30, 10, 230, 10, 9, 120, 121, 200}, uint8(12), uint8(12), uint8(3), uint8(3), uint16(1399))
	f.Add([]byte{0, 0, 1, 255, 255, 255}, uint8(1), uint8(1), uint8(7), uint8(0), uint16(1))
	f.Add([]byte{64, 192, 33, 5, 250, 16}, uint8(7), uint8(2), uint8(5), uint8(3), uint16(300))
	f.Fuzz(func(t *testing.T, raw []byte, nx, ny, delta, workers uint8, n uint16) {
		var pts []traj.Point
		for i := 0; i+2 < len(raw); i += 3 {
			sigma := float64(raw[i+2]) / 1024
			if raw[i+2]%8 == 0 {
				sigma = 0
			}
			pts = append(pts, traj.P(float64(raw[i])/128-0.5, float64(raw[i+1])/128-0.5, sigma))
		}
		if len(pts) == 0 {
			return
		}
		var data traj.Dataset
		for p := 0; p < 1+int(n)%1400; p++ {
			if p%37 == 0 {
				data = append(data, nil)
			}
			data[len(data)-1] = append(data[len(data)-1], pts[p%len(pts)])
		}
		g := grid.New(geom.UnitSquare(), 1+int(nx)%16, 1+int(ny)%16)
		d := float64(1+delta%8) / 4 * g.CellWidth()
		s, err := NewScorer(data, Config{Grid: g, Delta: d, Workers: 1 + int(workers)%4})
		if err != nil {
			t.Fatal(err)
		}
		s.Prepare(s.AllCells())
		for c := 0; c < g.NumCells(); c++ {
			v := s.cached(c)
			for p, pt := range s.flat {
				if want := s.logProb(pt, c); math.Float64bits(v[p]) != math.Float64bits(want) {
					t.Fatalf("cell %d, flat position %d (mean %v, σ %v), δ %v: built %v, logProb %v", c, p, pt.Mean, pt.Sigma, d, v[p], want)
				}
			}
		}
	})
}

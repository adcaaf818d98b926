package baseline

import (
	"context"
	"fmt"
	"math"
	"testing"

	"trajpattern/internal/core"
	"trajpattern/internal/datagen"
	"trajpattern/internal/grid"
	"trajpattern/internal/stat"
	"trajpattern/internal/traj"
)

// walkDataset builds trajectories that repeatedly walk the given cell path
// with noise, planting strong patterns.
func walkDataset(seed uint64, g *grid.Grid, path []int, nTraj, reps int, sigma, noise float64) traj.Dataset {
	rng := stat.NewRNG(seed)
	d := make(traj.Dataset, nTraj)
	for i := range d {
		var tr traj.Trajectory
		for r := 0; r < reps; r++ {
			for _, cell := range path {
				c := g.CenterAt(cell)
				tr = append(tr, traj.P(c.X+rng.Normal(0, noise), c.Y+rng.Normal(0, noise), sigma))
			}
		}
		d[i] = tr
	}
	return d
}

func newScorer(t *testing.T, data traj.Dataset, n int) *core.Scorer {
	t.Helper()
	g := grid.NewSquare(n)
	s, err := core.NewScorer(data, core.Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPBValidation(t *testing.T) {
	s := newScorer(t, walkDataset(1, grid.NewSquare(2), []int{0, 1}, 3, 2, 0.05, 0.02), 2)
	if _, err := MinePB(s, PBConfig{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := MinePB(s, PBConfig{K: 1, MinLen: 5, MaxLen: 3}); err == nil {
		t.Error("MinLen > MaxLen accepted")
	}
	if _, err := MinePB(s, PBConfig{K: 1, Seeds: []int{}}); err == nil {
		t.Error("empty seeds accepted")
	}
	if _, err := MinePB(s, PBConfig{K: 1, MaxLen: -1}); err == nil {
		t.Error("negative MaxLen accepted")
	}
}

func TestPBMatchesExhaustive(t *testing.T) {
	g := grid.NewSquare(2)
	data := walkDataset(3, g, []int{0, 1, 3}, 6, 3, 0.05, 0.02)
	s := newScorer(t, data, 2)
	seeds := s.AllCells()
	k, maxLen := 8, 4
	pb, err := MinePB(s, PBConfig{K: k, MaxLen: maxLen, Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := ExhaustiveNM(s, seeds, k, 1, maxLen)
	if err != nil {
		t.Fatal(err)
	}
	if len(pb.Patterns) != len(oracle) {
		t.Fatalf("count: PB %d vs oracle %d", len(pb.Patterns), len(oracle))
	}
	for i := range oracle {
		if math.Abs(pb.Patterns[i].NM-oracle[i].NM) > 1e-9 {
			t.Errorf("rank %d: PB %v (%v) vs oracle %v (%v)",
				i, pb.Patterns[i].NM, pb.Patterns[i].Pattern, oracle[i].NM, oracle[i].Pattern)
		}
	}
	if pb.Stats.NMEvaluations == 0 || pb.Stats.PrefixesExpanded == 0 {
		t.Errorf("stats empty: %+v", pb.Stats)
	}
}

func TestPBAgreesWithTrajPattern(t *testing.T) {
	// The paper's two NM miners must return the same top-k on structured
	// data (both are exact).
	g := grid.NewSquare(3)
	data := walkDataset(5, g, []int{0, 4, 8}, 8, 3, 0.05, 0.02)
	sPB := newScorer(t, data, 3)
	sTP := newScorer(t, data, 3)
	k, maxLen := 6, 4
	pb, err := MinePB(sPB, PBConfig{K: k, MaxLen: maxLen, Seeds: sPB.AllCells()})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := core.Mine(context.Background(), sTP, core.MinerConfig{K: k, MaxLen: maxLen, Seeds: sTP.AllCells()})
	if err != nil {
		t.Fatal(err)
	}
	if len(pb.Patterns) != len(tp.Patterns) {
		t.Fatalf("count: PB %d vs TrajPattern %d", len(pb.Patterns), len(tp.Patterns))
	}
	for i := range pb.Patterns {
		if math.Abs(pb.Patterns[i].NM-tp.Patterns[i].NM) > 1e-9 {
			t.Errorf("rank %d NM: PB %v (%v) vs TrajPattern %v (%v)", i,
				pb.Patterns[i].NM, pb.Patterns[i].Pattern,
				tp.Patterns[i].NM, tp.Patterns[i].Pattern)
		}
	}
}

func TestPBMinLen(t *testing.T) {
	g := grid.NewSquare(2)
	data := walkDataset(7, g, []int{0, 1, 3, 2}, 5, 3, 0.05, 0.02)
	s := newScorer(t, data, 2)
	pb, err := MinePB(s, PBConfig{K: 4, MinLen: 3, MaxLen: 5, Seeds: s.AllCells()})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range pb.Patterns {
		if len(sp.Pattern) < 3 {
			t.Errorf("MinLen violated: %v", sp.Pattern)
		}
	}
	oracle, err := ExhaustiveNM(s, s.AllCells(), 4, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range oracle {
		if math.Abs(pb.Patterns[i].NM-oracle[i].NM) > 1e-9 {
			t.Errorf("rank %d: PB %v vs oracle %v", i, pb.Patterns[i].NM, oracle[i].NM)
		}
	}
}

// TestPBGolden pins MinePB's whole output on a small seeded zebra
// instance: the work counters, the top-k keys and every NM to the bit,
// each of which is Scorer.NM's.
func TestPBGolden(t *testing.T) {
	s := newScorer(t, goldenZebra(t), 5)
	res, err := MinePB(s, PBConfig{K: 8, MaxLen: 5})
	if err != nil {
		t.Fatal(err)
	}
	if want := (PBStats{PrefixesExpanded: 45, PrefixesPruned: 829, NMEvaluations: 874}); res.Stats != want {
		t.Errorf("stats %+v, want %+v", res.Stats, want)
	}
	// PB reports Σ_T logM/m, the sum Scorer.NM takes (checked below).
	want := []struct {
		key  string
		bits uint64
	}{
		{"13", 0xbf8e5bce746d2db8},
		{"13,13", 0xbfb09f4d4128e490},
		{"13,13,13", 0xbfd3db007c8b8102},
		{"13,13,13,13", 0xbfe3142ca04bd7b4},
		{"13,13,13,13,13", 0xbfe9940d99bb9e9e},
		{"12,13,13,13,13", 0xc00c4edfe710e77f},
		{"13,12,13,13,13", 0xc00c67776cdca47d},
		{"13,12,13,13", 0xc00fc69438cbf988},
	}
	if len(res.Patterns) != len(want) {
		t.Fatalf("%d patterns, want %d", len(res.Patterns), len(want))
	}
	for i, w := range want {
		got := res.Patterns[i]
		if got.Pattern.Key() != w.key || math.Float64bits(got.NM) != w.bits {
			t.Errorf("rank %d: %s NM %#016x, want %s %#016x",
				i, got.Pattern.Key(), math.Float64bits(got.NM), w.key, w.bits)
		}
		if nm := s.NM(got.Pattern); math.Float64bits(got.NM) != math.Float64bits(nm) {
			t.Errorf("rank %d: %s NM %#016x, Scorer.NM %#016x",
				i, got.Pattern.Key(), math.Float64bits(got.NM), math.Float64bits(nm))
		}
	}
}

// goldenZebra is the seeded zebra instance of TestPBGolden.
func goldenZebra(tb testing.TB) traj.Dataset {
	tb.Helper()
	ds, err := datagen.ZebraDataset(datagen.ZebraConfig{NumZebras: 12, AvgLen: 16, NumGroups: 3, Seed: 1}, 0.02, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

// BenchmarkMinePB runs PB on the benchmark's Figure 4 instance: 80 zebras
// of average length 60 in 5 herds from data seed 1, U 0.02, c 2, mined
// top-10 up to length 6 on the 12×12 and 9×9 grids (E3's default grid
// and E6's next step down). Each op makes a fresh scorer, so it pays its
// cell build as Figure 4's PB bar does.
func BenchmarkMinePB(b *testing.B) {
	ds, err := datagen.ZebraDataset(datagen.ZebraConfig{NumZebras: 80, AvgLen: 60, NumGroups: 5, Seed: 1}, 0.02, 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{12, 9} {
		g := grid.NewSquare(n)
		b.Run(fmt.Sprintf("grid%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := core.NewScorer(ds, core.Config{Grid: g, Delta: g.CellWidth()})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := MinePB(s, PBConfig{K: 10, MaxLen: 6}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestMatchMinerValidation(t *testing.T) {
	s := newScorer(t, walkDataset(9, grid.NewSquare(2), []int{0, 1}, 3, 2, 0.05, 0.02), 2)
	if _, err := MineMatch(s, MatchConfig{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := MineMatch(s, MatchConfig{K: 1, MinLen: 9, MaxLen: 2}); err == nil {
		t.Error("MinLen > MaxLen accepted")
	}
	if _, err := MineMatch(s, MatchConfig{K: 1, Seeds: []int{}}); err == nil {
		t.Error("empty seeds accepted")
	}
}

func TestMatchMinerTopKAreSingularsWithoutMinLen(t *testing.T) {
	// The paper's criticism of the match measure: without a length floor
	// the best patterns are the shortest ones.
	g := grid.NewSquare(2)
	data := walkDataset(11, g, []int{0, 1, 3}, 6, 3, 0.05, 0.02)
	s := newScorer(t, data, 2)
	res, err := MineMatch(s, MatchConfig{K: 3, MaxLen: 4, Seeds: s.AllCells()})
	if err != nil {
		t.Fatal(err)
	}
	for _, sm := range res.Patterns {
		if len(sm.Pattern) != 1 {
			t.Errorf("non-singular in unconstrained top-k: %v (match %v)", sm.Pattern, sm.Match)
		}
	}
}

func TestMatchMinerMatchesExhaustive(t *testing.T) {
	g := grid.NewSquare(2)
	data := walkDataset(13, g, []int{0, 1, 3, 2}, 6, 3, 0.05, 0.02)
	s := newScorer(t, data, 2)
	k, minLen, maxLen := 6, 3, 5
	res, err := MineMatch(s, MatchConfig{K: k, MinLen: minLen, MaxLen: maxLen, Seeds: s.AllCells()})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := ExhaustiveMatch(s, s.AllCells(), k, minLen, maxLen)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != len(oracle) {
		t.Fatalf("count: %d vs %d", len(res.Patterns), len(oracle))
	}
	for i := range oracle {
		if math.Abs(res.Patterns[i].Match-oracle[i].Match) > 1e-12 {
			t.Errorf("rank %d: miner %v (%v) vs oracle %v (%v)", i,
				res.Patterns[i].Match, res.Patterns[i].Pattern,
				oracle[i].Match, oracle[i].Pattern)
		}
	}
	if res.Stats.Levels < minLen {
		t.Errorf("stats: explored only %d levels", res.Stats.Levels)
	}
}

func TestExhaustiveValidation(t *testing.T) {
	s := newScorer(t, walkDataset(15, grid.NewSquare(2), []int{0}, 2, 2, 0.05, 0.02), 2)
	if _, err := ExhaustiveNM(s, nil, 1, 1, 2); err == nil {
		t.Error("no seeds accepted")
	}
	if _, err := ExhaustiveNM(s, s.AllCells(), 0, 1, 2); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := ExhaustiveNM(s, s.AllCells(), 1, 3, 2); err == nil {
		t.Error("inverted bounds accepted")
	}
	// Space guard: 4^30 is out of reach.
	if _, err := ExhaustiveNM(s, s.AllCells(), 1, 1, 30); err == nil {
		t.Error("huge space accepted")
	}
}

func TestMatchVsNMPatternLengths(t *testing.T) {
	// §6.1's qualitative claim: with the same length floor, the top-k NM
	// patterns are on average at least as long as the top-k match
	// patterns (match decays with length; NM does not).
	g := grid.NewSquare(3)
	data := walkDataset(17, g, []int{0, 4, 8, 4}, 10, 4, 0.04, 0.02)
	sNM := newScorer(t, data, 3)
	sM := newScorer(t, data, 3)
	k, minLen, maxLen := 10, 2, 6
	nmRes, err := core.Mine(context.Background(), sNM, core.MinerConfig{K: k, MinLen: minLen, MaxLen: maxLen})
	if err != nil {
		t.Fatal(err)
	}
	mRes, err := MineMatch(sM, MatchConfig{K: k, MinLen: minLen, MaxLen: maxLen})
	if err != nil {
		t.Fatal(err)
	}
	avg := func(ls []int) float64 {
		var s float64
		for _, l := range ls {
			s += float64(l)
		}
		return s / float64(len(ls))
	}
	var nmLens, mLens []int
	for _, p := range nmRes.Patterns {
		nmLens = append(nmLens, len(p.Pattern))
	}
	for _, p := range mRes.Patterns {
		mLens = append(mLens, len(p.Pattern))
	}
	if avg(nmLens) < avg(mLens) {
		t.Errorf("NM avg length %.2f < match avg length %.2f", avg(nmLens), avg(mLens))
	}
}

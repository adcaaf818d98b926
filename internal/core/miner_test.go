package core

import (
	"context"
	"math"
	"sort"
	"strings"
	"testing"

	"trajpattern/internal/grid"
	"trajpattern/internal/obs"
	"trajpattern/internal/stat"
	"trajpattern/internal/traj"
)

// exhaustiveTopK enumerates every pattern up to maxLen over the given cells
// and returns the k best by NM with the miner's tie-breaking. It is the
// test oracle; only usable for tiny alphabets.
func exhaustiveTopK(s *Scorer, cells []int, k, minLen, maxLen int) []ScoredPattern {
	var all []ScoredPattern
	var cur Pattern
	var rec func()
	rec = func() {
		if len(cur) > 0 && len(cur) >= minLen {
			all = append(all, ScoredPattern{Pattern: cur.Clone(), NM: s.NM(cur)})
		}
		if len(cur) == maxLen {
			return
		}
		for _, c := range cells {
			cur = append(cur, c)
			rec()
			cur = cur[:len(cur)-1]
		}
	}
	rec()
	sort.Slice(all, func(i, j int) bool {
		if all[i].NM != all[j].NM {
			return all[i].NM > all[j].NM
		}
		if len(all[i].Pattern) != len(all[j].Pattern) {
			return len(all[i].Pattern) < len(all[j].Pattern)
		}
		return all[i].Pattern.Key() < all[j].Pattern.Key()
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func TestMinerConfigValidation(t *testing.T) {
	s := testScorer(t, randomDataset(1, 2, 5, 0.1), 3)
	if _, err := Mine(context.Background(), s, MinerConfig{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Mine(context.Background(), s, MinerConfig{K: 1, MinLen: 5, MaxLen: 3}); err == nil {
		t.Error("MinLen > MaxLen accepted")
	}
	if _, err := Mine(context.Background(), s, MinerConfig{K: 1, Seeds: []int{}}); err == nil {
		t.Error("empty seed set accepted")
	}
}

func TestMinerFindsPlantedPattern(t *testing.T) {
	g := grid.NewSquare(4)
	// Objects repeatedly walk cells 5 -> 6 -> 10.
	path := []int{5, 6, 10}
	data := patternedDatasetPts(7, g, path, 10, 4, 0.03, 0.01)
	s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Mine(context.Background(), s, MinerConfig{K: 5, MaxLen: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 5 {
		t.Fatalf("got %d patterns", len(res.Patterns))
	}
	// The planted 3-pattern (or a super-pattern of it) must rank high;
	// at minimum some top pattern must contain the planted transition.
	planted := Pattern{5, 6, 10}
	found := false
	for _, sp := range res.Patterns {
		if strings.Contains(","+sp.Pattern.Key()+",", ","+planted.Key()+",") ||
			strings.Contains(","+planted.Key()+",", ","+sp.Pattern.Key()+",") {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("planted pattern not reflected in top-5: %+v", res.Patterns)
	}
	// Results sorted by NM descending.
	for i := 1; i < len(res.Patterns); i++ {
		if res.Patterns[i].NM > res.Patterns[i-1].NM {
			t.Error("results not sorted by NM")
		}
	}
}

// patternedDatasetPts is patternedDataset with geom jitter returning
// traj points (avoiding an import cycle in the helper above).
func patternedDatasetPts(seed uint64, g *grid.Grid, path []int, nTraj, reps int, sigma, noise float64) traj.Dataset {
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

func TestMinerMatchesExhaustiveOracle(t *testing.T) {
	// On tiny instances the miner should recover the exact top-k (the
	// paper's Theorem 1). Use structured data so the top patterns have
	// clear margins.
	g := grid.NewSquare(2) // 4 cells
	data := patternedDatasetPts(3, g, []int{0, 1, 3}, 6, 3, 0.05, 0.02)
	s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		t.Fatal(err)
	}
	maxLen := 4
	k := 8
	res, err := Mine(context.Background(), s, MinerConfig{K: k, MaxLen: maxLen, Seeds: s.AllCells()})
	if err != nil {
		t.Fatal(err)
	}
	oracle := exhaustiveTopK(s, s.AllCells(), k, 1, maxLen)
	if len(res.Patterns) != len(oracle) {
		t.Fatalf("count mismatch: %d vs %d", len(res.Patterns), len(oracle))
	}
	for i := range oracle {
		if math.Abs(res.Patterns[i].NM-oracle[i].NM) > 1e-9 {
			t.Errorf("rank %d: miner NM %v (pattern %v) vs oracle NM %v (pattern %v)",
				i, res.Patterns[i].NM, res.Patterns[i].Pattern, oracle[i].NM, oracle[i].Pattern)
		}
	}
}

func TestMinerMinLenVariant(t *testing.T) {
	g := grid.NewSquare(2)
	data := patternedDatasetPts(5, g, []int{0, 1, 3, 2}, 6, 3, 0.05, 0.02)
	s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Mine(context.Background(), s, MinerConfig{K: 5, MinLen: 3, MaxLen: 5, Seeds: s.AllCells()})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range res.Patterns {
		if len(sp.Pattern) < 3 {
			t.Errorf("MinLen violated: %v", sp.Pattern)
		}
	}
	// Against the oracle restricted to length >= 3.
	oracle := exhaustiveTopK(s, s.AllCells(), 5, 3, 5)
	for i := range oracle {
		if i >= len(res.Patterns) {
			t.Fatalf("missing pattern at rank %d", i)
		}
		if math.Abs(res.Patterns[i].NM-oracle[i].NM) > 1e-9 {
			t.Errorf("rank %d: miner NM %v vs oracle NM %v (%v vs %v)",
				i, res.Patterns[i].NM, oracle[i].NM, res.Patterns[i].Pattern, oracle[i].Pattern)
		}
	}
}

func TestMinerPruningAblationSameResults(t *testing.T) {
	g := grid.NewSquare(3)
	data := patternedDatasetPts(11, g, []int{0, 4, 8}, 8, 3, 0.05, 0.02)
	s1, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := MinerConfig{K: 6, MaxLen: 5, Seeds: s1.AllCells()}
	withPrune, err := Mine(context.Background(), s1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisablePrune = true
	noPrune, err := Mine(context.Background(), s2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(withPrune.Patterns) != len(noPrune.Patterns) {
		t.Fatalf("result sizes differ: %d vs %d", len(withPrune.Patterns), len(noPrune.Patterns))
	}
	for i := range withPrune.Patterns {
		if math.Abs(withPrune.Patterns[i].NM-noPrune.Patterns[i].NM) > 1e-9 {
			t.Errorf("rank %d NM differs with pruning: %v vs %v",
				i, withPrune.Patterns[i].NM, noPrune.Patterns[i].NM)
		}
	}
	if withPrune.Stats.Pruned == 0 {
		t.Error("pruning never fired on this workload")
	}
	if noPrune.Stats.MaxQ < withPrune.Stats.MaxQ {
		t.Errorf("pruning should shrink Q: %d (pruned) vs %d (unpruned)",
			withPrune.Stats.MaxQ, noPrune.Stats.MaxQ)
	}
}

// TestMinerPairSkipScope: candidate generation skips the pairs the LM
// bound rules out only at MinLen 1 with pruning on; DisablePrune (the A1
// literal search) and the MinLen variant propose every pair.
func TestMinerPairSkipScope(t *testing.T) {
	g := grid.NewSquare(3)
	data := patternedDatasetPts(11, g, []int{0, 4, 8}, 8, 3, 0.05, 0.02)
	for _, tc := range []struct {
		name string
		cfg  MinerConfig
		skip bool
	}{
		{"default", MinerConfig{K: 6, MaxLen: 5}, true},
		{"DisablePrune", MinerConfig{K: 6, MaxLen: 5, DisablePrune: true}, false},
		{"MinLen 2", MinerConfig{K: 6, MinLen: 2, MaxLen: 5}, false},
	} {
		reg := obs.New()
		s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth()})
		if err != nil {
			t.Fatal(err)
		}
		tc.cfg.Metrics = reg
		if _, err := Mine(context.Background(), s, tc.cfg); err != nil {
			t.Fatal(err)
		}
		if got := reg.Snapshot().Counter("miner.pairs.skipped"); (got > 0) != tc.skip {
			t.Errorf("%s: miner.pairs.skipped = %d, want skipping = %t", tc.name, got, tc.skip)
		}
	}
}

func TestMinerDeterminism(t *testing.T) {
	g := grid.NewSquare(3)
	data := patternedDatasetPts(13, g, []int{0, 1, 2}, 5, 3, 0.05, 0.03)
	run := func() *Result {
		s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth()})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Mine(context.Background(), s, MinerConfig{K: 4, MaxLen: 4})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Patterns) != len(b.Patterns) {
		t.Fatal("different result sizes across runs")
	}
	for i := range a.Patterns {
		if !a.Patterns[i].Pattern.Equal(b.Patterns[i].Pattern) || a.Patterns[i].NM != b.Patterns[i].NM {
			t.Fatalf("nondeterministic result at rank %d: %v vs %v", i, a.Patterns[i], b.Patterns[i])
		}
	}
}

func TestMinerStatsPopulated(t *testing.T) {
	g := grid.NewSquare(3)
	data := patternedDatasetPts(17, g, []int{0, 4}, 4, 3, 0.05, 0.02)
	s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Mine(context.Background(), s, MinerConfig{K: 3, MaxLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Iterations == 0 || st.Candidates == 0 || st.MaxQ == 0 || st.NMEvaluations == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
}

func TestMinerMaxLowQCap(t *testing.T) {
	g := grid.NewSquare(3)
	data := patternedDatasetPts(29, g, []int{0, 4, 8}, 6, 3, 0.05, 0.02)
	s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Mine(context.Background(), s, MinerConfig{K: 4, MaxLen: 5, MaxLowQ: 3, Seeds: s.AllCells()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.LowCapped == 0 {
		t.Error("tight MaxLowQ never fired")
	}
	if len(res.Patterns) != 4 {
		t.Errorf("result size = %d", len(res.Patterns))
	}
}

func TestMinerSurvivesDegenerateTies(t *testing.T) {
	// Every snapshot dead-center of the same cell with a huge δ: every
	// touched pattern has NM exactly 0 and ties flood the high set. The
	// default high-set cap must keep the run bounded.
	g := grid.NewSquare(3)
	var tr traj.Trajectory
	for i := 0; i < 12; i++ {
		tr = append(tr, traj.Point{Mean: g.CenterAt(4), Sigma: 0.001})
	}
	s, err := NewScorer(traj.Dataset{tr}, Config{Grid: g, Delta: 3 * g.CellWidth()})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	res, err := Mine(context.Background(), s, MinerConfig{K: 5, MaxLen: 6, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 5 {
		t.Errorf("result size = %d", len(res.Patterns))
	}
	if res.Stats.Candidates > 200000 {
		t.Errorf("tie explosion not contained: %d candidates", res.Stats.Candidates)
	}
	// Each iteration counts the ties the cap leaves out of H twice: in
	// the labeling it generates from, and in the one it prunes against.
	// Pruning removes some of them in between, so the pin also checks
	// that the carried labeling's count follows Q.
	if got := reg.Snapshot().Counter("miner.high.capped"); got != 1175 {
		t.Errorf("miner.high.capped = %d, want 1175", got)
	}
}

func TestMinerRespectsMaxLen(t *testing.T) {
	g := grid.NewSquare(2)
	data := patternedDatasetPts(19, g, []int{0, 1}, 4, 6, 0.05, 0.02)
	s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Mine(context.Background(), s, MinerConfig{K: 5, MaxLen: 3, Seeds: s.AllCells()})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range res.Patterns {
		if len(sp.Pattern) > 3 {
			t.Errorf("MaxLen violated: %v", sp.Pattern)
		}
	}
}

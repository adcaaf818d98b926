package shard

import (
	"context"
	"math"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"trajpattern/internal/core"
	"trajpattern/internal/datagen"
	"trajpattern/internal/grid"
	"trajpattern/internal/obs"
	"trajpattern/internal/testutil/leakcheck"
)

// zebraScorer builds a scorer over a small seeded zebra dataset on an
// n×n unit-square grid with δ equal to the cell size.
func zebraScorer(t *testing.T, seed uint64, zebras, avgLen, n int) *core.Scorer {
	t.Helper()
	ds, err := datagen.ZebraDataset(datagen.ZebraConfig{
		NumZebras: zebras, NumGroups: 3, AvgLen: avgLen, Seed: seed,
	}, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := grid.NewSquare(n)
	s, err := core.NewScorer(ds, core.Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func patternKeys(ps []core.ScoredPattern) []string {
	keys := make([]string, len(ps))
	for i, p := range ps {
		keys[i] = p.Pattern.Key()
	}
	return keys
}

// TestShardedTopKMatchesUnsharded is the merge-soundness property test:
// on seeded datagen datasets, the sharded engine must return exactly the
// single-partition miner's top-k — same patterns in the same order —
// across k values and shard counts, including counts that do not divide
// the object count evenly.
func TestShardedTopKMatchesUnsharded(t *testing.T) {
	defer leakcheck.Check(t)()
	for _, seed := range []uint64{3, 17} {
		s := zebraScorer(t, seed, 11, 24, 10)
		for _, shards := range []int{1, 2, 3, 8} {
			eng, err := NewEngine(s, shards)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 5, 20} {
				cfg := core.MinerConfig{K: k, MaxLowQ: 4 * k}
				want, err := core.Mine(context.Background(), s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.Mine(context.Background(), cfg, nil)
				if err != nil {
					t.Fatalf("seed=%d shards=%d k=%d: %v", seed, shards, k, err)
				}
				if got.Interrupted {
					t.Fatalf("seed=%d shards=%d k=%d: unexpectedly interrupted: %s", seed, shards, k, got.InterruptReason)
				}
				wk, gk := patternKeys(want.Patterns), patternKeys(got.Patterns)
				if len(wk) != len(gk) {
					t.Fatalf("seed=%d shards=%d k=%d: %d patterns, want %d", seed, shards, k, len(gk), len(wk))
				}
				for i := range wk {
					if wk[i] != gk[i] {
						t.Errorf("seed=%d shards=%d k=%d rank %d: pattern %s, want %s",
							seed, shards, k, i, gk[i], wk[i])
					}
					// Summation regrouping across shards may move the
					// merged NM by ulps, never more.
					if d := math.Abs(want.Patterns[i].NM - got.Patterns[i].NM); d > 1e-9*(1+math.Abs(want.Patterns[i].NM)) {
						t.Errorf("seed=%d shards=%d k=%d rank %d: NM %v, want %v",
							seed, shards, k, i, got.Patterns[i].NM, want.Patterns[i].NM)
					}
				}
			}
		}
	}
}

// TestShardSingularBoundIsSound checks the merge's min-max inequality
// directly: for every shard and a family of multi-cell patterns, the
// bound computed from singular NMs must dominate the true shard NM.
func TestShardSingularBoundIsSound(t *testing.T) {
	s := zebraScorer(t, 5, 9, 20, 8)
	eng, err := NewEngine(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	seeds := s.ObservedCells(1)
	for si, sc := range eng.scorers {
		memo := map[string]float64{}
		for _, c := range seeds {
			memo[strconv.Itoa(c)] = sc.NM(core.Pattern{c})
		}
		for i := 0; i+2 < len(seeds); i += 3 {
			p := core.Pattern{seeds[i], seeds[i+1], seeds[i+2]}
			nm := sc.NM(p)
			if ub := singularBound(memo, p); nm > ub+1e-12 {
				t.Errorf("shard %d: NM(%s) = %v exceeds bound %v", si, p.Key(), nm, ub)
			}
		}
	}
	// A cell missing from the memo must fall back to the global maximum 0.
	if ub := singularBound(map[string]float64{}, core.Pattern{1, 2}); ub != 0 {
		t.Errorf("empty-memo bound = %v, want 0", ub)
	}
}

// TestShardEngineClamps checks partition shapes: shard counts above the
// trajectory count clamp, and uneven divisions differ by at most one.
func TestShardEngineClamps(t *testing.T) {
	s := zebraScorer(t, 1, 7, 12, 8)
	eng, err := NewEngine(s, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.scorers) != 7 {
		t.Fatalf("%d shards, want clamp to 7", len(eng.scorers))
	}
	eng, err = NewEngine(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, len(eng.scorers))
	total := 0
	for i, sc := range eng.scorers {
		sizes[i] = sc.NumTrajectories()
		total += sizes[i]
	}
	if total != 7 || slices.Max(sizes)-slices.Min(sizes) > 1 {
		t.Fatalf("partition sizes %v do not cover 7 trajectories near-evenly", sizes)
	}
	if _, err := NewEngine(nil, 2); err == nil {
		t.Fatal("nil scorer accepted")
	}
}

// TestShardMineCancelledContextDegrades: a cancelled context must yield a
// best-so-far (possibly empty) result with Interrupted set, not an error.
func TestShardMineCancelledContextDegrades(t *testing.T) {
	defer leakcheck.Check(t)()
	s := zebraScorer(t, 2, 8, 16, 8)
	eng, err := NewEngine(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := eng.Mine(ctx, core.MinerConfig{K: 5}, nil)
	if err != nil {
		t.Fatalf("cancelled run errored: %v", err)
	}
	if !res.Interrupted || res.InterruptReason == "" {
		t.Fatalf("cancelled run not marked interrupted: %+v", res)
	}
}

// TestShardMineKeepsNoMetrics: a sharded run leaves no "shard.*" metric
// and no miner counter in the caller's registry; the shard scorers still
// count their NM evaluations there under the plain "scorer.*" names.
func TestShardMineKeepsNoMetrics(t *testing.T) {
	ds, err := datagen.ZebraDataset(datagen.ZebraConfig{NumZebras: 8, NumGroups: 3, AvgLen: 16, Seed: 4}, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	g := grid.NewSquare(8)
	s, err := core.NewScorer(ds, core.Config{Grid: g, Delta: g.CellWidth(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Mine(context.Background(), core.MinerConfig{K: 4, Metrics: reg}, nil); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["scorer.nm.evals"] == 0 {
		t.Errorf("shard scorers did not count into the caller's registry: %v", snap.Counters)
	}
	var names []string
	for name := range snap.Counters {
		names = append(names, name)
	}
	for name := range snap.Gauges {
		names = append(names, name)
	}
	for name := range snap.Timers {
		names = append(names, name)
	}
	for name := range snap.Histograms {
		names = append(names, name)
	}
	for _, name := range names {
		if strings.HasPrefix(name, "shard.") || strings.HasPrefix(name, "miner.") {
			t.Errorf("sharded run left metric %q", name)
		}
	}
}

// TestShardSingleDelegates: a one-shard engine must behave exactly like
// core.Mine on the original scorer — same patterns, same NMs, and the
// plain unprefixed counter names the bench baseline expects.
func TestShardSingleDelegates(t *testing.T) {
	s := zebraScorer(t, 6, 6, 14, 8)
	reg := obs.New()
	cfg := core.MinerConfig{K: 3, Metrics: reg}
	want, err := core.Mine(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Mine(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.scorers) != 0 {
		t.Fatalf("one-shard engine built %d shard scorers", len(eng.scorers))
	}
	wk, gk := patternKeys(want.Patterns), patternKeys(got.Patterns)
	for i := range wk {
		if wk[i] != gk[i] || math.Float64bits(want.Patterns[i].NM) != math.Float64bits(got.Patterns[i].NM) {
			t.Fatalf("delegated result differs at rank %d", i)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["miner.iterations"] == 0 {
		t.Error("one-shard engine did not use the plain miner counters")
	}
	for name := range snap.Counters {
		if len(name) >= 6 && name[:6] == "shard." {
			t.Errorf("one-shard engine emitted sharded counter %q", name)
		}
	}
}

// TestShardMineRejectsBadResume covers the engine's argument contract: it
// neither writes nor resumes checkpoints, whatever its shard count.
func TestShardMineRejectsBadResume(t *testing.T) {
	s := zebraScorer(t, 8, 6, 12, 8)
	for _, shards := range []int{1, 2} {
		eng, err := NewEngine(s, shards)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Mine(context.Background(), core.MinerConfig{K: 2}, make([]*core.Checkpoint, shards)); err == nil {
			t.Errorf("shards=%d: resume argument accepted", shards)
		}
		if _, err := eng.Mine(context.Background(), core.MinerConfig{K: 2, Resume: &core.Checkpoint{Version: core.CheckpointVersion}}, nil); err == nil {
			t.Errorf("shards=%d: cfg.Resume accepted", shards)
		}
		if _, err := eng.Mine(context.Background(), core.MinerConfig{K: 2, CheckpointPath: filepath.Join(t.TempDir(), "ck")}, nil); err == nil {
			t.Errorf("shards=%d: cfg.CheckpointPath accepted", shards)
		}
	}
}

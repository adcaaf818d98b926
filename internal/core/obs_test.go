package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"trajpattern/internal/datagen"
	"trajpattern/internal/grid"
	"trajpattern/internal/obs"
	"trajpattern/internal/traj"
)

// TestMinerMetricsConsistency mines with a registry attached and checks
// the obs counters against both the returned MinerStats and the internal
// bookkeeping identity of the pattern set Q: every pattern enters Q exactly
// once (as a seed, a fresh candidate or a re-admission) and leaves exactly
// once (1-extension prune or MaxLowQ cap), so the final |Q| equals
// insertions minus removals.
func TestMinerMetricsConsistency(t *testing.T) {
	g := grid.NewSquare(3)
	data := patternedDatasetPts(17, g, []int{0, 4, 8}, 6, 3, 0.05, 0.02)

	reg := obs.New()
	s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	cfg := MinerConfig{K: 3, MaxLen: 4, MaxLowQ: 12, Metrics: reg}
	res, err := Mine(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	st := res.Stats

	if got := snap.Counter("miner.iterations"); got != int64(st.Iterations) {
		t.Errorf("miner.iterations = %d, stats say %d", got, st.Iterations)
	}
	seeds := snap.Counter("miner.seeds")
	fresh := snap.Counter("miner.candidates.fresh")
	if seeds+fresh != int64(st.Candidates) {
		t.Errorf("seeds %d + fresh %d != stats.Candidates %d", seeds, fresh, st.Candidates)
	}
	if got := snap.Counter("miner.pruned.extension"); got != int64(st.Pruned) {
		t.Errorf("miner.pruned.extension = %d, stats say %d", got, st.Pruned)
	}
	if got := snap.Counter("miner.pruned.lowcap"); got != int64(st.LowCapped) {
		t.Errorf("miner.pruned.lowcap = %d, stats say %d", got, st.LowCapped)
	}
	if got := snap.Counter("scorer.nm.evals"); got != int64(st.NMEvaluations) || got == 0 {
		t.Errorf("scorer.nm.evals = %d, stats say %d (must be nonzero)", got, st.NMEvaluations)
	}

	// The Q ledger: inserted − removed = retained. This identity survives
	// aggregation across multiple Mine runs on a shared registry, which is
	// how the bench harness snapshots a whole sweep.
	inserted := seeds + fresh + snap.Counter("miner.candidates.readmitted")
	removed := snap.Counter("miner.pruned.extension") + snap.Counter("miner.pruned.lowcap")
	qFinal := snap.Gauge("miner.q.final")
	if retained := snap.Counter("miner.q.retained"); inserted-removed != retained {
		t.Errorf("Q ledger broken: inserted %d − removed %d != q.retained %d", inserted, removed, retained)
	} else if retained != qFinal {
		t.Errorf("single run: q.retained %d != q.final %d", retained, qFinal)
	}
	if peak := snap.Gauge("miner.q.peak"); peak < qFinal || peak != int64(st.MaxQ) {
		t.Errorf("miner.q.peak = %d (q.final %d, stats.MaxQ %d)", peak, qFinal, st.MaxQ)
	}
	if int64(len(res.Patterns)) > qFinal {
		t.Errorf("returned %d patterns out of a final Q of %d", len(res.Patterns), qFinal)
	}

	// Exactly one termination cause.
	term := snap.Counter("miner.term.stable") +
		snap.Counter("miner.term.exhausted") +
		snap.Counter("miner.term.maxiters")
	if term != 1 {
		t.Errorf("termination causes sum to %d, want exactly 1 (snapshot:\n%s)", term, snap)
	}

	// Scorer-side accounting: every batch pattern is an NM evaluation.
	if bp := snap.Counter("scorer.batch.patterns"); bp != snap.Counter("scorer.nm.evals") {
		t.Errorf("scorer.batch.patterns = %d != scorer.nm.evals = %d", bp, snap.Counter("scorer.nm.evals"))
	}
	if snap.Counter("scorer.batches") == 0 || snap.Gauge("scorer.batch.max") == 0 {
		t.Error("batch accounting missing")
	}
	if snap.Counter("scorer.cells.built") == 0 {
		t.Error("no cell vectors recorded")
	}
	// Each batch builds its cells under scorer.time.prepare, inside the
	// batch's own timer.
	prep, batch := snap.Timers["scorer.time.prepare"], snap.Timers["scorer.time.batch"]
	if prep.Count != snap.Counter("scorer.batches") || batch.Count != prep.Count {
		t.Errorf("scorer.time.prepare observed %d times, scorer.time.batch %d, for %d batches",
			prep.Count, batch.Count, snap.Counter("scorer.batches"))
	}
	if prep.TotalNS > batch.TotalNS {
		t.Errorf("scorer.time.prepare %dns exceeds the scorer.time.batch %dns that contains it", prep.TotalNS, batch.TotalNS)
	}
	if snap.Timers["miner.time.total"].Count != 1 {
		t.Errorf("miner.time.total observed %d times, want 1", snap.Timers["miner.time.total"].Count)
	}

	// Attaching a registry must not change the mined result.
	s2, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Metrics = nil
	res2, err := Mine(context.Background(), s2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Patterns, res2.Patterns) {
		t.Error("metrics collection changed the mined patterns")
	}
}

// TestScorerMetricsCacheAccounting pins the cache hit/miss split: Prepare
// builds each vector once, subsequent lookups hit.
func TestScorerMetricsCacheAccounting(t *testing.T) {
	g := grid.NewSquare(3)
	data := patternedDatasetPts(5, g, []int{0, 4}, 4, 2, 0.05, 0.02)
	reg := obs.New()
	s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	p := Pattern{0, 4}
	s.NM(p)
	s.NM(p)
	snap := reg.Snapshot()
	if got := snap.Counter("scorer.cells.built"); got != 2 {
		t.Errorf("scorer.cells.built = %d, want 2", got)
	}
	// First NM builds both vectors, second hits both.
	if got := snap.Counter("scorer.cache.hits"); got != 2 {
		t.Errorf("scorer.cache.hits = %d, want 2", got)
	}
	if got := int64(s.InstalledCells()); got != snap.Counter("scorer.cells.built") {
		t.Errorf("%d installed vectors != cells built %d", got, snap.Counter("scorer.cells.built"))
	}
}

// TestCountersIndependentOfWorkers mines one zebra instance at 1, 2, 3
// and 8 workers. Every counter is a property of the instance, not of the
// worker count, which is what lets trajbench's -check gate compare all of
// them.
func TestCountersIndependentOfWorkers(t *testing.T) {
	ds, err := datagen.ZebraDataset(datagen.ZebraConfig{NumZebras: 40, AvgLen: 40, NumGroups: 4, Seed: 3}, 0.02, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := ds.FitGrid(12)
	var want map[string]int64
	for _, workers := range []int{1, 2, 3, 8} {
		reg := obs.New()
		s, err := NewScorer(ds, Config{Grid: g, Delta: g.CellWidth(), Workers: workers, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Mine(context.Background(), s, MinerConfig{K: 10, MaxLen: 8, Metrics: reg}); err != nil {
			t.Fatal(err)
		}
		got := reg.Snapshot().Counters
		if want == nil {
			want = got
			continue
		}
		names := make([]string, 0, len(got)+len(want))
		for name := range got {
			names = append(names, name)
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			if got[name] != want[name] {
				t.Errorf("workers %d: %s = %d, %d at 1 worker", workers, name, got[name], want[name])
			}
		}
	}
}

func ExampleMinerConfig_metrics() {
	g := grid.NewSquare(2)
	tr := make(traj.Trajectory, 0, 8)
	for i := 0; i < 4; i++ {
		for _, cell := range []int{0, 3} {
			c := g.CenterAt(cell)
			tr = append(tr, traj.P(c.X, c.Y, 0.05))
		}
	}
	reg := obs.New()
	s, _ := NewScorer(traj.Dataset{tr}, Config{Grid: g, Delta: g.CellWidth(), Metrics: reg})
	res, _ := Mine(context.Background(), s, MinerConfig{K: 2, MaxLen: 3, Metrics: reg})
	snap := reg.Snapshot()
	fmt.Println(len(res.Patterns) > 0,
		snap.Counter("scorer.nm.evals") > 0,
		snap.Counter("miner.seeds")+snap.Counter("miner.candidates.fresh") == int64(res.Stats.Candidates))
	// Output: true true true
}

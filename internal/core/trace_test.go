package core

import (
	"context"
	"reflect"
	"testing"

	"trajpattern/internal/grid"
	"trajpattern/internal/obs"
	"trajpattern/internal/trace"
)

// traceCounts tallies a tracer's records by name.
func traceCounts(tr *trace.Tracer) map[string]int {
	out := map[string]int{}
	for _, e := range tr.Events() {
		out[e.Name]++
	}
	return out
}

// TestMinerTraceConsistency cross-checks the trace journal against the obs
// counters of the same run: every admitted/readmitted/pruned candidate
// event matches its counter, every iteration has a span, and the journal
// is deterministic (same counts on a re-run over the same data).
func TestMinerTraceConsistency(t *testing.T) {
	g := grid.NewSquare(3)
	data := patternedDatasetPts(17, g, []int{0, 4, 8}, 6, 3, 0.05, 0.02)

	run := func() (*Result, map[string]int, obs.Snapshot) {
		reg := obs.New()
		tr := trace.New()
		s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth(), Metrics: reg, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Mine(context.Background(), s, MinerConfig{K: 5, MaxLen: 4, MaxLowQ: 12, Metrics: reg, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		return res, traceCounts(tr), reg.Snapshot()
	}

	res, counts, snap := run()
	if got := counts["miner.run"]; got != 1 {
		t.Errorf("miner.run spans = %d, want 1", got)
	}
	if got := counts["miner.iteration"]; got != res.Stats.Iterations {
		t.Errorf("miner.iteration spans = %d, stats say %d iterations", got, res.Stats.Iterations)
	}
	if got := counts["miner.candidate.admitted"]; got != int(snap.Counter("miner.candidates.fresh")) {
		t.Errorf("admitted events = %d, counter says %d", got, snap.Counter("miner.candidates.fresh"))
	}
	if got := counts["miner.candidate.readmitted"]; got != int(snap.Counter("miner.candidates.readmitted")) {
		t.Errorf("readmitted events = %d, counter says %d", got, snap.Counter("miner.candidates.readmitted"))
	}
	pruned := snap.Counter("miner.pruned.extension") + snap.Counter("miner.pruned.lowcap")
	if got := counts["miner.candidate.pruned"]; got != int(pruned) {
		t.Errorf("pruned events = %d, counters say %d", got, pruned)
	}
	if got := counts["scorer.batch"]; got != int(snap.Counter("scorer.batches")) {
		t.Errorf("scorer.batch spans = %d, counter says %d", got, snap.Counter("scorer.batches"))
	}
	if got := counts["scorer.prepare"]; got != counts["scorer.batch"] {
		t.Errorf("scorer.prepare spans = %d, want one per scorer.batch span (%d)", got, counts["scorer.batch"])
	}
	if counts["miner.candidate.admitted"] == 0 || counts["miner.candidate.pruned"] == 0 {
		t.Fatalf("workload too small to exercise tracing: %v", counts)
	}

	// Deterministic event counts under a fixed dataset/config.
	res2, counts2, _ := run()
	if !reflect.DeepEqual(counts, counts2) {
		t.Errorf("trace counts differ across identical runs:\n%v\n%v", counts, counts2)
	}

	// Tracing must not change the mined result.
	s3, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		t.Fatal(err)
	}
	res3, err := Mine(context.Background(), s3, MinerConfig{K: 5, MaxLen: 4, MaxLowQ: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []*Result{res2, res3} {
		if !reflect.DeepEqual(res.Patterns, other.Patterns) {
			t.Error("tracing changed the mined patterns")
		}
	}
}

// TestScorerPrepareSpan checks that a batch's cell build is a
// scorer.prepare span inside its scorer.batch span, on the same
// goroutine's timeline, carrying the requested and built cell counts.
func TestScorerPrepareSpan(t *testing.T) {
	g := grid.NewSquare(3)
	data := patternedDatasetPts(9, g, []int{0, 4}, 5, 3, 0.05, 0.02)
	tr := trace.New()
	s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth(), Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]Pattern{{{0, 4}, {4, 8}, {0}}, {{4, 0}, {8}}}
	for _, b := range batches {
		if _, err := s.ScoreAll(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	var spans []trace.Event
	for _, e := range tr.Events() {
		if e.Kind != trace.KindSpan {
			t.Fatalf("unexpected record %+v", e)
		}
		spans = append(spans, e)
	}
	// Spans sort by start: each batch, then the prepare it encloses.
	wantCells := []int{3, 3}
	wantBuilt := []int{3, 0}
	if len(spans) != 2*len(batches) {
		t.Fatalf("got %d spans, want a scorer.batch and a scorer.prepare per batch: %+v", len(spans), spans)
	}
	for i := range batches {
		batch, prep := spans[2*i], spans[2*i+1]
		if batch.Name != "scorer.batch" || prep.Name != "scorer.prepare" {
			t.Fatalf("batch %d: spans %q, %q, want scorer.batch enclosing scorer.prepare", i, batch.Name, prep.Name)
		}
		// Timestamps and durations truncate to microseconds, so a nested
		// span's end may read up to 1µs past its parent's.
		if prep.TID != batch.TID || prep.TS < batch.TS || prep.TS+prep.Dur > batch.TS+batch.Dur+1 {
			t.Errorf("batch %d: prepare span %+v not inside batch span %+v", i, prep, batch)
		}
		if prep.Attrs["cells"] != wantCells[i] || prep.Attrs["built"] != wantBuilt[i] {
			t.Errorf("batch %d: prepare attrs %v, want cells %d built %d", i, prep.Attrs, wantCells[i], wantBuilt[i])
		}
		if batch.Attrs["cells"] != wantCells[i] {
			t.Errorf("batch %d: batch attrs %v, want cells %d", i, batch.Attrs, wantCells[i])
		}
	}
}

// TestScanBuildsInOnePass checks that a scan finding cells unbuilt builds
// all of them in one pass: Extensions of an unbuilt prefix over unbuilt
// cells, and NM, Match, LogMatches and NMWild of patterns with unbuilt and
// repeated cells, each make one scorer.time.prepare observation and one
// scorer.prepare span, which builds every distinct cell the call needs.
// Called again, each builds nothing and every lookup hits.
func TestScanBuildsInOnePass(t *testing.T) {
	g := grid.NewSquare(4)
	data := walkData()
	for _, c := range []struct {
		name             string
		requested, built int
		scan             func(s *Scorer)
	}{
		{"Extensions", 8, 6, func(s *Scorer) {
			s.Extensions(Pattern{0, 1, 0}, []int{2, 3, 1, 4, 5}, func(int, []float64) {})
		}},
		{"NM", 4, 3, func(s *Scorer) { s.NM(Pattern{7, 8, 7, 9}) }},
		{"Match", 3, 3, func(s *Scorer) { s.Match(Pattern{10, 11, 12}) }},
		{"LogMatches", 2, 1, func(s *Scorer) { s.LogMatches(Pattern{13, 13}) }},
		{"NMWild", 3, 2, func(s *Scorer) {
			if _, err := s.NMWild(WildPattern{14, Wildcard, 15, 14}); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			reg, tr := obs.New(), trace.New()
			s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth(), Metrics: reg, Tracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			c.scan(s)
			c.scan(s)
			snap := reg.Snapshot()
			if got := snap.Timers["scorer.time.prepare"].Count; got != 1 {
				t.Errorf("%d scorer.time.prepare observations, want 1", got)
			}
			events := tr.Events()
			if len(events) != 1 || events[0].Name != "scorer.prepare" {
				t.Fatalf("trace records %+v, want one scorer.prepare span", events)
			}
			if a := events[0].Attrs; a["cells"] != c.requested || a["built"] != c.built {
				t.Errorf("prepare attrs %v, want cells %d built %d", a, c.requested, c.built)
			}
			if got := snap.Counter("scorer.cells.built"); got != int64(c.built) {
				t.Errorf("scorer.cells.built = %d, want %d", got, c.built)
			}
			if got := snap.Counter("scorer.cache.hits"); got != int64(2*c.requested-c.built) {
				t.Errorf("scorer.cache.hits = %d, want %d", got, 2*c.requested-c.built)
			}
		})
	}
}

// TestMinerTraceAttrs spot-checks the journal payloads: candidate events
// carry a parseable pattern key, an NM value and the 1-based iteration.
func TestMinerTraceAttrs(t *testing.T) {
	g := grid.NewSquare(3)
	data := patternedDatasetPts(9, g, []int{0, 4}, 5, 3, 0.05, 0.02)
	tr := trace.New()
	s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth(), Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Mine(context.Background(), s, MinerConfig{K: 2, MaxLen: 3, MaxLowQ: 8, Tracer: tr}); err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, e := range tr.Events() {
		switch e.Name {
		case "miner.candidate.admitted", "miner.candidate.readmitted", "miner.candidate.pruned":
			key, ok := e.Attrs["pattern"].(string)
			if !ok {
				t.Fatalf("%s event without pattern key: %v", e.Name, e.Attrs)
			}
			if _, err := ParsePattern(key); err != nil {
				t.Errorf("%s pattern %q does not parse: %v", e.Name, key, err)
			}
			if _, ok := e.Attrs["nm"].(float64); !ok {
				t.Errorf("%s event without nm: %v", e.Name, e.Attrs)
			}
			if iter, ok := e.Attrs["iter"].(int); !ok || iter < 1 {
				t.Errorf("%s event with bad iter: %v", e.Name, e.Attrs)
			}
			if e.Name == "miner.candidate.pruned" {
				if r := e.Attrs["reason"]; r != "extension" && r != "lowcap" {
					t.Errorf("pruned event with reason %v", r)
				}
			}
			checked++
		case "miner.iteration":
			if e.Dur < 0 {
				t.Errorf("iteration span with negative duration")
			}
		}
	}
	if checked == 0 {
		t.Fatal("no candidate events recorded")
	}
}

// TestMinerProgress checks the OnProgress callback fires once per counted
// iteration of a run that ends on its own, its last pass included, with
// monotonically consistent state.
func TestMinerProgress(t *testing.T) {
	g := grid.NewSquare(3)
	data := patternedDatasetPts(9, g, []int{0, 4}, 5, 3, 0.05, 0.02)
	s, err := NewScorer(data, Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		t.Fatal(err)
	}
	var updates []Progress
	res, err := Mine(context.Background(), s, MinerConfig{K: 2, MaxLen: 3, MaxLowQ: 8, OnProgress: func(p Progress) {
		updates = append(updates, p)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted {
		t.Fatalf("run interrupted: %s", res.InterruptReason)
	}
	if len(updates) != res.Stats.Iterations {
		t.Fatalf("got %d progress updates for %d iterations", len(updates), res.Stats.Iterations)
	}
	for i, p := range updates {
		if p.Iteration != i+1 {
			t.Errorf("update %d has Iteration %d", i, p.Iteration)
		}
		if p.MaxIters != DefaultMaxIters || p.K != 2 {
			t.Errorf("update %d carries wrong config: %+v", i, p)
		}
		if p.QSize <= 0 || p.Candidates <= 0 {
			t.Errorf("update %d has empty state: %+v", i, p)
		}
		if i > 0 && p.Candidates < updates[i-1].Candidates {
			t.Errorf("Candidates went backwards at update %d", i)
		}
		if p.AnswerSize > p.K {
			t.Errorf("update %d AnswerSize %d > K", i, p.AnswerSize)
		}
	}
}

// TestDiscoverGroupsTraced checks the clustering span and that a traced
// DiscoverGroups returns the same groups as an untraced one.
func TestDiscoverGroupsTraced(t *testing.T) {
	g := grid.NewSquare(4)
	patterns := []Pattern{{0, 1}, {0, 2}, {5, 6}, {10, 11, 12}}
	gamma := 10 * g.CellWidth()
	plain, err := DiscoverGroups(patterns, g, gamma, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	traced, err := DiscoverGroups(patterns, g, gamma, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Error("traced grouping differs from plain grouping")
	}
	events := tr.Events()
	if len(events) != 1 || events[0].Name != "groups.cluster" {
		t.Fatalf("trace records = %v, want one groups.cluster span", events)
	}
	if got := events[0].Attrs["groups"]; got != len(traced) {
		t.Errorf("groups attr = %v, want %d", got, len(traced))
	}
	if got := events[0].Attrs["patterns"]; got != len(patterns) {
		t.Errorf("patterns attr = %v, want %d", got, len(patterns))
	}
}

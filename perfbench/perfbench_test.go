package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"trajpattern/internal/core"
	"trajpattern/internal/grid"
	"trajpattern/internal/ingest"
	"trajpattern/internal/serve"
)

// tinyInstance shrinks every phase so a whole run takes a few seconds; the
// grids keep the workload's proportions at half the side.
func tinyInstance(w workload) instance {
	return instance{
		Name: "tiny", U: 0.02, C: 2, MinOps: 2,
		LoopShare: 0.4, ServeShare: 0.5,
		Mine: mineInst{S: 16, L: 16, Herds: 3, GridN: w.MineGridN / 2, K: 4, MaxLen: 3, DataSeed: 1},
		Fig4: mineInst{S: 12, L: 12, Herds: 3, GridN: w.FigGridN / 2, K: 3, MaxLen: 3, DataSeed: 1},
		Serve: serveInst{
			ReadS: 12, ReadL: 16, Herds: 3, GridN: w.ServeGridN / 2,
			Objects: 6, PathLen: 50, PathSeed: 1, Prefill: 3,
			IngestRate: 20, ScoreRate: 40, PredictRate: 40, MineRate: 10, StatusRate: 40,
			ScorePatterns: 4, PatternPool: 8, History: 8,
			Bursts: 2, BurstSize: 20,
			LateBound: time.Second,
		},
	}
}

// TestTinyRunEmitsEveryMetric runs every workload at tiny scale, untraced
// and traced, and requires a correct run whose result line names exactly
// the metrics BENCHMARK.json lists for that mode.
func TestTinyRunEmitsEveryMetric(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		for _, traced := range []bool{false, true} {
			w := workloads[name]
			o := options{Workload: w, Seed: 3, Seconds: 1, Trace: traced, Inst: tinyInstance(w), OutDir: t.TempDir()}
			rep, err := run(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, traced, err)
			}
			var out bytes.Buffer
			if err := emit(&out, o, rep); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%t: last line is not the result: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%t: correct=%t failed=%d attempted=%d\n%s",
					name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) {
					t.Errorf("%s trace=%t: metric %s = %+v", name, traced, d.Name, m)
				}
			}
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the harness's metric and workload
// lists and BENCHMARK.json in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, harness %+v", kind, i, got[i], want[i])
			}
		}
	}
	// BENCHMARK.json also carries each end-to-end bound, which metricDef
	// does not hold; unmarshalling drops it.
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the harness", w.Name)
		}
	}
}

// minedTopK mines a tiny instance for the planted-regression tests.
func minedTopK(t *testing.T) (*core.Scorer, []core.ScoredPattern) {
	t.Helper()
	in := tinyInstance(workloads["default"]).Mine
	ds, err := in.dataset(0.02, 2)
	if err != nil {
		t.Fatal(err)
	}
	g := grid.NewSquare(in.GridN)
	r, err := mineOnce(context.Background(), ds, g, in, nil, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewScorer(ds, core.Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkNM(s, r.pats); err != nil {
		t.Fatalf("unperturbed top-k fails the check: %v", err)
	}
	return s, r.pats
}

func clonePats(p []core.ScoredPattern) []core.ScoredPattern {
	return append([]core.ScoredPattern(nil), p...)
}

// The checks are trusted only once seen to fail: each planted wrong answer
// below must trip the check that guards it.

func TestPlantedPerturbedNM(t *testing.T) {
	s, pats := minedTopK(t)
	bad := clonePats(pats)
	bad[1].NM = math.Nextafter(bad[1].NM, 0)
	if sameTopK(pats, bad) == nil {
		t.Error("sameTopK accepted an NM off by one ulp")
	}
	if checkNM(s, bad) == nil {
		t.Error("checkNM accepted an NM off by one ulp")
	}
	far := clonePats(pats)
	far[0].NM += 1e-6
	if checkFig4(pats, far) == nil {
		t.Error("checkFig4 accepted an NM 1e-6 away")
	}
}

func TestPlantedReorderedTopK(t *testing.T) {
	_, pats := minedTopK(t)
	bad := clonePats(pats)
	bad[0], bad[1] = bad[1], bad[0]
	if sameTopK(pats, bad) == nil {
		t.Error("sameTopK accepted a reordered top-k")
	}
	if checkFig4(pats, bad) == nil {
		t.Error("checkFig4 accepted a reordered top-k")
	}
	if checkFig4(pats, bad[:len(bad)-1]) == nil {
		t.Error("checkFig4 accepted a truncated top-k")
	}
}

func TestPlantedDigestMismatch(t *testing.T) {
	w := workloads["default"]
	o := options{Workload: w, Inst: fullInstance(w)}
	if checkReference(o, "mine-cold", strings.Repeat("0", 64)) == nil {
		t.Error("checkReference accepted a wrong mine-cold digest")
	}
}

func TestPlantedDroppedAck(t *testing.T) {
	acked := []ackRec{{"zeb-000", 1}, {"zeb-000", 2}, {"zeb-001", 1}}
	snap := []ingest.ObjectWindow{
		{Obj: "zeb-000", Records: []ingest.Record{{Obj: "zeb-000", Time: 1}, {Obj: "zeb-000", Time: 2}}},
		{Obj: "zeb-001", Records: []ingest.Record{{Obj: "zeb-001", Time: 1}}},
	}
	if got := missingAcks(acked, snap); len(got) != 0 {
		t.Fatalf("complete replay reported missing %v", got)
	}
	snap[0].Records = snap[0].Records[:1]
	if got := missingAcks(acked, snap); len(got) != 1 || got[0] != (ackRec{"zeb-000", 2}) {
		t.Errorf("dropped ack not reported: %v", got)
	}
}

func TestPlantedServedNM(t *testing.T) {
	s, pats := minedTopK(t)
	mix := &workloadMix{}
	var resp serve.ScoreResponse
	var idx []int
	for i, sp := range pats {
		mix.pool = append(mix.pool, sp.Pattern)
		mix.nm = append(mix.nm, s.NM(sp.Pattern))
		idx = append(idx, i)
		resp.Scores = append(resp.Scores, serve.ScoredPatternJSON{Cells: sp.Pattern, NM: sp.NM})
	}
	if err := checkScores(resp, idx, mix); err != nil {
		t.Fatalf("faithful answer rejected: %v", err)
	}
	resp.Scores[2].NM = math.Nextafter(resp.Scores[2].NM, math.Inf(1))
	if checkScores(resp, idx, mix) == nil {
		t.Error("checkScores accepted a served NM off by one ulp")
	}
}

// sortedKeys returns m's keys in order, for deterministic iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

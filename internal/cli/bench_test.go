package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func fakeBench(ns int64, work map[string]int64) *BenchResult {
	return &BenchResult{
		Schema: BenchSchema,
		Scale:  0.3,
		Seed:   1,
		Experiments: map[string]*ExperimentResult{
			"e3": {NS: ns, Work: work},
		},
	}
}

func TestCheckRegressionWithinTolerance(t *testing.T) {
	base := fakeBench(1000, map[string]int64{"scorer.nm.evals": 100, "miner.candidates.fresh": 50})
	cur := fakeBench(5000, map[string]int64{"scorer.nm.evals": 110, "miner.candidates.fresh": 45})
	if got := CheckRegression(base, cur, 15); len(got) != 0 {
		t.Errorf("within-tolerance drift flagged: %v", got)
	}
}

func TestCheckRegressionFlagsDrift(t *testing.T) {
	base := fakeBench(1000, map[string]int64{"scorer.nm.evals": 100})
	for _, tc := range []struct {
		name string
		cur  int64
	}{
		{"more work", 120},
		{"less work", 80},
	} {
		cur := fakeBench(1000, map[string]int64{"scorer.nm.evals": tc.cur})
		got := CheckRegression(base, cur, 15)
		if len(got) != 1 || !strings.Contains(got[0], "scorer.nm.evals") {
			t.Errorf("%s: got %v, want one scorer.nm.evals violation", tc.name, got)
		}
	}
}

func TestCheckRegressionMissingCounter(t *testing.T) {
	base := fakeBench(1000, map[string]int64{"scorer.nm.evals": 100})
	cur := fakeBench(1000, nil)
	got := CheckRegression(base, cur, 15)
	if len(got) != 1 || !strings.Contains(got[0], "missing") {
		t.Errorf("missing counter not flagged: %v", got)
	}
}

func TestCheckRegressionZeroBaseline(t *testing.T) {
	base := fakeBench(1000, map[string]int64{"miner.pruned.lowcap": 0})
	if got := CheckRegression(base, fakeBench(1000, map[string]int64{"miner.pruned.lowcap": 0}), 15); len(got) != 0 {
		t.Errorf("0 == 0 flagged: %v", got)
	}
	if got := CheckRegression(base, fakeBench(1000, map[string]int64{"miner.pruned.lowcap": 3}), 15); len(got) != 1 {
		t.Errorf("0 -> 3 not flagged: %v", got)
	}
}

func TestCheckRegressionIncomparableRuns(t *testing.T) {
	base := fakeBench(1000, nil)
	cur := fakeBench(1000, nil)
	cur.Scale = 0.5
	got := CheckRegression(base, cur, 15)
	if len(got) != 1 || !strings.Contains(got[0], "incomparable") {
		t.Errorf("scale mismatch not flagged: %v", got)
	}
}

func TestCheckRegressionSkipsUnrunExperiments(t *testing.T) {
	base := fakeBench(1000, map[string]int64{"scorer.nm.evals": 100})
	base.Experiments["e7"] = &ExperimentResult{NS: 1, Work: map[string]int64{"scorer.nm.evals": 100}}
	cur := fakeBench(1000, map[string]int64{"scorer.nm.evals": 100}) // only e3 ran
	if got := CheckRegression(base, cur, 15); len(got) != 0 {
		t.Errorf("unrun baseline experiment flagged: %v", got)
	}
}

func TestSelectExperiments(t *testing.T) {
	sel, err := selectExperiments([]string{"e3", " E7 "})
	if err != nil {
		t.Fatal(err)
	}
	if !sel["e3"] || !sel["e7"] || len(sel) != 2 {
		t.Errorf("selection = %v", sel)
	}
	if _, err := selectExperiments([]string{"e99"}); err == nil {
		t.Error("unknown experiment accepted")
	}
	all, err := selectExperiments(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(benchExperiments) {
		t.Errorf("nil selection = %d experiments, want %d", len(all), len(benchExperiments))
	}
}

// TestRunBenchRefusesFlagValues: a zero scale is not full scale, and a
// negative tolerance is not the default one.
func TestRunBenchRefusesFlagValues(t *testing.T) {
	for flag, o := range map[string]BenchOptions{
		"-scale": {Experiments: []string{"e3"}, Scale: 0},
		"-tol":   {Experiments: []string{"e3"}, Scale: 0.15, TolPct: -1},
	} {
		var buf bytes.Buffer
		_, err := RunBench(context.Background(), &buf, o)
		if err == nil || !strings.Contains(err.Error(), flag+": ") || ExitCode(err) != 2 {
			t.Errorf("%s: err = %v, want a %s refusal, exit 2", flag, err, flag)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: refused run wrote %q", flag, buf.String())
		}
	}
}

func TestRunBenchUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if _, err := RunBench(context.Background(), &buf, BenchOptions{Experiments: []string{"nope"}}); err == nil {
		t.Error("unknown experiment did not fail the run")
	}
}

// TestRunBenchEndToEnd runs a real (small) experiment, writes bench.json,
// and verifies that checking the run against its own output passes while a
// perturbed baseline fails — the full path the CI bench-regression job
// exercises.
func TestRunBenchEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "bench.json")

	var buf bytes.Buffer
	res, err := RunBench(context.Background(), &buf, BenchOptions{
		Experiments: []string{"e3"},
		Scale:       0.15,
		Seed:        1,
		ShowMetrics: true,
		JSONPath:    jsonPath,
	})
	if err != nil {
		t.Fatalf("RunBench: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "E3 (Figure 4a)") {
		t.Errorf("table missing from output:\n%s", out)
	}
	if !strings.Contains(out, "scorer.nm.evals") {
		t.Errorf("-metrics snapshot missing from output:\n%s", out)
	}

	er := res.Experiments["e3"]
	if er == nil {
		t.Fatal("no e3 entry in result")
	}
	if er.NS <= 0 || er.Allocs == 0 {
		t.Errorf("timing/alloc accounting empty: ns=%d allocs=%d", er.NS, er.Allocs)
	}
	if er.Work["scorer.nm.evals"] == 0 || er.Work["miner.candidates.fresh"] == 0 {
		t.Errorf("work counters empty: %v", er.Work)
	}

	// Self-check passes.
	buf.Reset()
	if _, err := RunBench(context.Background(), &buf, BenchOptions{
		Experiments: []string{"e3"},
		Scale:       0.15,
		Seed:        1,
		CheckPath:   jsonPath,
		TolPct:      15,
	}); err != nil {
		t.Errorf("self-check failed: %v\n%s", err, buf.String())
	}

	// A perturbed baseline fails.
	bad, err := LoadBenchResult(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	evals := bad.Experiments["e3"].Work["scorer.nm.evals"]
	for _, tc := range []struct {
		name   string
		evals  int64
		tolPct float64
	}{
		{"halved, tolerance 15%", evals / 2, 15},
		{"5% up, exact check", evals + evals/20, 0},
	} {
		bad.Experiments["e3"].Work["scorer.nm.evals"] = tc.evals
		badPath := filepath.Join(dir, "bad.json")
		if err := writeBenchJSON(badPath, bad); err != nil {
			t.Fatal(err)
		}
		buf.Reset()
		if _, err := RunBench(context.Background(), &buf, BenchOptions{
			Experiments: []string{"e3"},
			Scale:       0.15,
			Seed:        1,
			CheckPath:   badPath,
			TolPct:      tc.tolPct,
		}); err == nil {
			t.Errorf("baseline %s did not fail the check:\n%s", tc.name, buf.String())
		}
	}
}

// TestRunBenchDeterministic is the end-to-end determinism check: two
// in-process runs of the same experiment at the same seed and scale must
// produce byte-identical work-counter blocks in bench.json. This is the
// property the determinism analyzer exists to protect — if it ever fails,
// some nondeterminism (clock, global RNG, map order) leaked into the gate
// counters.
func TestRunBenchDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment twice")
	}
	work := func(run int) []byte {
		var buf bytes.Buffer
		res, err := RunBench(context.Background(), &buf, BenchOptions{
			Experiments: []string{"e3"},
			Scale:       0.15,
			Seed:        1,
		})
		if err != nil {
			t.Fatalf("run %d: %v\n%s", run, err, buf.String())
		}
		er := res.Experiments["e3"]
		if er == nil || len(er.Work) == 0 {
			t.Fatalf("run %d: no e3 work counters", run)
		}
		// encoding/json sorts map keys, so this is the exact byte form of
		// the "work" block the CI gate reads out of bench.json.
		b, err := json.Marshal(er.Work)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		return b
	}
	first := work(1)
	second := work(2)
	if !bytes.Equal(first, second) {
		t.Errorf("work-counter block differs between identical runs:\nrun 1: %s\nrun 2: %s", first, second)
	}
}

func TestLoadBenchResultRejectsBadSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "old.json")
	if err := os.WriteFile(path, []byte(`{"schema": 0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBenchResult(path); err == nil {
		t.Error("schema-0 baseline accepted")
	}
	if _, err := LoadBenchResult(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing baseline accepted")
	}
}

package cli

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"trajpattern/internal/core"
	"trajpattern/internal/obs"
	"trajpattern/internal/trace"
)

// traceNameCounts tallies records per name, the determinism fingerprint.
func traceNameCounts(tr *trace.Tracer) map[string]int {
	out := map[string]int{}
	for _, e := range tr.Events() {
		out[e.Name]++
	}
	return out
}

// mineTraced runs one NM mine with a fresh tracer and returns it.
func mineTraced(t *testing.T, extra func(*MineOptions)) *trace.Tracer {
	t.Helper()
	ds, err := Generate(GenOptions{Kind: "zebra", N: 8, Len: 20, U: 0.02, C: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	o := MineOptions{
		K: 3, GridN: 8, MinLen: 1, MaxLen: 3, DeltaMul: 1,
		Measure: "nm", Groups: true, Tracer: tr,
	}
	if extra != nil {
		extra(&o)
	}
	var buf bytes.Buffer
	if _, err := Mine(context.Background(), &buf, ds, o); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestMineTraceEndToEnd(t *testing.T) {
	var updates []core.Progress
	tr := mineTraced(t, func(o *MineOptions) {
		o.OnProgress = func(u core.Progress) { updates = append(updates, u) }
	})

	counts := traceNameCounts(tr)
	if counts["miner.run"] != 1 {
		t.Errorf("miner.run spans = %d, want 1", counts["miner.run"])
	}
	if counts["miner.iteration"] == 0 {
		t.Error("no miner.iteration spans")
	}
	if counts["scorer.batch"] == 0 {
		t.Error("no scorer.batch spans")
	}
	if counts["groups.cluster"] != 1 {
		t.Errorf("groups.cluster spans = %d, want 1", counts["groups.cluster"])
	}
	if len(updates) == 0 {
		t.Error("OnProgress never fired")
	}

	// Fixed seed, fixed options: the trace fingerprint is deterministic.
	again := traceNameCounts(mineTraced(t, nil))
	// The progress callback must not change what gets traced.
	if !reflect.DeepEqual(counts, again) {
		t.Errorf("trace fingerprint not deterministic:\n%v\n%v", counts, again)
	}
}

func TestMineMetricsOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	mineTraced(t, func(o *MineOptions) { o.MetricsOut = path })

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Provenance obs.Provenance `json:"provenance"`
		Metrics    obs.Snapshot   `json:"metrics"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("metrics report not valid JSON: %v", err)
	}
	if rep.Provenance.GoVersion == "" {
		t.Error("metrics report missing provenance stamp")
	}
	if rep.Metrics.Counter("miner.candidates.fresh") == 0 {
		t.Errorf("metrics report missing miner counters: %+v", rep.Metrics.Counters)
	}
}

func TestSaveTrace(t *testing.T) {
	tr := mineTraced(t, nil)
	path := filepath.Join(t.TempDir(), "run.trace")
	if err := tr.Save(path); err != nil {
		t.Fatal(err)
	}

	// The journal is one JSON object per line.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var e map[string]any
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("journal line %d not valid JSON: %v", lines+1, err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != tr.Len() {
		t.Errorf("journal has %d lines, tracer has %d records", lines, tr.Len())
	}

	// The sibling file is a valid Chrome trace.
	raw, err := os.ReadFile(path + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(chrome.TraceEvents) != tr.Len() {
		t.Errorf("chrome trace has %d events, tracer has %d records",
			len(chrome.TraceEvents), tr.Len())
	}

	// Disabled tracing writes nothing.
	none := filepath.Join(t.TempDir(), "none")
	var nilTracer *trace.Tracer
	if err := nilTracer.Save(none); err != nil {
		t.Errorf("nil tracer Save: %v", err)
	}
	if _, err := os.Stat(none); !os.IsNotExist(err) {
		t.Errorf("nil tracer Save wrote %s (stat err %v)", none, err)
	}
	if err := tr.Save(""); err != nil {
		t.Errorf("empty path Save: %v", err)
	}
}

// TestProgressPrinter: -progress writes exactly one line per callback
// call, that is per counted iteration, with no extrapolation.
func TestProgressPrinter(t *testing.T) {
	var buf bytes.Buffer
	progress := ProgressLine(&buf)
	u := core.Progress{MaxIters: 16, QSize: 10, HighSize: 3,
		AnswerSize: 2, K: 5, Candidates: 40, Elapsed: 2 * time.Second}
	for i := 1; i <= 3; i++ {
		u.Iteration = i
		progress(u)
		lines := strings.SplitAfter(buf.String(), "\n")
		if len(lines) != i+1 || lines[i] != "" {
			t.Fatalf("after %d calls the output is %q, want %d whole lines", i, buf.String(), i)
		}
	}
	want := "iter 3/16  |H|=3 |Q|=10  answer 2/5  candidates 40  elapsed 2s\n"
	if last := strings.SplitAfter(buf.String(), "\n")[2]; last != want {
		t.Errorf("third line = %q, want %q", last, want)
	}
}

// TestRunBenchTraced checks the bench harness threads the tracer and the
// experiment's registry through a real experiment and stamps the result
// with provenance.
func TestRunBenchTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	tr := trace.New()
	var buf bytes.Buffer
	res, err := RunBench(context.Background(), &buf, BenchOptions{
		Experiments: []string{"e3"},
		Scale:       0.15,
		Seed:        1,
		Tracer:      tr,
	})
	if err != nil {
		t.Fatalf("RunBench: %v\n%s", err, buf.String())
	}
	if res.Provenance.GoVersion == "" || res.Provenance.GOARCH == "" {
		t.Errorf("bench result missing provenance: %+v", res.Provenance)
	}
	counts := traceNameCounts(tr)
	if counts["miner.run"] == 0 || counts["scorer.batch"] == 0 {
		t.Errorf("bench trace missing miner spans: %v", counts)
	}
	if er := res.Experiments["e3"]; er == nil || er.Work["scorer.nm.evals"] == 0 {
		t.Error("bench result does not hold the experiment registry's counters")
	}

	// The old committed baseline layout (schema 1 with go_version fields)
	// still loads: the gate only reads schema, scale, seed and work.
	dir := t.TempDir()
	legacy := filepath.Join(dir, "legacy.json")
	if err := os.WriteFile(legacy, []byte(`{"schema":1,"go_version":"go1.22","goos":"linux","goarch":"amd64","scale":0.15,"seed":1,"experiments":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := LoadBenchResult(legacy)
	if err != nil {
		t.Fatalf("legacy baseline rejected: %v", err)
	}
	if got := CheckRegression(base, res, 15); len(got) != 0 {
		t.Errorf("legacy baseline comparison: %v", got)
	}
}

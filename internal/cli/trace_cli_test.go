package cli

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
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
	if err := SaveTrace(path, tr); err != nil {
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
	if err := SaveTrace(filepath.Join(t.TempDir(), "none"), nil); err != nil {
		t.Errorf("nil tracer SaveTrace: %v", err)
	}
	if err := SaveTrace("", tr); err != nil {
		t.Errorf("empty path SaveTrace: %v", err)
	}
}

func TestProgressPrinter(t *testing.T) {
	var buf bytes.Buffer
	// A huge interval isolates the throttle: only the first update prints
	// until Done flushes the last one.
	p := NewProgressPrinter(&buf, time.Hour)
	u := core.Progress{Iteration: 1, MaxIters: 16, QSize: 10, HighSize: 3,
		AnswerSize: 2, K: 5, Candidates: 40, Elapsed: 2 * time.Second}
	p.Update(u)
	first := buf.String()
	if !strings.Contains(first, "iter 1/16") || !strings.Contains(first, "|Q|=10") {
		t.Errorf("first update not printed: %q", first)
	}
	if !strings.Contains(first, "ETA") {
		t.Errorf("extrapolation missing: %q", first)
	}

	u.Iteration = 2
	p.Update(u)
	if got := buf.String(); got != first {
		t.Errorf("throttled update printed anyway: %q", got)
	}

	p.Done()
	out := buf.String()
	if !strings.Contains(out, "iter 2/16") {
		t.Errorf("Done did not flush the pending update: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Errorf("Done did not terminate the status line: %q", out)
	}

	// Nil printer: Update is installable as a callback and does nothing.
	var np *ProgressPrinter
	np.Update(u)
	np.Done()
}

func TestProgressETASlidingWindow(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgressPrinter(&buf, time.Nanosecond) // effectively unthrottled
	// A steady 2 it/s on the miner's elapsed clock: iterations 1..4 at
	// half-second spacing.
	for i := 1; i <= 4; i++ {
		p.Update(core.Progress{Iteration: i, MaxIters: 10, K: 5,
			Elapsed: time.Duration(i) * 500 * time.Millisecond})
	}
	p.Done()
	out := buf.String()
	if !strings.Contains(out, "2.0 it/s") {
		t.Errorf("sliding-window rate missing: %q", out)
	}
	// Six iterations remain at 2 it/s → a 3s upper bound.
	if !strings.Contains(out, "ETA ≤ 3s") {
		t.Errorf("ETA not derived from the window rate: %q", out)
	}
}

func TestMetricsHolder(t *testing.T) {
	var nilHolder *MetricsHolder
	nilHolder.Set(obs.New()) // no panic
	if s := nilHolder.Snapshot(); len(s.Counters) != 0 {
		t.Errorf("nil holder snapshot: %+v", s)
	}

	h := &MetricsHolder{}
	if h.Registry() != nil {
		t.Error("empty holder has a registry")
	}
	r := obs.New()
	r.Counter("x").Add(3)
	h.Set(r)
	if h.Snapshot().Counter("x") != 3 {
		t.Error("holder snapshot missing published registry")
	}
	h.Set(nil)
	if h.Registry() != nil {
		t.Error("holder not cleared")
	}
}

func TestDebugServer(t *testing.T) {
	reg := obs.New()
	reg.Counter("miner.candidates.fresh").Add(7)
	holder := &MetricsHolder{}
	holder.Set(reg)
	tr := trace.New()
	tr.Local().Event("miner.candidate.admitted", trace.Attrs{"pattern": "1"})

	url, stop, err := StartDebugServer("127.0.0.1:0", holder, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop() //nolint:errcheck

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "miner.candidates.fresh") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	code, body := get("/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("/metrics?format=json = %d", code)
	}
	var rep struct {
		Provenance obs.Provenance `json:"provenance"`
		Metrics    obs.Snapshot   `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/metrics?format=json not valid JSON: %v\n%s", err, body)
	}
	if rep.Provenance.GoVersion == "" || rep.Metrics.Counter("miner.candidates.fresh") != 7 {
		t.Errorf("stamped report wrong: %+v", rep)
	}

	code, body = get("/trace/status")
	if code != http.StatusOK {
		t.Fatalf("/trace/status = %d", code)
	}
	var st trace.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/trace/status not valid JSON: %v\n%s", err, body)
	}
	if !st.Enabled || st.Events != 1 || st.ByName["miner.candidate.admitted"] != 1 {
		t.Errorf("trace status = %+v", st)
	}

	if code, body := get("/"); code != http.StatusOK || !strings.Contains(body, "/trace/status") {
		t.Errorf("index = %d %q", code, body)
	}
	if code, _ := get("/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path = %d, want 404", code)
	}
	if code, body := get("/debug/vars"); code != http.StatusOK || !strings.Contains(body, "memstats") {
		t.Errorf("/debug/vars = %d %q", code, body[:min(len(body), 80)])
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d", code)
	}

	if err := stop(); err != nil {
		t.Errorf("stop: %v", err)
	}
}

// TestDebugServerNilSources checks the endpoints degrade gracefully when
// no registry or tracer is attached (trajbench before its first
// experiment, or a run without -trace).
func TestDebugServerNilSources(t *testing.T) {
	url, stop, err := StartDebugServer("127.0.0.1:0", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop() //nolint:errcheck

	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "no metrics") {
		t.Errorf("/metrics without registry = %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(url + "/trace/status")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var st trace.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Enabled {
		t.Error("nil tracer reports Enabled")
	}
}

// TestRunBenchTraced checks the bench harness threads the tracer and
// holder through a real experiment and stamps the result with provenance.
func TestRunBenchTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	tr := trace.New()
	holder := &MetricsHolder{}
	var buf bytes.Buffer
	res, err := RunBench(context.Background(), &buf, BenchOptions{
		Experiments: []string{"e3"},
		Scale:       0.15,
		Seed:        1,
		Tracer:      tr,
		Holder:      holder,
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
	if holder.Snapshot().Counter("scorer.nm.evals") == 0 {
		t.Error("holder does not expose the experiment registry")
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

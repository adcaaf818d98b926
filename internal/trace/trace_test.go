package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tl := tr.Local()
	if tl != nil {
		t.Fatal("nil tracer returned a non-nil Local")
	}
	tl.Event("x", Attrs{"a": 1})
	sp := tl.Span("y", nil)
	if sp != nil {
		t.Fatal("nil Local returned a non-nil Span")
	}
	sp.Attr("k", 1)
	sp.End()
	if got := tr.Events(); got != nil {
		t.Errorf("nil tracer Events() = %v, want nil", got)
	}
	if tr.Len() != 0 {
		t.Error("nil tracer Len() != 0")
	}
	if err := tr.Journal(&bytes.Buffer{}); err != nil {
		t.Errorf("nil tracer Journal: %v", err)
	}
	if err := tr.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Errorf("nil tracer WriteChromeTrace: %v", err)
	}
}

func TestSpanAndEventOrdering(t *testing.T) {
	tr := New()
	tl := tr.Local()
	sp := tl.Span("miner.iteration", Attrs{"iter": 1})
	tl.Event("miner.candidate.admitted", Attrs{"pattern": "3-4", "nm": -2.5})
	tl.Event("miner.candidate.pruned", Attrs{"pattern": "3-4-5"})
	sp.Attr("q", 7).End()

	events := tr.Events()
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	// The span took its seq at start, so it sorts before its contents.
	if events[0].Name != "miner.iteration" || events[0].Kind != KindSpan {
		t.Errorf("first record = %+v, want the miner.iteration span", events[0])
	}
	if events[0].Attrs["q"] != 7 {
		t.Errorf("span end-attr q = %v, want 7", events[0].Attrs["q"])
	}
	if events[1].Name != "miner.candidate.admitted" || events[2].Name != "miner.candidate.pruned" {
		t.Errorf("event order wrong: %s, %s", events[1].Name, events[2].Name)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Errorf("seq not strictly increasing at %d", i)
		}
	}
	if tr.Len() != 3 {
		t.Errorf("Len = %d, want 3", tr.Len())
	}
}

func TestSpanDuration(t *testing.T) {
	tr := New()
	tl := tr.Local()
	sp := tl.Span("scorer.batch", nil)
	time.Sleep(2 * time.Millisecond)
	sp.End()
	e := tr.Events()[0]
	if e.Dur < 1000 {
		t.Errorf("span duration %dµs, want >= 1000", e.Dur)
	}
	if e.TS < 0 {
		t.Errorf("negative timestamp %d", e.TS)
	}
}

func TestConcurrentLocals(t *testing.T) {
	tr := New()
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		tl := tr.Local()
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := tl.Span("stream.pass", nil)
				tl.Event("tick", Attrs{"i": i})
				sp.End()
			}
		}()
	}
	wg.Wait()
	events := tr.Events()
	if len(events) != workers*per*2 {
		t.Fatalf("got %d events, want %d", len(events), workers*per*2)
	}
	seen := make(map[int64]bool)
	for i, e := range events {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
		if i > 0 && e.Seq < events[i-1].Seq {
			t.Fatal("events not sorted by seq")
		}
	}
	byName := map[string]int{}
	for _, e := range events {
		byName[e.Name]++
	}
	if byName["stream.pass"] != workers*per || byName["tick"] != workers*per {
		t.Errorf("by-name counts wrong: %v", byName)
	}
}

// TestOpenSpanNotInJournal: a span is recorded when it ends, not before.
func TestOpenSpanNotInJournal(t *testing.T) {
	tr := New()
	sp := tr.Local().Span("miner.run", nil)
	if tr.Len() != 0 {
		t.Errorf("Len = %d with only an open span, want 0", tr.Len())
	}
	sp.End()
	if tr.Len() != 1 {
		t.Errorf("Len = %d after End, want 1", tr.Len())
	}
}

// TestJournalSchemaGolden pins the JSONL journal schema: records produced
// through the public API, with their (nondeterministic) timestamps zeroed,
// must serialize exactly to these lines. Changing a field name, dropping a
// field, or reordering the struct is a format break — bump consumers and
// this golden together.
func TestJournalSchemaGolden(t *testing.T) {
	tr := New()
	tl := tr.Local()
	sp := tl.Span("miner.iteration", Attrs{"iter": 1})
	tl.Event("miner.candidate.admitted", Attrs{"iter": 1, "nm": -12.5, "pattern": "3-4"})
	sp.Attr("q", 42).End()

	events := tr.Events()
	for i := range events {
		events[i].TS = 0
		events[i].Dur = 0
	}
	var buf bytes.Buffer
	for _, e := range events {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(line, '\n'))
	}
	golden := strings.Join([]string{
		`{"seq":1,"kind":"span","name":"miner.iteration","tid":1,"ts_us":0,"attrs":{"iter":1,"q":42}}`,
		`{"seq":2,"kind":"event","name":"miner.candidate.admitted","tid":1,"ts_us":0,"attrs":{"iter":1,"nm":-12.5,"pattern":"3-4"}}`,
		``,
	}, "\n")
	if got := buf.String(); got != golden {
		t.Errorf("journal schema drifted:\ngot:\n%s\nwant:\n%s", got, golden)
	}

	// The real Journal output must parse line-by-line into the same schema
	// (same key sets), timestamps included.
	var real bytes.Buffer
	if err := tr.Journal(&real); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(real.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("journal has %d lines, want 2", len(lines))
	}
	wantKeys := map[string][]string{
		KindSpan:  {"seq", "kind", "name", "tid", "ts_us", "attrs"}, // dur_us omitted when 0
		KindEvent: {"seq", "kind", "name", "tid", "ts_us", "attrs"},
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("journal line is not JSON: %q: %v", line, err)
		}
		kind, _ := m["kind"].(string)
		for _, k := range wantKeys[kind] {
			if _, ok := m[k]; !ok {
				t.Errorf("journal %s record missing key %q: %s", kind, k, line)
			}
		}
		for k := range m {
			switch k {
			case "seq", "kind", "name", "tid", "ts_us", "dur_us", "attrs":
			default:
				t.Errorf("journal record has unpinned key %q: %s", k, line)
			}
		}
	}
}

// TestChromeTraceValid checks that the Chrome export is well-formed
// trace-event JSON: a traceEvents array whose entries carry the required
// name/ph/ts/pid/tid fields, spans as "X" with a duration, instants as
// thread-scoped "i".
func TestChromeTraceValid(t *testing.T) {
	tr := New()
	tl := tr.Local()
	sp := tl.Span("miner.iteration", Attrs{"iter": 3})
	tl.Event("miner.candidate.pruned", Attrs{"pattern": "1-2", "reason": "extension"})
	sp.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	if len(ct.TraceEvents) != 2 {
		t.Fatalf("traceEvents has %d entries, want 2", len(ct.TraceEvents))
	}
	for _, e := range ct.TraceEvents {
		for _, k := range []string{"name", "cat", "ph", "ts", "pid", "tid"} {
			if _, ok := e[k]; !ok {
				t.Errorf("trace event missing %q: %v", k, e)
			}
		}
		switch e["ph"] {
		case "X":
			if _, ok := e["dur"]; !ok {
				t.Errorf("X event missing dur: %v", e)
			}
			if e["cat"] != "miner" {
				t.Errorf("span category = %v, want miner", e["cat"])
			}
		case "i":
			if e["s"] != "t" {
				t.Errorf("instant event scope = %v, want t", e["s"])
			}
		default:
			t.Errorf("unexpected ph %v", e["ph"])
		}
	}
}

func TestJournalAndChromeFiles(t *testing.T) {
	tr := New()
	tl := tr.Local()
	tl.Span("groups.cluster", Attrs{"patterns": 5}).End()

	dir := t.TempDir()
	jp := dir + "/run.trace"
	cp := dir + "/run.trace.json"
	if err := tr.JournalFile(jp); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTraceFile(cp); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{jp, cp} {
		if fi := mustStat(t, p); fi == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

func mustStat(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

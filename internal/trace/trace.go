// Package trace is a small, dependency-free structured tracing layer for
// the miner's phase structure: where internal/obs answers "how much work
// did a run do", trace answers "when and why". A Tracer collects spans
// (timed phases such as one grow iteration or one ScoreAll batch) and
// instant events (a candidate admitted, pruned or re-admitted, with its
// pattern id and NM value) on a shared timeline and serializes them as a
// JSON-lines journal (Journal) and as a Chrome trace-event file
// (WriteChromeTrace) loadable in Perfetto or chrome://tracing.
//
// The design contract mirrors internal/obs: every handle is safe on a nil
// receiver, so instrumented code resolves a per-goroutine *Local once up
// front —
//
//	tl := cfg.Tracer.Local() // nil when Tracer is nil
//	...
//	if tl != nil { tl.Event("miner.candidate.pruned", trace.Attrs{...}) }
//
// — and, with no tracer attached, hot paths pay only a nil check (the
// explicit guard also skips building the Attrs map). When a tracer is
// attached, each Local buffers its records behind its own mutex, so
// concurrent goroutines never contend on a shared lock; a global atomic
// sequence number preserves cross-goroutine ordering for the journal.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"trajpattern/internal/faultio"
)

// Attrs carries the structured payload of a span or event. Values must be
// JSON-serializable; encoding/json sorts the keys, so serialized attrs are
// deterministic. The map is retained by reference — do not mutate it after
// passing it in.
type Attrs map[string]any

// Kinds of journal records.
const (
	KindSpan  = "span"  // a timed phase (has dur_us)
	KindEvent = "event" // an instant event
)

// Event is one journal record: a completed span or an instant event. The
// JSON field set is the journal schema, pinned by a golden test — extend it
// only by appending optional (omitempty) fields.
type Event struct {
	// Seq is a process-wide sequence number; spans take theirs at start,
	// so a span sorts before the events it encloses.
	Seq int64 `json:"seq"`
	// Kind is KindSpan or KindEvent.
	Kind string `json:"kind"`
	// Name identifies the phase or event type (e.g. "miner.iteration",
	// "miner.candidate.pruned"). DESIGN.md maps each name to its §4 phase.
	Name string `json:"name"`
	// TID identifies the Local (≈ goroutine) that recorded the event.
	TID int64 `json:"tid"`
	// TS is the start time in microseconds since the tracer was created.
	TS int64 `json:"ts_us"`
	// Dur is the span duration in microseconds (spans only).
	Dur int64 `json:"dur_us,omitempty"`
	// Attrs is the structured payload.
	Attrs Attrs `json:"attrs,omitempty"`
}

// Tracer collects spans and events from any number of goroutines. The zero
// value is not usable; call New. A nil *Tracer is a valid "disabled"
// tracer: Local returns a nil *Local whose methods are no-ops.
type Tracer struct {
	epoch time.Time
	seq   atomic.Int64

	mu      sync.Mutex
	locals  []*Local
	nextTID int64
}

// New returns an empty tracer whose timeline starts now.
func New() *Tracer { return &Tracer{epoch: time.Now()} }

// Local returns a new per-goroutine recording handle. Each Local buffers
// behind its own uncontended mutex; hand one Local to each goroutine that
// records (sharing one is safe, merely slower). Returns nil on a nil
// tracer.
func (t *Tracer) Local() *Local {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextTID++
	l := &Local{tr: t, tid: t.nextTID}
	t.locals = append(t.locals, l)
	return l
}

// us returns the tracer-relative timestamp of tm in microseconds.
func (t *Tracer) us(tm time.Time) int64 { return int64(tm.Sub(t.epoch) / time.Microsecond) }

// Local is one goroutine's buffered recording handle. All methods are safe
// on a nil receiver, and safe (if contended) for concurrent use.
type Local struct {
	tr  *Tracer
	tid int64

	mu  sync.Mutex
	buf []Event
}

func (l *Local) append(e Event) {
	l.mu.Lock()
	l.buf = append(l.buf, e)
	l.mu.Unlock()
}

// Event records an instant event. No-op on a nil Local — but callers on
// hot paths should still guard with `if l != nil` so the Attrs map is not
// built when tracing is disabled.
func (l *Local) Event(name string, attrs Attrs) {
	if l == nil {
		return
	}
	l.append(Event{
		Seq:   l.tr.seq.Add(1),
		Kind:  KindEvent,
		Name:  name,
		TID:   l.tid,
		TS:    l.tr.us(time.Now()),
		Attrs: attrs,
	})
}

// Span is one in-flight timed phase, created by Local.Span and finished by
// End. All methods are safe on a nil receiver.
type Span struct {
	l     *Local
	name  string
	seq   int64
	start time.Time
	attrs Attrs
}

// Span starts a timed phase. The span takes its sequence number now, so in
// the journal it sorts before the events recorded inside it. Returns nil
// on a nil Local.
func (l *Local) Span(name string, attrs Attrs) *Span {
	if l == nil {
		return nil
	}
	return &Span{l: l, name: name, seq: l.tr.seq.Add(1), start: time.Now(), attrs: attrs}
}

// Attr sets one attribute on the span (e.g. a result size known only at
// the end of the phase) and returns the span for chaining.
func (s *Span) Attr(key string, v any) *Span {
	if s == nil {
		return nil
	}
	if s.attrs == nil {
		s.attrs = Attrs{}
	}
	s.attrs[key] = v
	return s
}

// End finishes the span and buffers its record. Calling End more than once
// records the span more than once; don't.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.l.append(Event{
		Seq:   s.seq,
		Kind:  KindSpan,
		Name:  s.name,
		TID:   s.l.tid,
		TS:    s.l.tr.us(s.start),
		Dur:   int64(now.Sub(s.start) / time.Microsecond),
		Attrs: s.attrs,
	})
}

// Events returns a copy of every buffered record, ordered by sequence
// number (program order within a goroutine; spans before their contents).
// Nil tracer yields nil. Spans still open are not included.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	locals := append([]*Local(nil), t.locals...)
	t.mu.Unlock()
	var out []Event
	for _, l := range locals {
		l.mu.Lock()
		out = append(out, l.buf...)
		l.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Len returns the number of buffered records (0 for a nil tracer).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	locals := append([]*Local(nil), t.locals...)
	t.mu.Unlock()
	n := 0
	for _, l := range locals {
		l.mu.Lock()
		n += len(l.buf)
		l.mu.Unlock()
	}
	return n
}

// Journal writes every buffered record as one JSON object per line, in
// sequence order. No-op on a nil tracer.
func (t *Tracer) Journal(w io.Writer) error {
	if t == nil {
		return nil
	}
	for _, e := range t.Events() {
		line, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("trace: marshal event %d: %w", e.Seq, err)
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return fmt.Errorf("trace: write journal: %w", err)
		}
	}
	return nil
}

// JournalFile writes the JSONL journal to path atomically (temp file +
// fsync + rename), so an interrupted flush never leaves a torn journal.
// No-op on a nil tracer.
func (t *Tracer) JournalFile(path string) error {
	if t == nil {
		return nil
	}
	return faultio.WriteFileAtomic(nil, path, t.Journal)
}

// Save writes the records in both formats side by side: the JSONL journal
// at path and the Chrome trace-event JSON (Perfetto, chrome://tracing) at
// path + ".json". No-op on a nil tracer or an empty path.
func (t *Tracer) Save(path string) error {
	if t == nil || path == "" {
		return nil
	}
	if err := t.JournalFile(path); err != nil {
		return err
	}
	return t.WriteChromeTraceFile(path + ".json")
}

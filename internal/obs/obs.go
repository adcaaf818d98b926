// Package obs is a small, dependency-free observability layer for the
// miner's hot paths: atomic counters, gauges and phase timers collected in
// a Registry whose Snapshot serializes deterministically to text and JSON.
//
// The design goal is zero cost when disabled: every handle type (*Counter,
// *Gauge, *Timer) and *Registry itself treat a nil receiver as a no-op, so
// instrumented code resolves handles once up front —
//
//	m := cfg.Metrics.Counter("miner.candidates.fresh") // nil when Metrics is nil
//	...
//	m.Add(int64(len(fresh))) // single predictable branch when disabled
//
// — and pays only a nil check per event when no registry is attached.
// When a registry is attached, updates are single atomic operations and
// safe for concurrent use.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing (by convention) atomic counter.
// All methods are safe on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-value (or maximum) gauge. All methods are safe
// on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set records the current value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// SetMax raises the gauge to n if n exceeds the current value.
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Timer accumulates the duration and invocation count of a phase. All
// methods are safe on a nil receiver.
type Timer struct {
	totalNS atomic.Int64
	count   atomic.Int64
}

// Start begins one timed phase and returns the function that ends it.
// On a nil timer the returned stop function is a no-op.
func (t *Timer) Start() (stop func()) {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.Observe(time.Since(start)) }
}

// Observe records one phase of duration d.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.totalNS.Add(int64(d))
	t.count.Add(1)
}

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.totalNS.Load())
}

// Count returns how many phases were observed.
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// Registry is a named collection of counters, gauges and timers. The zero
// value is not usable; call New. A nil *Registry is a valid "disabled"
// registry: its lookup methods return nil handles, whose updates are no-ops.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	timers     map[string]*Timer
	histograms map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		timers:     make(map[string]*Timer),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the timer registered under name, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Histogram returns the histogram registered under name, creating it on
// first use with DefaultDurationBuckets. Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return r.HistogramWith(name, DefaultDurationBuckets)
}

// HistogramWith returns the histogram registered under name, creating it
// on first use with the given upper bounds (sorted copy; an implicit +Inf
// bucket is always appended). An already-registered name keeps its
// original buckets — first registration wins, so a layout is fixed for
// the registry's lifetime. Returns nil on a nil registry.
func (r *Registry) HistogramWith(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// TimerStat is the snapshot form of one Timer.
type TimerStat struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
}

// Snapshot is a point-in-time copy of a registry's instruments. Map keys
// are instrument names; encoding/json marshals them sorted, so the JSON
// form is deterministic, as is String.
type Snapshot struct {
	Counters   map[string]int64         `json:"counters,omitempty"`
	Gauges     map[string]int64         `json:"gauges,omitempty"`
	Timers     map[string]TimerStat     `json:"timers,omitempty"`
	Histograms map[string]HistogramStat `json:"histograms,omitempty"`
}

// Snapshot copies the current instrument values. A nil registry yields the
// zero Snapshot. Instruments updated concurrently with Snapshot land in
// either the old or the new state per instrument.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.timers) > 0 {
		s.Timers = make(map[string]TimerStat, len(r.timers))
		for name, t := range r.timers {
			s.Timers[name] = TimerStat{Count: t.Count(), TotalNS: int64(t.Total())}
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramStat, len(r.histograms))
		for name, h := range r.histograms {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}

// Counter returns the snapshotted value of the named counter (0 if absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns the snapshotted value of the named gauge (0 if absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// String renders the snapshot as aligned text with every section sorted by
// name, so equal snapshots render identically.
func (s Snapshot) String() string {
	var b strings.Builder
	section := func(title string, names []string, value func(string) string) {
		if len(names) == 0 {
			return
		}
		sort.Strings(names)
		width := 0
		for _, n := range names {
			if len(n) > width {
				width = len(n)
			}
		}
		fmt.Fprintf(&b, "%s:\n", title)
		for _, n := range names {
			fmt.Fprintf(&b, "  %-*s  %s\n", width, n, value(n))
		}
	}
	section("counters", keys(s.Counters), func(n string) string {
		return fmt.Sprintf("%d", s.Counters[n])
	})
	section("gauges", keys(s.Gauges), func(n string) string {
		return fmt.Sprintf("%d", s.Gauges[n])
	})
	section("timers", keys(s.Timers), func(n string) string {
		t := s.Timers[n]
		return fmt.Sprintf("%d × %v total", t.Count, time.Duration(t.TotalNS))
	})
	section("histograms", keys(s.Histograms), func(n string) string {
		h := s.Histograms[n]
		return fmt.Sprintf("%d obs, sum %g", h.Count, h.Sum)
	})
	return b.String()
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

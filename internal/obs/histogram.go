package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// DefaultDurationBuckets are the log-linear upper bounds (in seconds) a
// Registry.Histogram uses when the caller does not pick its own: a 1-2.5-5
// progression per decade from 100µs to 50s. The progression is fixed so
// every run of the same binary snapshots identical bucket layouts — the
// distribution is comparable across runs even though the counts are
// timing-class (never part of the deterministic bench gate).
var DefaultDurationBuckets = []float64{
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5, 5,
	10, 25, 50,
}

// Histogram is a fixed-bucket histogram of float64 observations (by
// convention seconds, matching Prometheus). Buckets are chosen once at
// creation and never change; observations land in the first bucket whose
// upper bound is >= the value, with an implicit +Inf overflow bucket. All
// methods are safe on a nil receiver and for concurrent use.
//
// Count is derived from the bucket counts, so a snapshot's +Inf cumulative
// bucket always equals its count even when observations race the snapshot
// — the invariant the Prometheus exposition (and its conformance
// validator) rely on. Sum may trail the bucket counts by in-flight
// observations; no format-level invariant ties it to them.
type Histogram struct {
	bounds []float64      // ascending upper bounds; immutable after creation
	counts []atomic.Int64 // len(bounds)+1; the last is the +Inf overflow
	sum    atomicFloat
}

// atomicFloat is a float64 accumulated with a CAS loop over its bits.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64frombits(old) + v
		if f.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

// newHistogram builds a histogram over a defensive sorted copy of bounds.
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one value. NaN observations are dropped — one poisoned
// measurement must not corrupt the running sum forever.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v != v { // NaN
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v ("le" semantics)
	h.counts[i].Add(1)
	h.sum.add(v)
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Start begins one timed phase and returns the function that ends it by
// observing the elapsed duration. On a nil histogram the returned stop
// function is a no-op.
func (h *Histogram) Start() (stop func()) {
	if h == nil {
		return func() {}
	}
	start := time.Now()
	return func() { h.ObserveDuration(time.Since(start)) }
}

// HistogramStat is the snapshot form of one Histogram. Bounds and Counts
// are parallel except that Counts carries one extra trailing entry, the
// +Inf overflow bucket; counts are per-bucket, not cumulative.
type HistogramStat struct {
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
}

// snapshot copies the histogram's state. Count is the sum of the copied
// bucket counts, so the stat is internally consistent even under
// concurrent observation.
func (h *Histogram) snapshot() HistogramStat {
	s := HistogramStat{
		Sum:    h.sum.load(),
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

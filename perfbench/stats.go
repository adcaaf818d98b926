package main

import (
	"math"
	"sort"
	"time"

	"trajpattern/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the "type 7" estimator). NaN for an empty sample. xs is
// not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	// Failed requests enter as +Inf and stay infinite here: a failure
	// exceeds every latency limit.
	frac := pos - float64(lo)
	if frac == 0 || s[lo] == s[lo+1] {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// histQuantile estimates the q-quantile of an obs histogram snapshot the
// way Prometheus' histogram_quantile does: find the bucket holding the
// q·count-th observation and interpolate linearly inside it. The result is
// only as fine as the program's bucket layout.
func histQuantile(h obs.HistogramStat, q float64) float64 {
	if h.Count == 0 {
		return math.NaN()
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i == len(h.Bounds) { // +Inf overflow bucket
			return h.Bounds[len(h.Bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = h.Bounds[i-1]
		}
		return lower + (h.Bounds[i]-lower)*(rank-prev)/float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// span is one timed call the harness made into a layer. Spans of one
// operation share Op; Parent is the enclosing span's ID (0 at the root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	Dur    float64 `json:"dur_s"`
	open   time.Time
}

// recorder keeps the harness's spans in memory until the run ends. A nil
// recorder records nothing, so untraced runs take the same code path. It
// is used from one goroutine only.
type recorder struct {
	t0    time.Time
	spans []*span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	now := time.Now()
	sp := &span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: now.Sub(r.t0).Seconds(), open: now}
	r.spans = append(r.spans, sp)
	return sp.ID
}

// end closes span id and returns its duration in seconds.
func (r *recorder) end(id int) float64 {
	if r == nil || id == 0 {
		return 0
	}
	sp := r.spans[id-1]
	sp.Dur = time.Since(sp.open).Seconds()
	return sp.Dur
}

// add records a span measured elsewhere (a request timed by a sender
// goroutine), returning its ID.
func (r *recorder) add(name string, parent, op int, start time.Time, dur time.Duration) int {
	if r == nil {
		return 0
	}
	sp := &span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(r.t0).Seconds(), Dur: dur.Seconds()}
	r.spans = append(r.spans, sp)
	return sp.ID
}

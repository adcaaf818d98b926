package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	h.Start()()
	var r *Registry
	if r.Histogram("x") != nil || r.HistogramWith("x", []float64{1}) != nil {
		t.Fatal("nil registry must hand out nil histograms")
	}
	if hs := r.Snapshot().Histograms; hs != nil {
		t.Fatalf("nil registry snapshot has histograms: %+v", hs)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 100} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped
	s := h.snapshot()
	// le semantics: a value equal to a bound lands in that bound's bucket.
	want := []int64{2, 2, 2, 1} // (≤1)=0.5,1  (≤2)=1.5,2  (≤4)=3,4  (+Inf)=100
	if len(s.Counts) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(s.Counts), len(want))
	}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d: got %d want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Fatalf("Count %d, want 7", s.Count)
	}
	if got, want := s.Sum, 0.5+1+1.5+2+3+4+100; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Sum %g, want %g", got, want)
	}
}

func TestHistogramRegistryFirstRegistrationWins(t *testing.T) {
	r := New()
	a := r.HistogramWith("h", []float64{1, 2})
	b := r.HistogramWith("h", []float64{100})
	if a != b {
		t.Fatal("same name must return the same histogram")
	}
	if got := len(a.snapshot().Bounds); got != 2 {
		t.Fatalf("bounds overwritten: got %d, want the original 2", got)
	}
	if got := len(r.Histogram("d").snapshot().Bounds); got != len(DefaultDurationBuckets) {
		t.Fatalf("default buckets: got %d bounds, want %d", got, len(DefaultDurationBuckets))
	}
}

func TestHistogramConcurrentConsistency(t *testing.T) {
	h := newHistogram(DefaultDurationBuckets)
	const goroutines, per = 8, 2000
	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(g*i%97) / 10)
			}
		}(g)
	}
	// Snapshots taken while observers run must stay internally consistent:
	// Count equals the sum of bucket counts by construction, and never
	// exceeds the total that will eventually land.
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s := h.snapshot()
			var n int64
			for _, c := range s.Counts {
				n += c
			}
			if n != s.Count {
				t.Errorf("racing snapshot: bucket sum %d != Count %d", n, s.Count)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := h.snapshot().Count; got != goroutines*per {
		t.Fatalf("final Count %d, want %d", got, goroutines*per)
	}
}

func TestSnapshotIncludesHistograms(t *testing.T) {
	r := New()
	r.HistogramWith("lat", []float64{1}).Observe(0.5)
	s := r.Snapshot()
	hs, ok := s.Histograms["lat"]
	if !ok || hs.Count != 1 {
		t.Fatalf("snapshot missing histogram: %+v", s.Histograms)
	}
	if out := s.String(); !strings.Contains(out, "histograms:") || !strings.Contains(out, "lat") {
		t.Fatalf("String() missing histogram section:\n%s", out)
	}
	js, err := json.Marshal(s)
	if err != nil || !strings.Contains(string(js), `"histograms"`) {
		t.Fatalf("JSON missing histograms (err=%v):\n%s", err, js)
	}
}

package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := New()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Half the increments go through a pre-resolved handle, half
			// through registry lookup, exercising both access paths.
			c := r.Counter("shared")
			for i := 0; i < perWorker/2; i++ {
				c.Inc()
				r.Counter("shared").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Errorf("shared counter = %d, want %d", got, workers*perWorker)
	}
}

func TestGaugeSetMaxConcurrent(t *testing.T) {
	r := New()
	g := r.Gauge("peak")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i <= 500; i++ {
				g.SetMax(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if got := g.Value(); got != 7500 {
		t.Errorf("peak gauge = %d, want 7500", got)
	}
}

func TestTimer(t *testing.T) {
	r := New()
	tm := r.Timer("phase")
	tm.Observe(10 * time.Millisecond)
	tm.Observe(5 * time.Millisecond)
	stop := tm.Start()
	stop()
	if got := tm.Count(); got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
	if tm.Total() < 15*time.Millisecond {
		t.Errorf("total = %v, want >= 15ms", tm.Total())
	}
}

func TestSnapshotDeterminism(t *testing.T) {
	mk := func() *Registry {
		r := New()
		// Touch instruments in different orders to prove ordering comes
		// from the snapshot, not insertion.
		r.Counter("b.count").Add(2)
		r.Gauge("z.gauge").Set(7)
		r.Counter("a.count").Add(1)
		r.Timer("t.timer").Observe(time.Second)
		return r
	}
	r1, r2 := mk(), mk()
	s1, s2 := r1.Snapshot(), r2.Snapshot()
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("snapshots differ:\n%+v\n%+v", s1, s2)
	}
	if s1.String() != s2.String() {
		t.Errorf("renderings differ:\n%s\n%s", s1, s2)
	}
	text := s1.String()
	if strings.Index(text, "a.count") > strings.Index(text, "b.count") {
		t.Errorf("counters not sorted:\n%s", text)
	}
	// Repeated snapshots of an unchanged registry are identical.
	if !reflect.DeepEqual(s1, r1.Snapshot()) {
		t.Error("re-snapshot of unchanged registry differs")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("miner.candidates.fresh").Add(42)
	r.Gauge("miner.q.peak").Set(99)
	r.Timer("miner.time.total").Observe(1234 * time.Microsecond)
	s := r.Snapshot()

	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Errorf("round trip changed snapshot:\n%+v\n%+v", s, back)
	}
	// Marshaling is deterministic (encoding/json sorts map keys).
	again, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Error("JSON marshaling not deterministic")
	}
}

func TestSnapshotAccessors(t *testing.T) {
	r := New()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(4)
	s := r.Snapshot()
	if s.Counter("c") != 3 || s.Counter("absent") != 0 {
		t.Errorf("counter accessor: %d / %d", s.Counter("c"), s.Counter("absent"))
	}
	if s.Gauge("g") != 4 || s.Gauge("absent") != 0 {
		t.Errorf("gauge accessor: %d / %d", s.Gauge("g"), s.Gauge("absent"))
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	tm := r.Timer("x")
	if c != nil || g != nil || tm != nil {
		t.Fatal("nil registry must return nil handles")
	}
	c.Add(5)
	c.Inc()
	g.Set(1)
	g.SetMax(2)
	tm.Observe(time.Second)
	tm.Start()()
	if c.Value() != 0 || g.Value() != 0 || tm.Total() != 0 || tm.Count() != 0 {
		t.Error("nil handles must read as zero")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Timers) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}
	if s.String() != "" {
		t.Errorf("empty snapshot renders %q", s.String())
	}
}

// TestTimerConcurrentSpans hammers one timer with overlapping spans from
// many goroutines: the invocation count must be exact and the accumulated
// total at least the sum of the known sleep floors (spans overlap in wall
// time but accumulate independently).
func TestTimerConcurrentSpans(t *testing.T) {
	r := New()
	tm := r.Timer("phase")
	const workers, spans = 8, 25
	sleep := time.Millisecond
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < spans; i++ {
				// Alternate pre-resolved and registry-resolved handles, and
				// interleave explicit Observe with Start/stop spans.
				if i%2 == 0 {
					stop := tm.Start()
					time.Sleep(sleep)
					stop()
				} else {
					r.Timer("phase").Observe(sleep)
				}
			}
		}()
	}
	wg.Wait()
	if got := tm.Count(); got != workers*spans {
		t.Errorf("timer count = %d, want %d", got, workers*spans)
	}
	if min := time.Duration(workers*spans) * sleep; tm.Total() < min {
		t.Errorf("timer total = %v, want >= %v", tm.Total(), min)
	}
	snap := r.Snapshot()
	ts := snap.Timers["phase"]
	if ts.Count != workers*spans || time.Duration(ts.TotalNS) != tm.Total() {
		t.Errorf("snapshot timer %+v disagrees with live timer (%d, %v)",
			ts, tm.Count(), tm.Total())
	}
}

// TestSnapshotTimerDurationsRoundTrip pins that timer durations survive
// the JSON round trip exactly, at nanosecond precision, across several
// timers (the counter/gauge round trip is covered above).
func TestSnapshotTimerDurationsRoundTrip(t *testing.T) {
	r := New()
	durations := map[string]time.Duration{
		"miner.time.total":     12345678901 * time.Nanosecond,
		"miner.time.iteration": 987654321 * time.Nanosecond,
		"scorer.time.batch":    1 * time.Nanosecond,
	}
	for name, d := range durations {
		tm := r.Timer(name)
		tm.Observe(d)
		tm.Observe(d) // two spans: count 2, total 2d
	}
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for name, d := range durations {
		ts, ok := back.Timers[name]
		if !ok {
			t.Fatalf("timer %s lost in round trip", name)
		}
		if ts.Count != 2 || ts.TotalNS != 2*int64(d) {
			t.Errorf("%s round-tripped to %+v, want count 2 total %d", name, ts, 2*int64(d))
		}
	}
	// The rendered form carries the durations too.
	text := back.String()
	if !strings.Contains(text, "2 × ") {
		t.Errorf("rendered snapshot missing timer section:\n%s", text)
	}
}

// TestProvenance checks the build/host stamp: the runtime-derived fields
// are always present, and the stamped report serializes both sections.
func TestProvenance(t *testing.T) {
	p := CollectProvenance()
	if p.GoVersion == "" || p.GOOS == "" || p.GOARCH == "" {
		t.Errorf("runtime fields missing: %+v", p)
	}
	if p.GOMAXPROCS < 1 || p.NumCPU < 1 {
		t.Errorf("processor counts missing: %+v", p)
	}

	r := New()
	r.Counter("miner.seeds").Add(7)
	rep := NewReport(r.Snapshot())
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Provenance Provenance `json:"provenance"`
		Metrics    Snapshot   `json:"metrics"`
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Provenance.GoVersion != p.GoVersion {
		t.Errorf("provenance lost in round trip: %+v", back.Provenance)
	}
	if back.Metrics.Counter("miner.seeds") != 7 {
		t.Errorf("metrics lost in round trip: %+v", back.Metrics)
	}
}

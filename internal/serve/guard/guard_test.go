package guard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"trajpattern/internal/obs"
)

func TestNilAdmissionAdmitsEverything(t *testing.T) {
	var a *Admission
	release, err := a.Acquire(context.Background(), 100)
	if err != nil {
		t.Fatalf("nil Admission rejected: %v", err)
	}
	release()
	a.StartDrain()
	if a.Draining() || a.InFlight() != 0 || a.Queued() != 0 || a.Capacity() != 0 {
		t.Error("nil Admission accessors must return zero values")
	}
}

func TestAdmissionImmediate(t *testing.T) {
	a := NewAdmission(4, 2, time.Second)
	r1, err := a.Acquire(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.InFlight(); got != 3 {
		t.Fatalf("InFlight = %d, want 3", got)
	}
	r2, err := a.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	r1()
	r1() // double release must be a no-op
	r2()
	if got := a.InFlight(); got != 0 {
		t.Fatalf("InFlight after release = %d, want 0", got)
	}
}

func TestAdmissionWeightBelowOne(t *testing.T) {
	a := NewAdmission(2, 0, 0)
	release, err := a.Acquire(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if got := a.InFlight(); got != 1 {
		t.Fatalf("weight 0 admitted as %d units, want 1", got)
	}
}

func TestAdmissionShedsWhenQueueFull(t *testing.T) {
	a := NewAdmission(1, 1, 250*time.Millisecond)
	release, err := a.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	// Fill the single queue slot.
	queued := make(chan error, 1)
	go func() {
		r, err := a.Acquire(context.Background(), 1)
		if err == nil {
			defer r()
		}
		queued <- err
	}()
	waitFor(t, func() bool { return a.Queued() == 1 })

	// Queue is full: this one must shed with the typed error.
	_, err = a.Acquire(context.Background(), 1)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("queue-full Acquire = %v, want *ShedError", err)
	}
	if shed.RetryAfter != 250*time.Millisecond || shed.Queued != 1 || shed.MaxQueue != 1 {
		t.Errorf("ShedError fields = %+v", shed)
	}

	release()
	if err := <-queued; err != nil {
		t.Fatalf("queued waiter failed after release: %v", err)
	}
}

func TestAdmissionOverweightSheds(t *testing.T) {
	a := NewAdmission(2, 10, 0)
	_, err := a.Acquire(context.Background(), 3)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("overweight Acquire = %v, want *ShedError", err)
	}
	if !strings.Contains(shed.Error(), "exceeds capacity") {
		t.Errorf("reason not explained: %v", shed)
	}
}

func TestAdmissionFIFOHeadOfLine(t *testing.T) {
	// A heavy waiter queued first must not be starved by a light waiter
	// queued second, even when the light one would fit.
	a := NewAdmission(2, 10, 0)
	r0, err := a.Acquire(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}

	order := make(chan string, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		r, err := a.Acquire(context.Background(), 2)
		if err != nil {
			t.Errorf("heavy waiter: %v", err)
			return
		}
		order <- "heavy"
		r()
	}()
	waitFor(t, func() bool { return a.Queued() == 1 })
	go func() {
		defer wg.Done()
		r, err := a.Acquire(context.Background(), 1)
		if err != nil {
			t.Errorf("light waiter: %v", err)
			return
		}
		order <- "light"
		r()
	}()
	waitFor(t, func() bool { return a.Queued() == 2 })

	r0()
	wg.Wait()
	if first := <-order; first != "heavy" {
		t.Errorf("first grant went to %q, want heavy (FIFO)", first)
	}
}

func TestAdmissionCancelWhileQueued(t *testing.T) {
	a := NewAdmission(1, 10, 0)
	release, err := a.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	ctx, cancel := context.WithCancelCause(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx, 1)
		done <- err
	}()
	waitFor(t, func() bool { return a.Queued() == 1 })
	boom := errors.New("client went away")
	cancel(boom)
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("cancelled Acquire = %v, want cause %v", err, boom)
	}
	if a.Queued() != 0 {
		t.Error("cancelled waiter left in queue")
	}
	// Capacity must be intact: the next acquire succeeds after release.
	release()
	if r, err := a.Acquire(context.Background(), 1); err != nil {
		t.Fatalf("capacity leaked after cancellation: %v", err)
	} else {
		r()
	}
}

func TestAdmissionDrain(t *testing.T) {
	a := NewAdmission(1, 10, 0)
	release, err := a.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}

	queued := make(chan error, 1)
	go func() {
		_, err := a.Acquire(context.Background(), 1)
		queued <- err
	}()
	waitFor(t, func() bool { return a.Queued() == 1 })

	a.StartDrain()
	a.StartDrain() // idempotent
	var drain *DrainError
	if err := <-queued; !errors.As(err, &drain) {
		t.Fatalf("queued waiter during drain = %v, want *DrainError", err)
	}
	if _, err := a.Acquire(context.Background(), 1); !errors.As(err, &drain) {
		t.Fatalf("Acquire during drain = %v, want *DrainError", err)
	}
	// In-flight work is unaffected and still releases cleanly.
	if got := a.InFlight(); got != 1 {
		t.Fatalf("InFlight during drain = %d, want 1", got)
	}
	release()
	if got := a.InFlight(); got != 0 {
		t.Fatalf("InFlight after drained release = %d, want 0", got)
	}
}

func TestAdmissionUnlimitedCapacity(t *testing.T) {
	a := NewAdmission(0, 0, 0)
	var rs []func()
	for i := 0; i < 50; i++ {
		r, err := a.Acquire(context.Background(), 1000)
		if err != nil {
			t.Fatalf("unlimited capacity rejected at %d: %v", i, err)
		}
		rs = append(rs, r)
	}
	for _, r := range rs {
		r()
	}
	if a.InFlight() != 0 {
		t.Errorf("InFlight = %d, want 0", a.InFlight())
	}
}

func TestAdmissionConcurrentStress(t *testing.T) {
	a := NewAdmission(4, 64, 0)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var peak int64
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(w int64) {
			defer wg.Done()
			release, err := a.Acquire(context.Background(), w)
			if err != nil {
				t.Errorf("stress Acquire: %v", err)
				return
			}
			mu.Lock()
			if in := a.InFlight(); in > peak {
				peak = in
			}
			mu.Unlock()
			release()
		}(int64(i%3 + 1))
	}
	wg.Wait()
	if peak > 4 {
		t.Errorf("in-flight weight peaked at %d, capacity 4", peak)
	}
	if a.InFlight() != 0 {
		t.Errorf("InFlight after stress = %d, want 0", a.InFlight())
	}
}

func TestRecoverTurnsPanicInto500(t *testing.T) {
	var captured *PanicError
	h := Recover("/boom", func(pe *PanicError) { captured = pe },
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			panic("kaboom")
		}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if captured == nil {
		t.Fatal("panic not captured")
	}
	if captured.Route != "/boom" || captured.Value != "kaboom" {
		t.Errorf("PanicError = %+v", captured)
	}
	if !strings.Contains(captured.Stack, "guard_test.go") {
		t.Error("stack does not point at the panicking handler")
	}
	if !strings.Contains(captured.Error(), "/boom") {
		t.Errorf("Error() = %q, want route mentioned", captured.Error())
	}
}

func TestRecoverLeavesStartedResponseAlone(t *testing.T) {
	h := Recover("/partial", nil,
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{"partial":`)
			panic("mid-body")
		}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/partial", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status rewritten to %d after body started", rec.Code)
	}
	if strings.Contains(rec.Body.String(), "internal error") {
		t.Error("error text appended to a started response body")
	}
}

func TestRecoverRepanicsAbortHandler(t *testing.T) {
	h := Recover("/abort", nil,
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			panic(http.ErrAbortHandler)
		}))
	defer func() {
		if v := recover(); v != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want http.ErrAbortHandler re-panicked", v)
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/abort", nil))
}

func TestWithDeadlinePropagates(t *testing.T) {
	var deadlineSet bool
	var cause error
	h := WithDeadline("/v1/mine", 5*time.Millisecond,
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, deadlineSet = r.Context().Deadline()
			<-r.Context().Done()
			cause = context.Cause(r.Context())
		}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/mine", nil))
	if !deadlineSet {
		t.Fatal("no deadline on request context")
	}
	if cause == nil || !strings.Contains(cause.Error(), "/v1/mine") {
		t.Errorf("cancellation cause %v does not name the route", cause)
	}
}

func TestWithDeadlineZeroIsPassThrough(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := r.Context().Deadline(); ok {
			t.Error("deadline set despite d <= 0")
		}
	})
	WithDeadline("/x", 0, inner).
		ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/x", nil))
}

func TestStatusRecorder(t *testing.T) {
	rec := httptest.NewRecorder()
	sw := NewStatusRecorder(rec)
	if sw.Wrote() || sw.Status() != 0 {
		t.Error("fresh recorder claims a write")
	}
	if NewStatusRecorder(sw) != sw {
		t.Error("double wrap allocated a new recorder")
	}
	if _, err := sw.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	if !sw.Wrote() || sw.Status() != http.StatusOK {
		t.Errorf("implicit 200 not recorded: wrote=%v status=%d", sw.Wrote(), sw.Status())
	}
	sw.WriteHeader(http.StatusTeapot) // late WriteHeader must not change the record
	if sw.Status() != http.StatusOK {
		t.Errorf("late WriteHeader overwrote status: %d", sw.Status())
	}

	var nilSW *StatusRecorder
	if nilSW.Wrote() || nilSW.Status() != 0 {
		t.Error("nil recorder accessors must return zero values")
	}
	nilSW.WriteHeader(200)
	if _, err := nilSW.Write(nil); err == nil {
		t.Error("nil recorder Write must error, not panic")
	}
}

// waitFor polls until cond holds, failing the test after a bounded wait.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmissionQueueTelemetryUnderLoad(t *testing.T) {
	reg := obs.New()
	a := NewAdmission(1, 64, time.Millisecond)
	a.Instrument(AdmissionMetrics{
		Depth:    reg.Gauge("serve.queue.depth"),
		DepthMax: reg.Gauge("serve.queue.depth.max"),
		Wait:     reg.Histogram("serve.queue.wait"),
	})

	// Hold the only slot so every concurrent acquisition below must queue:
	// the high-water mark is then exact, not scheduling-dependent.
	hold, err := a.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := a.Acquire(context.Background(), 1)
			if err != nil {
				t.Errorf("queued acquire failed: %v", err)
				return
			}
			release()
		}()
	}
	waitFor(t, func() bool { return a.Queued() == n })
	hold()
	wg.Wait()

	snap := reg.Snapshot()
	// Every successful acquisition — the immediate holder plus the n queued
	// grants — observes the wait histogram exactly once.
	if got := snap.Histograms["serve.queue.wait"].Count; got != n+1 {
		t.Errorf("queue.wait count = %d, want %d", got, n+1)
	}
	if hw := snap.Gauges["serve.queue.depth.max"]; hw != n {
		t.Errorf("queue depth high-water = %d, want %d", hw, n)
	}
	if depth := snap.Gauges["serve.queue.depth"]; depth != 0 {
		t.Errorf("final queue depth = %d, want 0", depth)
	}
}

func TestAdmissionShedNotObservedInWait(t *testing.T) {
	reg := obs.New()
	a := NewAdmission(1, 0, time.Millisecond) // no queue: overflow sheds at once
	a.Instrument(AdmissionMetrics{Wait: reg.Histogram("serve.queue.wait")})

	release, err := a.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var shed *ShedError
	if _, err := a.Acquire(context.Background(), 1); !errors.As(err, &shed) {
		t.Fatalf("full admission returned %v, want *ShedError", err)
	}
	release()

	// Only the admitted acquisition was observed: a shed request never had
	// a queue wait, so it must not deflate the distribution.
	if got := reg.Snapshot().Histograms["serve.queue.wait"].Count; got != 1 {
		t.Errorf("queue.wait count = %d, want 1", got)
	}
}

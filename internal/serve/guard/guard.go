// Package guard implements the robustness core of the trajserve service:
// a weighted-semaphore admission controller with a bounded FIFO wait queue
// and typed load-shedding errors, per-route deadline propagation into the
// miner's context plumbing, a panic-to-500 recovery middleware with typed
// capture (mirroring core.ScorePanicError), and the building blocks of the
// two-stage SIGTERM drain.
//
// The package is mechanism only — it knows nothing about the service's
// JSON envelope or routes, so any handler can sit behind it. Every
// exported pointer-receiver method is a no-op on a nil receiver (the same
// contract as internal/obs and internal/trace, enforced by trajlint's
// nilguard): a nil *Admission admits everything, so callers hold an
// optional controller without guards.
package guard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"trajpattern/internal/obs"
)

// ShedError reports that a request was load-shed at admission: the wait
// queue is full, or the request can never fit the capacity. The HTTP layer
// maps it to 429 Too Many Requests with a Retry-After header, telling a
// client when to retry.
type ShedError struct {
	// Reason says why the request was shed ("wait queue full", ...).
	Reason string
	// Queued and MaxQueue report the queue state at the shed decision.
	Queued, MaxQueue int
	// RetryAfter is the server's backoff hint for the client.
	RetryAfter time.Duration
}

// Error implements error.
func (e *ShedError) Error() string {
	if e == nil {
		return "guard: overloaded"
	}
	return fmt.Sprintf("guard: overloaded: %s (queued %d/%d, retry after %v)",
		e.Reason, e.Queued, e.MaxQueue, e.RetryAfter)
}

// DrainError reports that the server is draining and accepts no new work.
// The HTTP layer maps it to 503 Service Unavailable.
type DrainError struct{}

// Error implements error.
func (e *DrainError) Error() string { return "guard: server draining" }

// waiter is one queued acquisition. ready is buffered so a grant or a
// drain notification never blocks the granting goroutine, even when the
// waiter has already abandoned the wait.
type waiter struct {
	weight int64
	ready  chan error
}

// Admission is a weighted-semaphore admission controller with a bounded
// FIFO wait queue. A request Acquires a weight (heavier routes reserve
// more of the capacity), waits queued if the semaphore is full, and is
// shed with a typed error when the queue itself is full — bounding both
// concurrency and queueing delay, the two quantities an overloaded server
// must not let grow without bound.
//
// All methods are safe for concurrent use; a nil *Admission admits
// everything immediately.
type Admission struct {
	mu         sync.Mutex
	capacity   int64 // <= 0 means unlimited
	maxQueue   int
	retryAfter time.Duration
	inflight   int64
	waiters    []*waiter
	draining   bool
	metrics    AdmissionMetrics
}

// AdmissionMetrics receives the controller's queue telemetry. Every
// handle is optional (each is nil-safe per the obs contract), so the zero
// value disables instrumentation entirely.
type AdmissionMetrics struct {
	// Depth tracks the current wait-queue length.
	Depth *obs.Gauge
	// DepthMax tracks the queue-length high-water mark (via SetMax).
	DepthMax *obs.Gauge
	// Wait observes the queue wait of every successful admission, in
	// seconds — immediate admissions observe ~0, so the histogram's count
	// equals the number of admitted acquisitions.
	Wait *obs.Histogram
}

// Instrument attaches telemetry handles to the controller. Call before
// serving traffic; a nil receiver is a no-op.
func (a *Admission) Instrument(m AdmissionMetrics) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.metrics = m
	a.mu.Unlock()
}

// noteQueueLocked publishes the current queue depth. Caller holds a.mu.
func (a *Admission) noteQueueLocked() {
	n := int64(len(a.waiters))
	a.metrics.Depth.Set(n)
	a.metrics.DepthMax.SetMax(n)
}

// NewAdmission returns a controller admitting up to capacity units of
// in-flight weight with at most maxQueue queued acquisitions. capacity
// <= 0 means unlimited (only draining rejects); maxQueue < 0 means an
// unbounded queue. retryAfter is the backoff hint carried by ShedErrors.
func NewAdmission(capacity int64, maxQueue int, retryAfter time.Duration) *Admission {
	return &Admission{capacity: capacity, maxQueue: maxQueue, retryAfter: retryAfter}
}

// Acquire admits weight units of work, waiting in FIFO order behind the
// bounded queue if the semaphore is full. It returns an idempotent release
// function on success. Failure is typed: *ShedError when the queue is full
// (or the weight can never fit), *DrainError when the controller is
// draining, and the context's cause when ctx ends while queued. weight < 1
// counts as 1.
func (a *Admission) Acquire(ctx context.Context, weight int64) (release func(), err error) {
	if a == nil {
		return func() {}, nil
	}
	if weight < 1 {
		weight = 1
	}
	start := time.Now()
	a.mu.Lock()
	wait := a.metrics.Wait
	if a.draining {
		a.mu.Unlock()
		return nil, &DrainError{}
	}
	if a.capacity <= 0 {
		a.inflight += weight
		a.mu.Unlock()
		wait.ObserveDuration(time.Since(start))
		return a.releaseFunc(weight), nil
	}
	if weight > a.capacity {
		a.mu.Unlock()
		return nil, &ShedError{
			Reason:     fmt.Sprintf("weight %d exceeds capacity %d", weight, a.capacity),
			MaxQueue:   a.maxQueue,
			RetryAfter: a.retryAfter,
		}
	}
	// Admit immediately only when no one is queued ahead: capacity that
	// frees up belongs to the queue head, or FIFO order would starve
	// heavy requests.
	if len(a.waiters) == 0 && a.inflight+weight <= a.capacity {
		a.inflight += weight
		a.mu.Unlock()
		wait.ObserveDuration(time.Since(start))
		return a.releaseFunc(weight), nil
	}
	if a.maxQueue >= 0 && len(a.waiters) >= a.maxQueue {
		queued := len(a.waiters)
		a.mu.Unlock()
		return nil, &ShedError{
			Reason:     "wait queue full",
			Queued:     queued,
			MaxQueue:   a.maxQueue,
			RetryAfter: a.retryAfter,
		}
	}
	w := &waiter{weight: weight, ready: make(chan error, 1)}
	a.waiters = append(a.waiters, w)
	a.noteQueueLocked()
	a.mu.Unlock()

	select {
	case gerr := <-w.ready:
		if gerr != nil {
			return nil, gerr
		}
		wait.ObserveDuration(time.Since(start))
		return a.releaseFunc(weight), nil
	case <-ctx.Done():
		a.mu.Lock()
		for i, x := range a.waiters {
			if x == w {
				a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
				a.noteQueueLocked()
				a.mu.Unlock()
				return nil, fmt.Errorf("guard: admission wait: %w", context.Cause(ctx))
			}
		}
		a.mu.Unlock()
		// No longer queued: a grant or drain notice raced the
		// cancellation. Consume it so an already-granted slot is not
		// leaked.
		if gerr := <-w.ready; gerr == nil {
			a.release(weight)
		}
		return nil, fmt.Errorf("guard: admission wait: %w", context.Cause(ctx))
	}
}

// releaseFunc wraps release in a sync.Once so double-releasing a slot (a
// handler bug) cannot corrupt the accounting.
func (a *Admission) releaseFunc(weight int64) func() {
	var once sync.Once
	return func() { once.Do(func() { a.release(weight) }) }
}

// release returns weight units and grants queued waiters in FIFO order
// while they fit. The grant loop stops at the first waiter that does not
// fit — deliberate head-of-line fairness, so a heavy request queued first
// is never starved by lighter requests slipping past it.
func (a *Admission) release(weight int64) {
	a.mu.Lock()
	a.inflight -= weight
	granted := false
	for len(a.waiters) > 0 {
		w := a.waiters[0]
		if a.capacity > 0 && a.inflight+w.weight > a.capacity {
			break
		}
		a.inflight += w.weight
		a.waiters = a.waiters[1:]
		granted = true
		w.ready <- nil
	}
	if granted {
		a.noteQueueLocked()
	}
	a.mu.Unlock()
}

// StartDrain flips the controller into draining: every queued waiter
// fails with *DrainError now, and every future Acquire is rejected the
// same way. In-flight work is unaffected — it releases normally, which is
// what the two-stage shutdown waits for. StartDrain is idempotent.
func (a *Admission) StartDrain() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.draining = true
	ws := a.waiters
	a.waiters = nil
	a.noteQueueLocked()
	a.mu.Unlock()
	for _, w := range ws {
		w.ready <- &DrainError{}
	}
}

// Draining reports whether StartDrain has been called (false on nil).
func (a *Admission) Draining() bool {
	if a == nil {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.draining
}

// InFlight returns the admitted weight currently held (0 on nil).
func (a *Admission) InFlight() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight
}

// Queued returns the number of acquisitions waiting (0 on nil).
func (a *Admission) Queued() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.waiters)
}

// Capacity returns the configured capacity (0 on nil).
func (a *Admission) Capacity() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.capacity
}

package shard

import (
	"sync"
	"time"

	"trajpattern/internal/obs"
)

// poolMetrics carries the optional utilization telemetry of one runTasks
// call. Every handle may be nil (nil-safe per the obs contract); the zero
// value disables collection entirely, which is what tests and metric-less
// runs pass.
//
// Steal counts are scheduling-dependent — which worker drains which deque
// varies run to run — so "shard.pool.*" counters are excluded from the
// deterministic bench-gate comparison (cli.nondeterministicFragments),
// like the scorer's per-worker counters.
type poolMetrics struct {
	steals *obs.Counter   // tasks taken from a peer's deque
	busy   *obs.Timer     // time inside tasks, one observation per task
	idle   *obs.Timer     // per-worker wall time not spent inside tasks
	task   *obs.Histogram // per-task duration distribution
}

// newPoolMetrics resolves the pool's handles on a registry (all nil on a
// nil registry, disabling collection).
func newPoolMetrics(r *obs.Registry) poolMetrics {
	return poolMetrics{
		steals: r.Counter("shard.pool.steals"),
		busy:   r.Timer("shard.pool.busy"),
		idle:   r.Timer("shard.pool.idle"),
		task:   r.Histogram("shard.pool.task"),
	}
}

// runTasks executes a fixed batch of independent tasks on up to `workers`
// goroutines using work-stealing deques: task i is dealt to deque i mod w,
// each worker drains its own deque from the back (LIFO keeps the freshly
// dealt work warm), and an idle worker steals from the front of its peers'
// deques (FIFO takes the oldest — largest remaining — job first), scanning
// peers in a fixed round-robin order starting at its right neighbour.
//
// Shard mining jobs are coarse and their durations skew with the data
// partition, so stealing is what keeps late workers from idling while one
// deque still holds queued shards (16 shards on 4 cores, say).
// Tasks only ever write to their own result slot, so the stealing order —
// the one scheduling-dependent choice here — cannot affect any output.
func runTasks(workers int, tasks []func(), pm poolMetrics) {
	if len(tasks) == 0 {
		return
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		for _, t := range tasks {
			runTask(t, pm)
		}
		return
	}

	d := &deques{queues: make([][]int, workers)}
	for i := range tasks {
		w := i % workers
		d.queues[w] = append(d.queues[w], i)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			workerStart := time.Now() //trajlint:allow determinism -- busy/idle utilization telemetry only; never part of the mined result
			var busy time.Duration
			for {
				i, stolen, ok := d.next(self)
				if !ok {
					break
				}
				if stolen {
					pm.steals.Inc()
				}
				busy += runTask(tasks[i], pm)
			}
			// Idle is the worker's wall time minus its task time: the
			// mutex waits, steal scans and scheduler gaps a skewed
			// partition turns into wasted parallelism.
			pm.idle.Observe(time.Since(workerStart) - busy) //trajlint:allow determinism -- worker idle telemetry only; never part of the mined result
		}(w)
	}
	wg.Wait()
}

// runTask runs one task under the pool's duration instrumentation and
// returns its duration.
func runTask(t func(), pm poolMetrics) time.Duration {
	start := time.Now() //trajlint:allow determinism -- task-duration telemetry only; never part of the mined result
	t()
	d := time.Since(start) //trajlint:allow determinism -- task-duration telemetry only; never part of the mined result
	pm.busy.Observe(d)
	pm.task.ObserveDuration(d)
	return d
}

// deques is the shared work-stealing state of one runTasks call. One
// mutex guards all queues: the tasks are coarse (whole shard searches),
// so queue operations are far off any hot path and coarse locking keeps
// the invariants trivial.
type deques struct {
	mu     sync.Mutex
	queues [][]int
}

// next returns the next task index for worker self: the back of its own
// deque, else the front of the first non-empty peer deque in round-robin
// scan order (stolen is true for the latter). ok is false when every
// deque is empty.
func (d *deques) next(self int) (task int, stolen, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if q := d.queues[self]; len(q) > 0 {
		task = q[len(q)-1]
		d.queues[self] = q[:len(q)-1]
		return task, false, true
	}
	n := len(d.queues)
	for off := 1; off < n; off++ {
		victim := (self + off) % n
		if q := d.queues[victim]; len(q) > 0 {
			task = q[0]
			d.queues[victim] = q[1:]
			return task, true, true
		}
	}
	return 0, false, false
}

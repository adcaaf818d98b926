// Package shard partitions a trajectory dataset across N shards, runs the
// TrajPattern seed-and-grow search per shard on a work-stealing worker
// pool, and merges the per-shard candidate sets into a global top-k under
// the paper's min-max property (PAPER.md §4): a pattern's global NM is the
// sum of its per-shard NMs, so per-shard upper bounds give a sound global
// prune. DESIGN.md ("Sharded mining") maps the merge rule to the paper.
//
// The package threads the single-partition runtime contracts through the
// new layer: context cancellation degrades to a best-so-far answer
// (Result.Interrupted), per-shard obs counters land under "shard.NN.*",
// and trace spans cover the run, each shard's search, and the merge. The
// engine neither writes nor resumes checkpoints.
package shard

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"trajpattern/internal/core"
	"trajpattern/internal/obs"
	"trajpattern/internal/trace"
	"trajpattern/internal/traj"
)

// Engine mines a dataset in N contiguous partitions. Build one with
// NewEngine and reuse it across runs: the per-shard scorers keep their
// log-probability caches warm, exactly like a single core.Scorer does.
type Engine struct {
	full    *core.Scorer
	scorers []*core.Scorer // one per shard; nil when shards == 1
	sizes   []int          // trajectories per shard, for spans and stats
	workers int            // concurrent shard searches (pool width)
}

// NewEngine partitions the scorer's dataset into `shards` contiguous
// slices of near-equal trajectory count (sizes differ by at most one) and
// builds one scorer per shard. shards <= 0 means GOMAXPROCS; the count is
// clamped to the number of trajectories so every shard holds data.
//
// With one shard the engine delegates to core.Mine on the original scorer
// unchanged — same counters, byte-identical results.
//
// The per-shard scorers split the full scorer's worker budget (at least
// one each) and share its metrics registry and tracer: scorer-level
// counters stay aggregated under their usual "scorer.*" names, while the
// engine runs up to min(shards, Workers) shard searches concurrently.
func NewEngine(s *core.Scorer, shards int) (*Engine, error) {
	if s == nil {
		return nil, fmt.Errorf("shard: nil scorer")
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	data := s.Dataset()
	if shards > len(data) {
		shards = len(data)
	}
	if shards < 1 {
		shards = 1
	}
	cfg := s.Config()
	e := &Engine{full: s, workers: shards}
	if cfg.Workers < e.workers {
		e.workers = cfg.Workers
	}
	if e.workers < 1 {
		e.workers = 1
	}
	if shards == 1 {
		e.sizes = []int{len(data)}
		return e, nil
	}
	scfg := cfg
	scfg.Workers = cfg.Workers / shards
	if scfg.Workers < 1 {
		scfg.Workers = 1
	}
	e.scorers = make([]*core.Scorer, shards)
	e.sizes = make([]int, shards)
	lo := 0
	for i := 0; i < shards; i++ {
		// First (len%shards) shards take one extra trajectory.
		size := len(data) / shards
		if i < len(data)%shards {
			size++
		}
		part := data[lo : lo+size]
		sc, err := core.NewScorer(append(traj.Dataset{}, part...), scfg)
		if err != nil {
			return nil, fmt.Errorf("shard %d/%d: %w", i, shards, err)
		}
		e.scorers[i] = sc
		e.sizes[i] = size
		lo += size
	}
	return e, nil
}

// Shards returns the effective shard count (after clamping).
func (e *Engine) Shards() int { return len(e.sizes) }

// Result is the output of a sharded Mine call. Patterns and the
// interruption fields mirror core.Result; the stats break the work down
// per shard and report what the merge did.
type Result struct {
	// Patterns holds the global top-k, best first, under the same
	// deterministic order as core.Mine (NM descending, length ascending,
	// key ascending). The NM values are exact sums over all shards,
	// accumulated in fixed shard order.
	Patterns []core.ScoredPattern
	// Interrupted reports that at least one shard stopped early (context
	// ended or MaxIters reached) or that the merge's rescoring was
	// cancelled. Patterns still holds the best answer derivable from the
	// completed work — graceful degradation, not an error.
	Interrupted bool
	// InterruptReason is the first interrupted shard's reason (by shard
	// index), or the merge's; empty when Interrupted is false.
	InterruptReason string
	// Shards is the effective shard count of the run.
	Shards int
	// PerShard holds each shard's miner statistics, indexed by shard.
	PerShard []core.MinerStats
	// Total is the field-wise sum of PerShard (MaxQ is the maximum).
	Total core.MinerStats
	// Merge reports the candidate-merging work.
	Merge MergeStats
}

// Mine runs the sharded search: every shard mines its partition with the
// given configuration (Seeds defaulting to the FULL dataset's observed
// cells, so every shard scores the same singular set and the merge bound
// below is always available), then the per-shard candidate sets are
// merged into the global top-k.
//
// The engine neither writes nor resumes checkpoints: resume must be nil,
// and cfg must leave CheckpointPath and Resume unset. ctx bounds every
// shard's search and the merge.
func (e *Engine) Mine(ctx context.Context, cfg core.MinerConfig, resume []*core.Checkpoint) (*Result, error) {
	if resume != nil || cfg.Resume != nil || cfg.CheckpointPath != "" {
		return nil, fmt.Errorf("shard: the engine neither writes nor resumes checkpoints")
	}
	n := e.Shards()
	if n == 1 {
		res, err := core.Mine(ctx, e.full, cfg)
		if err != nil {
			return nil, err
		}
		return &Result{
			Patterns:        res.Patterns,
			Interrupted:     res.Interrupted,
			InterruptReason: res.InterruptReason,
			Shards:          1,
			PerShard:        []core.MinerStats{res.Stats},
			Total:           res.Stats,
		}, nil
	}

	seeds := cfg.Seeds
	if seeds == nil {
		seeds = e.full.ObservedCells(1)
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("shard: no seed cells")
	}

	parent := cfg.Metrics
	tl := cfg.Tracer.Local()
	var runSpan *trace.Span
	if tl != nil {
		attrs := trace.Attrs{"shards": n, "k": cfg.K, "seeds": len(seeds)}
		if id := trace.RequestIDFrom(ctx); id != "" {
			attrs["request_id"] = id
		}
		runSpan = tl.Span("shard.run", attrs)
	}
	defer runSpan.End()

	// OnProgress callbacks arrive from concurrent shard searches; the
	// single-partition contract is one caller at a time, so serialize.
	progress := cfg.OnProgress
	if progress != nil {
		var mu sync.Mutex
		orig := progress
		progress = func(p core.Progress) {
			mu.Lock()
			defer mu.Unlock()
			orig(p)
		}
	}

	results := make([]*core.Result, n)
	errs := make([]error, n)
	regs := make([]*obs.Registry, n)
	tasks := make([]func(), n)
	for i := 0; i < n; i++ {
		i := i
		tasks[i] = func() {
			sc := cfg
			sc.Seeds = seeds
			sc.OnProgress = progress
			sc.CaptureFinalState = true
			if parent != nil {
				regs[i] = obs.New()
				sc.Metrics = regs[i]
			} else {
				sc.Metrics = nil
			}
			var sp *trace.Span
			if tl != nil {
				sp = tl.Span("shard.mine", trace.Attrs{"shard": i, "trajectories": e.sizes[i]})
			}
			results[i], errs[i] = core.Mine(ctx, e.scorers[i], sc)
			if r := results[i]; r != nil {
				sp.Attr("iterations", r.Stats.Iterations).Attr("q_final", len(qKeys(r)))
				if r.Interrupted {
					sp.Attr("interrupted", r.InterruptReason)
				}
			}
			sp.End()
		}
	}
	runTasks(e.workers, tasks, newPoolMetrics(parent))

	res := &Result{Shards: n, PerShard: make([]core.MinerStats, n)}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, fmt.Errorf("shard %d/%d: %w", i, n, errs[i])
		}
		r := results[i]
		res.PerShard[i] = r.Stats
		res.Total.Iterations += r.Stats.Iterations
		res.Total.Candidates += r.Stats.Candidates
		res.Total.Pruned += r.Stats.Pruned
		res.Total.LowCapped += r.Stats.LowCapped
		res.Total.NMEvaluations += r.Stats.NMEvaluations
		if r.Stats.MaxQ > res.Total.MaxQ {
			res.Total.MaxQ = r.Stats.MaxQ
		}
		if r.Interrupted && !res.Interrupted {
			res.Interrupted = true
			res.InterruptReason = fmt.Sprintf("shard %d: %s", i, r.InterruptReason)
		}
		if parent != nil {
			flushPrefixed(parent, fmt.Sprintf("shard.%02d.", i), regs[i].Snapshot())
		}
	}

	states := make([]*core.Checkpoint, n)
	for i, r := range results {
		states[i] = r.FinalState // empty when shard i was cancelled before seeding
	}
	patterns, mstats, mreason, err := e.merge(ctx, cfg, states, parent, tl)
	if err != nil {
		return nil, err
	}
	res.Patterns = patterns
	res.Merge = mstats
	if mreason != "" && !res.Interrupted {
		res.Interrupted = true
		res.InterruptReason = mreason
	}
	if res.Interrupted {
		runSpan.Attr("interrupted", res.InterruptReason)
	}
	runSpan.Attr("candidates", mstats.Candidates).Attr("patterns", len(patterns))
	return res, nil
}

// qKeys returns the candidate keys a finished shard carried in Q, or nil
// for a shard cancelled before any state existed.
func qKeys(r *core.Result) []string {
	if r.FinalState == nil {
		return nil
	}
	return r.FinalState.Q
}

// flushPrefixed folds a per-shard metrics snapshot into the parent
// registry under the given prefix. Counters add and gauges set, so
// repeated runs accumulate exactly like the single-partition miner's
// counters do. Timers are skipped: their durations are wall-clock noise,
// and the bench gate only compares counters and gauges.
func flushPrefixed(parent *obs.Registry, prefix string, snap obs.Snapshot) {
	for _, name := range sortedNames(snap.Counters) {
		parent.Counter(prefix + name).Add(snap.Counters[name])
	}
	for _, name := range sortedNames(snap.Gauges) {
		parent.Gauge(prefix + name).Set(snap.Gauges[name])
	}
}

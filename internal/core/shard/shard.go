// Package shard partitions a trajectory dataset across N shards, runs the
// TrajPattern seed-and-grow search on each shard in its own goroutine, and
// merges the per-shard candidate sets into the global top-k under the
// paper's min-max property (PAPER.md §4): a pattern's global NM is the sum
// of its per-shard NMs, so per-shard upper bounds give a sound global
// prune. DESIGN.md ("Sharded mining") maps the merge rule to the paper.
//
// A cancelled context degrades to a best-so-far answer
// (Result.Interrupted). The engine neither writes nor resumes checkpoints
// and keeps no metrics of its own.
package shard

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"trajpattern/internal/core"
	"trajpattern/internal/traj"
)

// Engine mines a dataset in N contiguous partitions. Build one with
// NewEngine and reuse it across runs: the per-shard scorers keep their
// log-probability caches warm, exactly like a single core.Scorer does.
type Engine struct {
	full    *core.Scorer
	scorers []*core.Scorer // one per shard; nil when the engine has one shard
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
// one each) and share its metrics registry and tracer, so scorer-level
// counters stay aggregated under their usual "scorer.*" names.
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
	e := &Engine{full: s}
	if shards <= 1 {
		return e, nil
	}
	scfg := s.Config()
	scfg.Workers = max(scfg.Workers/shards, 1)
	e.scorers = make([]*core.Scorer, shards)
	lo := 0
	for i := range e.scorers {
		// First (len%shards) shards take one extra trajectory.
		size := len(data) / shards
		if i < len(data)%shards {
			size++
		}
		sc, err := core.NewScorer(append(traj.Dataset{}, data[lo:lo+size]...), scfg)
		if err != nil {
			return nil, fmt.Errorf("shard %d/%d: %w", i, shards, err)
		}
		e.scorers[i] = sc
		lo += size
	}
	return e, nil
}

// Result is the output of a sharded Mine call. Its fields mirror
// core.Result's.
type Result struct {
	// Patterns holds the global top-k, best first, in core.Mine's order
	// (core.CompareRank). The NM values are exact sums over all shards,
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
}

// Mine runs the sharded search: every shard mines its partition with the
// given configuration (Seeds defaulting to the FULL dataset's observed
// cells, so every shard scores the same singular set and the merge bound
// is always available), then the per-shard candidate sets are merged into
// the global top-k.
//
// The shard searches run with cfg.Metrics and cfg.OnProgress unset; their
// scorers still count into the full scorer's registry. The engine neither
// writes nor resumes checkpoints: resume must be nil, and cfg must leave
// CheckpointPath and Resume unset. ctx bounds every shard's search and the
// merge.
func (e *Engine) Mine(ctx context.Context, cfg core.MinerConfig, resume []*core.Checkpoint) (*Result, error) {
	if resume != nil || cfg.Resume != nil || cfg.CheckpointPath != "" {
		return nil, fmt.Errorf("shard: the engine neither writes nor resumes checkpoints")
	}
	if e.scorers == nil {
		res, err := core.Mine(ctx, e.full, cfg)
		if err != nil {
			return nil, err
		}
		return &Result{Patterns: res.Patterns, Interrupted: res.Interrupted, InterruptReason: res.InterruptReason}, nil
	}

	sc := cfg
	if sc.Seeds == nil {
		sc.Seeds = e.full.ObservedCells(1)
	}
	if len(sc.Seeds) == 0 {
		return nil, fmt.Errorf("shard: no seed cells")
	}
	sc.CaptureFinalState = true
	sc.Metrics = nil
	sc.OnProgress = nil

	n := len(e.scorers)
	results := make([]*core.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, s := range e.scorers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = core.Mine(ctx, s, sc)
		}()
	}
	wg.Wait()

	res := &Result{}
	states := make([]*core.Checkpoint, n)
	for i, r := range results {
		if errs[i] != nil {
			return nil, fmt.Errorf("shard %d/%d: %w", i, n, errs[i])
		}
		states[i] = r.FinalState // empty when shard i was cancelled before seeding
		if r.Interrupted && !res.Interrupted {
			res.Interrupted = true
			res.InterruptReason = fmt.Sprintf("shard %d: %s", i, r.InterruptReason)
		}
	}
	patterns, reason, err := e.merge(ctx, cfg, states)
	if err != nil {
		return nil, err
	}
	res.Patterns = patterns
	if reason != "" && !res.Interrupted {
		res.Interrupted = true
		res.InterruptReason = reason
	}
	return res, nil
}

package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"trajpattern/internal/faultio"
	"trajpattern/internal/obs"
	"trajpattern/internal/trace"
)

// MinerConfig parameterizes the TrajPattern algorithm (Section 4).
type MinerConfig struct {
	// K is the number of patterns to mine (top-k by NM). Required.
	K int
	// MinLen, when > 1, activates the Section 5 variant that returns the
	// top-k patterns of length at least MinLen. Zero or one means no
	// constraint; a negative value is refused.
	//
	// Deviation from the paper, documented in DESIGN.md: §5 re-defines
	// the high threshold ω as the kth best NM among patterns of length
	// ≥ MinLen, which floods the high set (almost every pattern exceeds
	// that much lower ω) and makes the candidate volume quadratic in the
	// whole pattern set. This implementation instead keeps the base
	// algorithm's ω (kth best over all patterns) for high/low labeling —
	// so |H| stays ≈ K — while separately tracking the running top-k
	// answer among length-≥-MinLen patterns; the answer set is protected
	// from pruning and always eligible for extension, and the loop runs
	// until both the high set and the answer set are stable.
	MinLen int
	// MaxLen caps the length of generated candidates. The paper observes
	// that qualified patterns are much shorter than trajectories; the cap
	// bounds the doubling growth of concatenation. Zero means
	// DefaultMaxLen.
	MaxLen int
	// MaxIters bounds the number of grow iterations as a safety net on
	// top of the termination test; a run it stops is reported as
	// interrupted. Zero means DefaultMaxIters.
	MaxIters int
	// MaxLowQ caps how many low 1-extension patterns are retained in Q
	// as extension partners, keeping the best by NM. The paper retains
	// all of them (O(kG), which with its O(k²G) candidate volume per
	// iteration is impractical at the paper's own k = 1000); a cap of a
	// few multiples of K preserves the useful partners. Zero means 4·K;
	// negative means unlimited (the paper's literal rule).
	MaxLowQ int
	// DisablePrune keeps all low patterns in Q instead of removing those
	// failing the 1-extension property, and proposes every (high, Q)
	// concatenation, including those the LM bound rules out — the A1
	// ablation, the paper's literal search. The MaxLowQ cap still applies
	// unless MaxLowQ is negative.
	DisablePrune bool
	// Seeds is the set of singular-pattern cells to start from. Nil means
	// Scorer.ObservedCells(1): every cell holding data plus one ring,
	// which contains all cells that can appear in a top-k pattern unless
	// the floor dominates. Use Scorer.AllCells for the paper's literal
	// seeding on small grids.
	Seeds []int
	// Metrics, when non-nil, receives per-run miner instrumentation
	// (candidate, prune and set-size accounting under "miner.*" names —
	// see DESIGN.md for the name-to-paper-quantity map). Nil disables
	// collection at the cost of one nil check per event.
	Metrics *obs.Registry
	// Tracer, when non-nil, records the run's timeline: a "miner.run"
	// span, one "miner.iteration" span per grow iteration, and one
	// "miner.candidate.{admitted,readmitted,pruned}" event per candidate
	// with its pattern key, NM value and iteration (see DESIGN.md for the
	// span/event-to-§4-phase map). Nil disables tracing at the cost of one
	// nil check per site.
	Tracer *trace.Tracer
	// OnProgress, when non-nil, is invoked once per iteration that
	// MinerStats.Iterations counts, with the miner's live state: after
	// candidate generation and pruning, or, for the last pass of a run
	// that terminates on its own, after the termination test that ends
	// it. It runs on the mining goroutine — keep it fast (the commands'
	// -progress prints one line per call).
	OnProgress func(Progress)
	// CheckpointPath, when non-empty, makes the miner persist a
	// crash-safe snapshot of its state (see Checkpoint) after every
	// completed grow iteration, so the path holds the last completed
	// boundary whether the run terminates, hits MaxIters or is
	// interrupted. Writes are atomic (temp file + fsync + rename) with a
	// CRC trailer, so the path always holds a complete, verifiable
	// checkpoint.
	CheckpointPath string
	// Resume, when non-nil, restores the miner's state from a previous
	// run's checkpoint instead of seeding from scratch. The checkpoint's
	// fingerprint must match this run's configuration and dataset.
	// Because checkpoints are taken only at iteration boundaries, a
	// resumed run replays the remaining iterations exactly and its final
	// answer is identical to the uninterrupted run's.
	Resume *Checkpoint
	// CheckpointFS overrides the filesystem used for checkpoint writes;
	// nil means the real OS. Tests inject a *faultio.Faults to prove
	// crash-safety.
	CheckpointFS faultio.FS
	// CaptureFinalState, when set, makes Mine attach its terminal
	// boundary state (Q, the full NM memo, and the stability witnesses)
	// to Result.FinalState in checkpoint form. The sharded merge reads
	// per-shard memos from it instead of re-deriving them from disk.
	CaptureFinalState bool
}

// Progress is the point-in-time view of a running Mine call handed to
// MinerConfig.OnProgress.
type Progress struct {
	Iteration  int           // 1-based iteration just finished, as MinerStats.Iterations counts
	MaxIters   int           // the MaxIters bound (after defaults)
	QSize      int           // |Q| after pruning
	HighSize   int           // |H| at the last labeling
	AnswerSize int           // running answer-set size (≤ K)
	K          int           // patterns wanted
	Candidates int           // cumulative candidates NM-evaluated (incl. seeds)
	Elapsed    time.Duration // wall time since Mine started
}

// Defaults for MinerConfig.
const (
	DefaultMaxLen   = 24
	DefaultMaxIters = 64
)

// highCapPerK caps the high set used for candidate generation at
// highCapPerK·K patterns (DESIGN §4, deviation 2). The paper labels every
// pattern with NM >= ω as high; when many patterns tie at ω — which is
// guaranteed once δ is large enough that whole regions have probability 1
// and NM 0 — that rule floods H and the candidate volume explodes
// combinatorially. The cap keeps the best patterns in deterministic order,
// plus the protected answer set.
const highCapPerK = 4

// boundSlack is the relative slack by which a pair's LM bound must fall
// below ω before candidate generation skips it, so rounding in the bound
// never drops a concatenation whose NM ties ω.
const boundSlack = 1e-9

func (c MinerConfig) withDefaults() MinerConfig {
	if c.MaxLen == 0 {
		c.MaxLen = DefaultMaxLen
	}
	if c.MaxIters == 0 {
		c.MaxIters = DefaultMaxIters
	}
	if c.MinLen < 1 {
		c.MinLen = 1
	}
	if c.MaxLowQ == 0 {
		c.MaxLowQ = 4 * c.K
	}
	return c
}

// Validate rejects miner configurations up front with typed *ConfigError
// values, so CLIs and trajserve surface a clean caller-error message
// instead of a deep panic or silent garbage. Mine runs it first.
func (c MinerConfig) Validate() error {
	if c.K <= 0 {
		return cfgErr("MinerConfig", "K", "must be > 0, got %d", c.K)
	}
	if c.MinLen < 0 {
		return cfgErr("MinerConfig", "MinLen", "must be >= 0, got %d", c.MinLen)
	}
	if c.MaxLen < 0 {
		return cfgErr("MinerConfig", "MaxLen", "must be >= 0, got %d", c.MaxLen)
	}
	if c.MaxIters < 0 {
		return cfgErr("MinerConfig", "MaxIters", "must be >= 0, got %d", c.MaxIters)
	}
	if c.Resume != nil && c.Resume.Version != CheckpointVersion {
		return fmt.Errorf("core: resume checkpoint version %d, want %d", c.Resume.Version, CheckpointVersion)
	}
	if maxLen := c.withDefaults().MaxLen; c.MinLen > maxLen {
		return cfgErr("MinerConfig", "MinLen", "%d exceeds MaxLen %d", c.MinLen, maxLen)
	}
	return nil
}

// MinerStats reports the work done by one Mine call.
type MinerStats struct {
	// Iterations counts the iterations begun: each grow iteration, and
	// the last pass of a run that terminates on its own, which runs only
	// the termination test. OnProgress fires once for each that completes.
	Iterations    int
	Candidates    int // candidate patterns whose NM was evaluated
	MaxQ          int // peak size of the pattern set Q
	Pruned        int // low patterns removed by the 1-extension test
	LowCapped     int // low patterns removed by the MaxLowQ cap
	NMEvaluations int // total NM computations (including seeds)
}

// Result is the output of Mine.
type Result struct {
	// Patterns holds the k patterns with the highest NM (among those of
	// length >= MinLen), best first. Ties break toward shorter patterns,
	// then lexicographic cell order, so results are deterministic.
	Patterns []ScoredPattern
	Stats    MinerStats
	// Interrupted reports that the run stopped before the algorithm's
	// own termination test fired: the context ended or MaxIters was
	// reached. Patterns then holds the answer of the last completed
	// iteration boundary, a valid best-so-far top-k — graceful
	// degradation, not an error.
	Interrupted bool
	// InterruptReason says why the run was interrupted (the context's
	// cause, such as "context canceled", or "max iterations 3 reached");
	// empty when Interrupted is false.
	InterruptReason string
	// FinalState is the terminal boundary snapshot of the run (Q, the
	// NM memo, stability witnesses), present only when
	// MinerConfig.CaptureFinalState was set. The sharded merge consumes
	// it; it is never written to disk by Mine itself.
	FinalState *Checkpoint
}

// entry is Q's record of one pattern.
type entry struct {
	pat Pattern
	key string
	nm  float64
}

// labeling is one iteration boundary's view of Q: the high set (paper ω =
// Kth best NM over all of Q, plus the protected top-K answer patterns of
// length >= MinLen) and the answer set, best first.
type labeling struct {
	high    []*entry
	highKey map[string]struct{}
	ans     []*entry
	ansKey  map[string]struct{}
	omega   float64 // the Kth best NM in Q, -Inf while Q holds fewer than K
	capped  int     // patterns with NM >= ω that the cap left out of the high set
}

// minerMetrics holds the resolved obs handles of one Mine call. All fields
// are nil when MinerConfig.Metrics is nil; obs handles treat nil receivers
// as no-ops, so call sites need no guards.
type minerMetrics struct {
	iterations *obs.Counter // grow iterations executed
	seeds      *obs.Counter // singular seed patterns evaluated
	fresh      *obs.Counter // never-seen candidates evaluated (NM computed)
	readmitted *obs.Counter // previously pruned patterns re-inserted from the memo
	prunedExt  *obs.Counter // low patterns removed by the 1-extension test
	prunedCap  *obs.Counter // low patterns removed by the MaxLowQ cap
	retained   *obs.Counter // patterns left in Q at the end of a run; across
	// any number of runs, retained = seeds + fresh + readmitted − pruned
	highCapped    *obs.Counter // high-set entries dropped by the high-set cap
	pairsSkipped  *obs.Counter // (high, Q) pairs whose LM bound falls below ω
	termStable    *obs.Counter // terminations: high+answer sets stable, answer full
	termDry       *obs.Counter // terminations: stable and no fresh candidates left
	termMaxIter   *obs.Counter // terminations: MaxIters safety net hit
	termInterrupt *obs.Counter // terminations: context ended
	checkpoints   *obs.Counter // checkpoint files written
	qFinal        *obs.Gauge   // |Q| when the loop ended
	qPeak         *obs.Gauge   // peak |Q| across iterations
	highSize      *obs.Gauge   // |H| at the last labeling
	lowSize       *obs.Gauge   // |Q| − |H| at the last labeling
	ansSize       *obs.Gauge   // answer-set size at the last labeling
	total         *obs.Timer   // whole Mine call
	iteration     *obs.Timer   // one grow iteration
}

func newMinerMetrics(r *obs.Registry) minerMetrics {
	return minerMetrics{
		iterations:    r.Counter("miner.iterations"),
		seeds:         r.Counter("miner.seeds"),
		fresh:         r.Counter("miner.candidates.fresh"),
		readmitted:    r.Counter("miner.candidates.readmitted"),
		prunedExt:     r.Counter("miner.pruned.extension"),
		prunedCap:     r.Counter("miner.pruned.lowcap"),
		retained:      r.Counter("miner.q.retained"),
		highCapped:    r.Counter("miner.high.capped"),
		pairsSkipped:  r.Counter("miner.pairs.skipped"),
		termStable:    r.Counter("miner.term.stable"),
		termDry:       r.Counter("miner.term.exhausted"),
		termMaxIter:   r.Counter("miner.term.maxiters"),
		termInterrupt: r.Counter("miner.term.interrupted"),
		checkpoints:   r.Counter("miner.checkpoints"),
		qFinal:        r.Gauge("miner.q.final"),
		qPeak:         r.Gauge("miner.q.peak"),
		highSize:      r.Gauge("miner.high.size"),
		lowSize:       r.Gauge("miner.low.size"),
		ansSize:       r.Gauge("miner.answer.size"),
		total:         r.Timer("miner.time.total"),
		iteration:     r.Timer("miner.time.iteration"),
	}
}

// WithWallBudget bounds ctx by the wall-clock budget d, whose expiry Mine
// reports as "max wall time <d> elapsed"; d <= 0 leaves ctx unbounded.
// The context is a run's only wall-clock bound, so this is how trajmine's
// -maxwall and trajserve's deadlines reach the miner.
func WithWallBudget(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeoutCause(ctx, d, fmt.Errorf("max wall time %v elapsed", d))
}

// Mine runs the TrajPattern algorithm: seed Q with singular patterns,
// iterate candidate generation from the high set (concatenating every high
// pattern with every pattern in Q on both sides), re-threshold, prune low
// patterns failing the 1-extension property (§4.1), and stop when the high
// set and the answer set are stable. See MinerConfig.MinLen and
// MinerConfig.MaxLowQ for two documented deviations from the paper; at
// MinLen 1 the generation also skips every pair whose concatenations the
// LM bound keeps below ω (DESIGN §4, deviation 4).
//
// ctx is the run's only wall-clock bound. When it ends, or MaxIters is
// reached, the miner drains its scoring workers and returns the last
// completed boundary's top-k with Result.Interrupted set — not an error;
// the checkpoint, if any, already holds that boundary. Real failures
// (invalid config, a scoring panic, a checkpoint write error) are errors.
func Mine(ctx context.Context, s *Scorer, cfg MinerConfig) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	seeds := cfg.Seeds
	if seeds == nil {
		seeds = s.ObservedCells(1)
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("core: no seed cells")
	}
	fp := cfg.fingerprint(s, seeds)

	var stats MinerStats
	m := newMinerMetrics(cfg.Metrics)
	defer m.total.Start()()

	start := time.Now() //trajlint:allow determinism -- feeds Progress.Elapsed (UI) only; never part of the mined result
	tl := cfg.Tracer.Local()
	var runSpan *trace.Span
	if tl != nil {
		attrs := trace.Attrs{"k": cfg.K, "seeds": len(seeds)}
		if id := trace.RequestIDFrom(ctx); id != "" {
			attrs["request_id"] = id
		}
		runSpan = tl.Span("miner.run", attrs)
	}
	defer runSpan.End()

	// stop says why the run ended before its termination test fired, ""
	// while it has not. Every early stop goes through halt, and the loop
	// ends once stop is set.
	stop := ""
	halt := func(reason string, term *obs.Counter) {
		stop = reason
		term.Inc()
		runSpan.Attr("interrupted", reason)
	}
	// cancelled halts on ctx, which ended a scoring batch or was found
	// ended at an iteration boundary.
	cancelled := func() { halt(context.Cause(ctx).Error(), m.termInterrupt) }

	// Q and the evaluation memo. The memo survives pruning so a pattern
	// regenerated in a later iteration is never rescored.
	q := make(map[string]*entry, len(seeds))
	evaluated := make(map[string]float64, len(seeds))

	insert := func(p Pattern, nm float64) {
		k := p.Key()
		if _, ok := q[k]; !ok {
			q[k] = &entry{pat: p, key: k, nm: nm}
		}
	}

	// prevHigh and prevAns are the key sets of the labeling the last
	// iteration generated from, the termination test's stability
	// witnesses; nil before the first iteration.
	var prevHigh, prevAns map[string]struct{}
	lastFresh := -1   // fresh candidates evaluated in the previous iteration
	startIter := 0    // first grow iteration to execute
	resumeBaseNM := 0 // NM evaluations done before the resumed-from snapshot
	if ck := cfg.Resume; ck != nil {
		if ck.Fingerprint != fp {
			return nil, &FingerprintMismatchError{Checkpoint: ck.Fingerprint, Run: fp}
		}
		var err error
		q, evaluated, prevHigh, prevAns, err = ck.restore()
		if err != nil {
			return nil, err
		}
		lastFresh = ck.LastFresh
		stats = ck.Stats
		startIter = ck.Iteration
		resumeBaseNM = ck.Stats.NMEvaluations
		if tl != nil {
			tl.Event("miner.resume", trace.Attrs{"iter": startIter, "q": len(q)})
		}
	} else {
		// Seed with singular patterns.
		seedPats := make([]Pattern, len(seeds))
		for i, c := range seeds {
			seedPats[i] = Pattern{c}
		}
		nms, err := s.ScoreAll(ctx, seedPats)
		if err != nil {
			var pe *ScorePanicError
			if errors.As(err, &pe) {
				return nil, err
			}
			// Cancelled before any miner state exists: nms is nil, and
			// the empty answer is the only valid partial result.
			cancelled()
		}
		for i, nm := range nms {
			evaluated[seedPats[i].Key()] = nm
			insert(seedPats[i], nm)
		}
		stats.Candidates += len(nms)
		m.seeds.Add(int64(len(nms)))
	}

	// lab is the labeling of Q at the current iteration boundary. Each
	// iteration labels Q once, after scoring, and prunes only patterns
	// outside that labeling's high and answer sets, which leaves its ω,
	// high set and answer set those of the pruned Q; so it is carried into
	// the next iteration unchanged, apart from capped (see drop).
	lab := label(q, cfg.K, cfg.MinLen)
	m.highSize.Set(int64(len(lab.high)))
	m.lowSize.Set(int64(len(q) - len(lab.high)))
	m.ansSize.Set(int64(len(lab.ansKey)))

	// progress reports the boundary after iteration iter+1 to OnProgress.
	progress := func(iter int) {
		if cfg.OnProgress != nil {
			cfg.OnProgress(Progress{
				Iteration:  iter + 1,
				MaxIters:   cfg.MaxIters,
				QSize:      len(q),
				HighSize:   len(lab.high),
				AnswerSize: len(lab.ansKey),
				K:          cfg.K,
				Candidates: stats.Candidates,
				Elapsed:    time.Since(start), //trajlint:allow determinism -- Progress.Elapsed is UI feedback, not mined output
			})
		}
	}
	for iter := startIter; stop == ""; iter++ {
		if iter >= cfg.MaxIters {
			halt(fmt.Sprintf("max iterations %d reached", cfg.MaxIters), m.termMaxIter)
			break
		}
		// The checkpoint already holds this boundary, so a resumed run
		// replays the rest of the search deterministically.
		if ctx.Err() != nil {
			cancelled()
			break
		}
		stats.Iterations = iter + 1
		m.iterations.Inc()
		stopIter := m.iteration.Start()
		var iterSpan *trace.Span
		if tl != nil {
			iterSpan = tl.Span("miner.iteration", trace.Attrs{"iter": iter + 1})
		}
		// miner.high.capped sums capped over the two labelings an
		// iteration reads: this one for generation, the next for pruning.
		m.highCapped.Add(int64(lab.capped))

		// Termination: the high set and the answer set did not change
		// during the last iteration, and the search is saturated — the
		// answer holds K patterns, or the last iteration produced no new
		// candidates at all. (Without the saturation condition the
		// MinLen variant would stop before any long pattern exists: the
		// top-K singulars stabilize immediately because concatenation
		// never raises NM above its best part.)
		stable := prevHigh != nil &&
			sameKeySet(prevHigh, lab.highKey) &&
			sameKeySet(prevAns, lab.ansKey)
		if stable && (len(lab.ansKey) >= cfg.K || lastFresh == 0) {
			if len(lab.ansKey) >= cfg.K {
				m.termStable.Inc()
			} else {
				m.termDry.Inc()
			}
			iterSpan.Attr("q", len(q)).Attr("high", len(lab.high)).Attr("terminated", true).End()
			stopIter()
			progress(iter)
			break
		}
		prevHigh, prevAns = lab.highKey, lab.ansKey

		// Candidate generation: extend every high pattern with every
		// pattern in Q, on both sides, except where the LM bound rules
		// both concatenations out (DESIGN §4, deviation 4).
		all := make([]*entry, 0, len(q))
		for _, e := range q {
			all = append(all, e)
		}
		sortEntries(all)

		var fresh []Pattern
		seen := make(map[string]struct{})
		propose := func(p Pattern) {
			if len(p) > cfg.MaxLen {
				return
			}
			k := p.Key()
			if _, ok := q[k]; ok {
				return
			}
			if _, ok := seen[k]; ok {
				return
			}
			seen[k] = struct{}{}
			if nm, ok := evaluated[k]; ok {
				insert(p, nm) // re-admit a previously pruned pattern
				m.readmitted.Inc()
				if tl != nil {
					tl.Event("miner.candidate.readmitted", trace.Attrs{"pattern": k, "nm": nm, "iter": iter + 1})
				}
				return
			}
			fresh = append(fresh, p)
		}
		skip := cfg.MinLen == 1 && !cfg.DisablePrune
		cut := lab.omega - boundSlack*math.Abs(lab.omega)
		skipped := 0
		for _, h := range lab.high {
			lh := float64(len(h.pat)) * h.nm
			for _, e := range all {
				if skip && (lh+float64(len(e.pat))*e.nm)/float64(len(h.pat)+len(e.pat)) < cut {
					skipped++
					continue
				}
				propose(h.pat.Concat(e.pat))
				propose(e.pat.Concat(h.pat))
			}
		}
		m.pairsSkipped.Add(int64(skipped))

		lastFresh = len(fresh)
		if len(fresh) > 0 {
			nms, err := s.ScoreAll(ctx, fresh)
			if err != nil {
				var pe *ScorePanicError
				if errors.As(err, &pe) {
					iterSpan.Attr("error", pe.Error()).End()
					stopIter()
					return nil, err
				}
				// Cancelled mid-iteration. Q already absorbed this
				// iteration's readmissions, but a readmitted pattern was
				// pruned outside the answer set and can never re-enter
				// it, so lab's answer is still Q's best-so-far answer.
				// The last boundary checkpoint (if any) remains the
				// resume point, so resuming replays this iteration in
				// full.
				cancelled()
				iterSpan.Attr("interrupted", true).End()
				stopIter()
				break
			}
			for i, p := range fresh {
				evaluated[p.Key()] = nms[i]
				insert(p, nms[i])
			}
			stats.Candidates += len(fresh)
			m.fresh.Add(int64(len(fresh)))
			if tl != nil {
				for i, p := range fresh {
					tl.Event("miner.candidate.admitted", trace.Attrs{"pattern": p.Key(), "nm": nms[i], "iter": iter + 1})
				}
			}
		}

		if len(q) > stats.MaxQ {
			stats.MaxQ = len(q)
		}
		m.qPeak.SetMax(int64(len(q)))

		// Re-label with the new candidates, then prune: keep high and
		// answer patterns, and low patterns satisfying the 1-extension
		// property with respect to the new high set (Definition 5 /
		// Lemma 1), up to the MaxLowQ cap.
		lab = label(q, cfg.K, cfg.MinLen)
		m.highCapped.Add(int64(lab.capped))
		m.highSize.Set(int64(len(lab.high)))
		m.ansSize.Set(int64(len(lab.ansKey)))
		protected := func(k string) bool {
			if _, ok := lab.highKey[k]; ok {
				return true
			}
			_, ok := lab.ansKey[k]
			return ok
		}
		// drop prunes e from Q. An unprotected pattern with NM >= ω is
		// one the cap left out of H, so lab.capped follows Q.
		drop := func(e *entry, reason string) {
			delete(q, e.key)
			if e.nm >= lab.omega {
				lab.capped--
			}
			if tl != nil {
				tl.Event("miner.candidate.pruned", trace.Attrs{"pattern": e.key, "nm": e.nm, "reason": reason, "iter": iter + 1})
			}
		}
		if !cfg.DisablePrune {
			for k, e := range q {
				if protected(k) || len(e.pat) == 1 || isOneExtension(e.pat, lab.highKey) {
					continue
				}
				drop(e, "extension")
				stats.Pruned++
				m.prunedExt.Inc()
			}
		}
		if cfg.MaxLowQ > 0 {
			var lows []*entry
			for k, e := range q {
				if !protected(k) && len(e.pat) > 1 {
					lows = append(lows, e)
				}
			}
			if len(lows) > cfg.MaxLowQ {
				sortEntries(lows)
				for _, e := range lows[cfg.MaxLowQ:] {
					drop(e, "lowcap")
					stats.LowCapped++
					m.prunedCap.Inc()
				}
			}
		}
		m.lowSize.Set(int64(len(q) - len(lab.high)))
		iterSpan.Attr("q", len(q)).Attr("high", len(lab.high)).Attr("fresh", lastFresh).End()
		stopIter()

		// Checkpoint the completed boundary: iter+1 is the next iteration
		// to execute. A failed write is a hard error — continuing would
		// let a crash lose far more work than the caller asked us to
		// protect.
		if cfg.CheckpointPath != "" {
			cks := stats
			cks.NMEvaluations = resumeBaseNM + s.NMEvaluations()
			snap := snapshot(fp, iter+1, lastFresh, cks, q, evaluated, prevHigh, prevAns)
			if err := SaveCheckpoint(cfg.CheckpointFS, cfg.CheckpointPath, snap); err != nil {
				return nil, fmt.Errorf("core: checkpoint: %w", err)
			}
			m.checkpoints.Inc()
			if tl != nil {
				tl.Event("miner.checkpoint", trace.Attrs{"iter": iter + 1, "q": len(q)})
			}
		}
		progress(iter)
	}
	m.qFinal.Set(int64(len(q)))
	m.retained.Add(int64(len(q)))
	runSpan.Attr("iterations", stats.Iterations).Attr("q_final", len(q))

	stats.NMEvaluations = resumeBaseNM + s.NMEvaluations()
	res := &Result{
		Patterns:        make([]ScoredPattern, len(lab.ans)),
		Stats:           stats,
		Interrupted:     stop != "",
		InterruptReason: stop,
	}
	for i, e := range lab.ans {
		res.Patterns[i] = ScoredPattern{Pattern: e.pat, NM: e.nm}
	}
	if cfg.CaptureFinalState {
		res.FinalState = snapshot(fp, stats.Iterations, lastFresh, stats, q, evaluated, prevHigh, prevAns)
	}
	return res, nil
}

// label computes the high set and answer set of Q. The high threshold ω
// is the Kth largest NM over all patterns (-Inf when Q holds fewer than
// K), the high set is capped at highCapPerK·K entries (ties at ω can
// otherwise flood it), and the answer set is the top-K patterns of length
// >= minLen, which are always marked high as well so they keep extending.
func label(q map[string]*entry, k, minLen int) labeling {
	all := make([]*entry, 0, len(q))
	for _, e := range q {
		all = append(all, e)
	}
	sortEntries(all)

	omega := math.Inf(-1)
	if len(all) >= k {
		omega = all[k-1].nm
	}

	lab := labeling{
		highKey: make(map[string]struct{}),
		ansKey:  make(map[string]struct{}),
		omega:   omega,
	}
	for _, e := range all {
		if e.nm >= omega {
			lab.high = append(lab.high, e)
			lab.highKey[e.key] = struct{}{}
		}
	}
	if maxHigh := highCapPerK * k; len(lab.high) > maxHigh {
		lab.capped = len(lab.high) - maxHigh
		for _, e := range lab.high[maxHigh:] {
			delete(lab.highKey, e.key)
		}
		lab.high = lab.high[:maxHigh]
	}
	// Answer set: the running top-K result. For minLen == 1 it is simply
	// the top-K of Q (a subset of the high set); for the Section 5
	// variant it is the top-K among patterns of length >= minLen, which
	// are additionally marked high so they keep extending.
	for _, e := range all {
		if len(e.pat) >= minLen {
			lab.ans = append(lab.ans, e)
			lab.ansKey[e.key] = struct{}{}
			if _, ok := lab.highKey[e.key]; !ok {
				lab.high = append(lab.high, e)
				lab.highKey[e.key] = struct{}{}
			}
			if len(lab.ans) == k {
				break
			}
		}
	}
	sortEntries(lab.high)
	return lab
}

// isOneExtension reports whether removing the first or last position of p
// yields a pattern in the high set (Definition 5; 1-patterns always
// satisfy the property and are handled by the caller).
func isOneExtension(p Pattern, high map[string]struct{}) bool {
	if _, ok := high[p.DropFirst().Key()]; ok {
		return true
	}
	_, ok := high[p.DropLast().Key()]
	return ok
}

// sameKeySet reports whether two key sets are identical.
func sameKeySet(a, b map[string]struct{}) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// sortEntries orders entries as CompareRank does, reading the cached keys,
// for fully deterministic iteration.
func sortEntries(es []*entry) {
	sort.Slice(es, func(i, j int) bool {
		//trajlint:allow floatcmp -- comparator tie-break: exact inequality is what makes the order total and deterministic
		if es[i].nm != es[j].nm {
			return es[i].nm > es[j].nm
		}
		if len(es[i].pat) != len(es[j].pat) {
			return len(es[i].pat) < len(es[j].pat)
		}
		return es[i].key < es[j].key
	})
}

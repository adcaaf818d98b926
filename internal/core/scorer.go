package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"trajpattern/internal/grid"
	"trajpattern/internal/obs"
	"trajpattern/internal/stat"
	"trajpattern/internal/trace"
	"trajpattern/internal/traj"
)

// ProbMode selects the geometric interpretation of the paper's
// Prob(l, σ, p, δ): the probability that the object's true location is
// "within δ" of the pattern position p.
type ProbMode int

const (
	// ProbBox integrates the location distribution over the axis-aligned
	// square [p±δ]², the natural companion of the rectangular grid
	// (gₓ = g_y = δ in the experiments). This is the default: it is exact
	// under coordinate independence and an order of magnitude cheaper.
	ProbBox ProbMode = iota
	// ProbDisk integrates over the Euclidean disk of radius δ around p
	// (Rice distribution), the literal reading of "at most δ away".
	ProbDisk
)

// String implements fmt.Stringer.
func (m ProbMode) String() string {
	switch m {
	case ProbBox:
		return "box"
	case ProbDisk:
		return "disk"
	default:
		return fmt.Sprintf("ProbMode(%d)", int(m))
	}
}

// DefaultLogFloor bounds per-position log-probabilities away from -Inf so
// NM arithmetic stays finite when a cell has (numerically) zero probability.
const DefaultLogFloor = -700 // ≈ log of the smallest positive float64

// Config parameterizes NM/match scoring.
type Config struct {
	// Grid discretizes the space; its cell centers are the pattern
	// positions. Required.
	Grid *grid.Grid
	// Delta is the indifference threshold δ. Must be positive. The paper
	// sets δ to the grid cell size.
	Delta float64
	// Mode selects box or disk probability. Default ProbBox.
	Mode ProbMode
	// LogFloor clamps log Prob from below. Zero means DefaultLogFloor.
	LogFloor float64
	// Workers bounds the parallelism of batch NM evaluation. Zero means
	// GOMAXPROCS.
	Workers int
	// DisableCache turns off the per-cell log-probability cache (used by
	// the A3 ablation benchmark). Scoring results are identical either way.
	DisableCache bool
	// Metrics, when non-nil, receives scorer instrumentation (NM
	// evaluation, cache, scratch-pool, batch and per-worker accounting
	// under "scorer.*" names). Nil disables collection at the cost of one
	// nil check per event.
	Metrics *obs.Registry
	// Tracer, when non-nil, records one "scorer.batch" span per ScoreAll
	// call (patterns and cells per batch) on the run timeline; StreamNM
	// additionally records a "stream.pass" span per pass. Nil disables
	// tracing at the cost of one nil check per batch.
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	//trajlint:allow floatcmp -- zero means "unset" for this config field; exact sentinel test, not a numeric comparison
	if c.LogFloor == 0 {
		c.LogFloor = DefaultLogFloor
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// validate rejects configurations that would panic deep in the scorer or
// silently poison every score. All failures are *ConfigError so callers
// (CLIs, trajserve) can distinguish caller mistakes from internal faults.
func (c Config) validate() error {
	if c.Grid == nil {
		return cfgErr("ScorerConfig", "Grid", "required")
	}
	if c.Grid.NumCells() <= 0 {
		return cfgErr("ScorerConfig", "Grid", "non-positive cell count %d×%d", c.Grid.NX(), c.Grid.NY())
	}
	// NaN fails every comparison, so test it explicitly: a NaN δ would
	// sail through `<= 0` and turn every probability into NaN.
	if math.IsNaN(c.Delta) || math.IsInf(c.Delta, 0) {
		return cfgErr("ScorerConfig", "Delta", "must be finite, got %v", c.Delta)
	}
	if c.Delta <= 0 {
		return cfgErr("ScorerConfig", "Delta", "must be > 0, got %v", c.Delta)
	}
	if math.IsNaN(c.LogFloor) || c.LogFloor > 0 {
		return cfgErr("ScorerConfig", "LogFloor", "must be <= 0 and not NaN, got %v", c.LogFloor)
	}
	return nil
}

// Scorer evaluates the match and normalized-match measures of patterns
// against a fixed dataset. It caches, per touched grid cell, the vector of
// log Prob(lᵢ, σᵢ, cell, δ) over every snapshot of every trajectory, so the
// NM of a candidate pattern reduces to windowed sums over cached vectors.
//
// A Scorer is safe for concurrent use: the cache is a write-once table,
// so readers take no lock and concurrent first uses of a cell agree on one
// vector.
type Scorer struct {
	cfg  Config
	data traj.Dataset

	// Flattened snapshots: positions of trajectory t live at
	// flat[offsets[t] : offsets[t+1]].
	flat    []traj.Point
	offsets []int
	maxLen  int // longest trajectory: the most windows one scan can have

	// cells[c] is cell c's per-flat-position log-prob vector, nil until
	// first use. A vector is installed by compare-and-swap and never
	// replaced, so a loaded vector is immutable.
	cells   []atomic.Pointer[[]float64]
	nmEvals atomic.Int64 // number of NM evaluations (for MinerStats)

	m  scorerMetrics
	tl *trace.Local // batch-span recorder; nil when Config.Tracer is nil
}

// scorerMetrics holds the resolved obs handles of one Scorer. All fields
// are nil when Config.Metrics is nil; obs handles treat nil receivers as
// no-ops, so call sites need no guards.
type scorerMetrics struct {
	nmEvals      *obs.Counter // NM evaluations (the §4.4 dominant cost)
	cellsBuilt   *obs.Counter // per-cell log-prob vectors materialized
	cacheHits    *obs.Counter // vector lookups served from the cache
	scratchHits  *obs.Counter // window scans reusing a pooled accumulator
	scratchGrows *obs.Counter // window scans that had to grow the accumulator
	batches      *obs.Counter // ScoreAll calls
	batchPats    *obs.Counter // patterns scored across all batches
	batchMax     *obs.Gauge   // largest single batch
	batchTime    *obs.Timer   // wall time inside ScoreAll
	registry     *obs.Registry
}

func newScorerMetrics(r *obs.Registry) scorerMetrics {
	return scorerMetrics{
		nmEvals:      r.Counter("scorer.nm.evals"),
		cellsBuilt:   r.Counter("scorer.cells.built"),
		cacheHits:    r.Counter("scorer.cache.hits"),
		scratchHits:  r.Counter("scorer.scratch.hits"),
		scratchGrows: r.Counter("scorer.scratch.grows"),
		batches:      r.Counter("scorer.batches"),
		batchPats:    r.Counter("scorer.batch.patterns"),
		batchMax:     r.Gauge("scorer.batch.max"),
		batchTime:    r.Timer("scorer.time.batch"),
		registry:     r,
	}
}

// NewScorer validates the configuration and indexes the dataset. The
// dataset must be non-empty and structurally valid.
func NewScorer(data traj.Dataset, cfg Config) (*Scorer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	if err := data.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Scorer{
		cfg:     cfg,
		data:    data,
		offsets: make([]int, len(data)+1),
		cells:   make([]atomic.Pointer[[]float64], cfg.Grid.NumCells()),
		m:       newScorerMetrics(cfg.Metrics),
		tl:      cfg.Tracer.Local(),
	}
	for i, t := range data {
		s.offsets[i+1] = s.offsets[i] + len(t)
		s.maxLen = max(s.maxLen, len(t))
	}
	s.flat = make([]traj.Point, 0, s.offsets[len(data)])
	for _, t := range data {
		s.flat = append(s.flat, t...)
	}
	return s, nil
}

// Config returns the scoring configuration (with defaults applied).
func (s *Scorer) Config() Config { return s.cfg }

// Dataset returns the dataset the scorer was built over.
func (s *Scorer) Dataset() traj.Dataset { return s.data }

// NumTrajectories returns |𝒟|.
func (s *Scorer) NumTrajectories() int { return len(s.data) }

// logProb computes log Prob(l, σ, p, δ) for a single snapshot/cell pair,
// clamped to the configured floor.
func (s *Scorer) logProb(pt traj.Point, cell int) float64 {
	c := s.cfg.Grid.CenterAt(cell)
	var prob float64
	switch s.cfg.Mode {
	case ProbDisk:
		prob = stat.DiskProb2D(pt.Mean.X, pt.Mean.Y, pt.Sigma, c.X, c.Y, s.cfg.Delta)
	default:
		prob = stat.BoxProb2D(pt.Mean.X, pt.Mean.Y, pt.Sigma, c.X, c.Y, s.cfg.Delta)
	}
	lp := math.Log(prob)
	if lp < s.cfg.LogFloor || math.IsNaN(lp) {
		return s.cfg.LogFloor
	}
	return lp
}

// cellLogProbs returns the per-flat-position log-prob vector for cell,
// computing and caching it on first use. Callers must not mutate the
// result. Goroutines that build the same cell at once all count the build,
// but only the first vector installed is kept and returned to every caller.
func (s *Scorer) cellLogProbs(cell int) []float64 {
	if s.cfg.DisableCache {
		s.m.cellsBuilt.Inc()
		return s.buildCell(cell)
	}
	slot := &s.cells[cell]
	if v := slot.Load(); v != nil {
		s.m.cacheHits.Inc()
		return *v
	}
	s.m.cellsBuilt.Inc()
	v := s.buildCell(cell)
	if !slot.CompareAndSwap(nil, &v) {
		return *slot.Load()
	}
	return v
}

// buildCell computes cell's log-prob vector over every flat position.
func (s *Scorer) buildCell(cell int) []float64 {
	v := make([]float64, len(s.flat))
	for i, pt := range s.flat {
		v[i] = s.logProb(pt, cell)
	}
	return v
}

// Prepare precomputes the log-prob vectors for the given cells so that
// later scoring only reads the cache. It is idempotent.
func (s *Scorer) Prepare(cells []int) {
	for _, c := range cells {
		s.cellLogProbs(c)
	}
}

// CacheSize returns the number of cells with materialized log-prob vectors.
func (s *Scorer) CacheSize() int {
	n := 0
	for i := range s.cells {
		if s.cells[i].Load() != nil {
			n++
		}
	}
	return n
}

// NMEvaluations returns how many pattern NM evaluations this scorer has
// performed, the dominant cost term of the complexity analysis (§4.4).
func (s *Scorer) NMEvaluations() int { return int(s.nmEvals.Load()) }

// scan is the scratch of one pattern's window scans: the pattern's cell
// vectors, fetched once, and the window-sum accumulator. It is pooled per
// call, not per trajectory.
type scan struct {
	vecs [][]float64
	acc  []float64
}

var scanPool = sync.Pool{New: func() any { return new(scan) }}

// newScan fetches p's vectors into a pooled scan sized for s's longest
// trajectory. Release it with s.release.
func (s *Scorer) newScan(p Pattern) *scan {
	sc := scanPool.Get().(*scan)
	sc.vecs = s.vectors(p, sc.vecs[:0])
	if cap(sc.acc) < s.maxLen {
		sc.acc = make([]float64, s.maxLen)
		s.m.scratchGrows.Inc()
	} else {
		s.m.scratchHits.Inc()
	}
	return sc
}

// release returns sc to the pool without keeping its vectors reachable.
func (s *Scorer) release(sc *scan) {
	clear(sc.vecs)
	scanPool.Put(sc)
}

// logMatch returns, for trajectory ti, the maximum window sum of log Prob
// for the pattern whose m position vectors sc holds (i.e. max log M(P,T')),
// or (LogFloor·m, false) if the trajectory is shorter than the pattern.
// The scan accumulates all window sums position by position over
// contiguous slices, the innermost loop of the whole miner, rather than
// window by window; each window sum takes its terms in pattern order.
func (s *Scorer) logMatch(sc *scan, ti int) (float64, bool) {
	start, end := s.offsets[ti], s.offsets[ti+1]
	vecs := sc.vecs
	m := len(vecs)
	if end-start < m {
		return s.cfg.LogFloor * float64(m), false
	}
	nw := end - start - m + 1
	if m == 1 {
		return maxOf(vecs[0][start : start+nw]), true
	}
	acc := sc.acc[:nw]
	copy(acc, vecs[0][start:])
	for j := 1; j < m-1; j++ {
		addTo(acc, vecs[j][start+j:])
	}
	return addMax(acc, vecs[m-1][start+m-1:]), true
}

// vectors appends the cached log-prob vector of each pattern position to
// dst.
func (s *Scorer) vectors(p Pattern, dst [][]float64) [][]float64 {
	for _, cell := range p {
		dst = append(dst, s.cellLogProbs(cell))
	}
	return dst
}

// NMTrajectory returns NM(P, T) for trajectory index ti: the maximum
// normalized match over all windows of T with the pattern's length
// (Equation 4). Trajectories shorter than the pattern contribute the floor
// value (the worst possible NM), keeping the min-max property intact.
func (s *Scorer) NMTrajectory(p Pattern, ti int) float64 {
	if len(p) == 0 {
		panic("core: NM of empty pattern")
	}
	sc := s.newScan(p)
	defer s.release(sc)
	logM, _ := s.logMatch(sc, ti)
	return logM / float64(len(p))
}

// NM returns the normalized match of p in the whole dataset:
// Σ_T NM(P, T) (Section 3.3), summed in trajectory order. Larger (closer
// to zero) is better.
func (s *Scorer) NM(p Pattern) float64 {
	if len(p) == 0 {
		panic("core: NM of empty pattern")
	}
	sc := s.newScan(p)
	defer s.release(sc)
	var sum float64
	for ti := range s.data {
		logM, _ := s.logMatch(sc, ti)
		sum += logM / float64(len(p))
	}
	s.nmEvals.Add(1)
	s.m.nmEvals.Inc()
	return sum
}

// LogMatches returns, indexed by trajectory, every trajectory's
// best-window log-match max log M(P, T) of p, or LogFloor·len(p) where the
// trajectory is shorter than p. It fetches p's vectors once and does not
// count as an NM evaluation.
func (s *Scorer) LogMatches(p Pattern) []float64 {
	if len(p) == 0 {
		panic("core: log-match of empty pattern")
	}
	sc := s.newScan(p)
	defer s.release(sc)
	out := make([]float64, len(s.data))
	for ti := range out {
		out[ti], _ = s.logMatch(sc, ti)
	}
	return out
}

// MatchTrajectory returns M(P, T) for trajectory ti: the maximum joint
// probability over windows (Equation 2 with the max of Equation 4 applied
// to the unnormalized measure, as in [14]). Trajectories shorter than the
// pattern contribute 0.
func (s *Scorer) MatchTrajectory(p Pattern, ti int) float64 {
	if len(p) == 0 {
		panic("core: match of empty pattern")
	}
	sc := s.newScan(p)
	defer s.release(sc)
	logM, ok := s.logMatch(sc, ti)
	if !ok {
		return 0
	}
	return math.Exp(logM)
}

// Match returns the match of p in the whole dataset: Σ_T M(P, T), the
// measure of [14] that the paper compares against.
func (s *Scorer) Match(p Pattern) float64 {
	if len(p) == 0 {
		panic("core: match of empty pattern")
	}
	sc := s.newScan(p)
	defer s.release(sc)
	var sum float64
	for ti := range s.data {
		logM, ok := s.logMatch(sc, ti)
		if ok {
			sum += math.Exp(logM)
		}
	}
	return sum
}

// ScorePanicError reports a panic recovered inside a ScoreAll worker.
// The pool recovers per job, so one poisoned pattern never wedges the
// other workers or kills the process; the batch instead returns this
// typed error. When several jobs panic in one batch, the one with the
// smallest pattern index is reported, keeping the error deterministic
// regardless of goroutine scheduling.
type ScorePanicError struct {
	Index int    // index into the batch of the pattern whose evaluation panicked
	Value any    // the recovered panic value
	Stack string // goroutine stack captured at the recovery point
}

// Error implements error.
func (e *ScorePanicError) Error() string {
	return fmt.Sprintf("core: scoring pattern %d panicked: %v", e.Index, e.Value)
}

// ScoreAll evaluates NM for every pattern concurrently and returns the
// values in input order. It first materializes the log-prob vectors of all
// touched cells (serially), then fans the window scans out over
// cfg.Workers goroutines.
//
// ctx cancellation stops dispatching new jobs; in-flight evaluations
// finish (each is short), the pool drains cleanly, and the call returns
// ctx's cause wrapped in an error. A panic in a worker is recovered per
// job and surfaces as a *ScorePanicError after the pool has drained.
// Either way no goroutine is left behind. On success the returned error
// is nil and the values are deterministic for a given dataset/config.
func (s *Scorer) ScoreAll(ctx context.Context, patterns []Pattern) ([]float64, error) {
	defer s.m.batchTime.Start()()
	s.m.batches.Inc()
	s.m.batchPats.Add(int64(len(patterns)))
	s.m.batchMax.SetMax(int64(len(patterns)))
	var sp *trace.Span
	if s.tl != nil {
		sp = s.tl.Span("scorer.batch", trace.Attrs{"patterns": len(patterns)})
	}
	defer sp.End()

	cells := make(map[int]struct{})
	for _, p := range patterns {
		for _, c := range p {
			cells[c] = struct{}{}
		}
	}
	order := make([]int, 0, len(cells))
	for c := range cells {
		order = append(order, c)
	}
	sort.Ints(order)
	sp.Attr("cells", len(order))
	s.Prepare(order)

	out := make([]float64, len(patterns))
	var (
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicErr *ScorePanicError
	)
	jobs := make(chan int)
	for w := 0; w < s.cfg.Workers; w++ {
		wg.Add(1)
		// Per-worker job counts accumulate locally and post once per
		// batch, so utilization tracking costs the hot loop nothing.
		var jobCount *obs.Counter
		if s.m.registry != nil {
			jobCount = s.m.registry.Counter(fmt.Sprintf("scorer.worker.%02d.jobs", w))
		}
		go func() {
			defer wg.Done()
			done := int64(0)
			for i := range jobs {
				done++
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicErr == nil || i < panicErr.Index {
								panicErr = &ScorePanicError{Index: i, Value: r, Stack: string(debug.Stack())}
							}
							panicMu.Unlock()
						}
					}()
					out[i] = s.NM(patterns[i])
				}()
			}
			jobCount.Add(done)
		}()
	}
dispatch:
	for i := range patterns {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	if panicErr != nil {
		return nil, panicErr
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("core: scoring cancelled: %w", context.Cause(ctx))
	}
	return out, nil
}

// BestSingularLogProb returns, for each trajectory, the maximum cached
// log-prob over the given cells and all window positions. The PB baseline
// uses it as its optimistic per-position bound. The result is indexed by
// trajectory.
func (s *Scorer) BestSingularLogProb(cells []int) []float64 {
	out := make([]float64, len(s.data))
	for ti := range s.data {
		out[ti] = math.Inf(-1)
	}
	for _, c := range cells {
		v := s.cellLogProbs(c)
		for ti := range s.data {
			for w := s.offsets[ti]; w < s.offsets[ti+1]; w++ {
				if v[w] > out[ti] {
					out[ti] = v[w]
				}
			}
		}
	}
	return out
}

// ObservedCells returns the sorted flat indices of every cell that contains
// at least one snapshot mean, expanded by ring cells of Chebyshev radius r.
// Cells far from all data have NM equal to the floor sum and can never be
// in the top k, so the miners use this as their default singular seed set.
func (s *Scorer) ObservedCells(r int) []int {
	set := make(map[int]struct{})
	for _, pt := range s.flat {
		idx := s.cfg.Grid.IndexOf(pt.Mean)
		set[idx] = struct{}{}
	}
	if r > 0 {
		base := make([]int, 0, len(set))
		for c := range set {
			base = append(base, c)
		}
		sort.Ints(base)
		for _, c := range base {
			for _, n := range s.cfg.Grid.Neighbors(c, r) {
				set[n] = struct{}{}
			}
		}
	}
	out := make([]int, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// AllCells returns every cell index of the grid, the paper's literal
// singular seed set.
func (s *Scorer) AllCells() []int {
	out := make([]int, s.cfg.Grid.NumCells())
	for i := range out {
		out[i] = i
	}
	return out
}

package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
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
	// Workers bounds the parallelism of every scorer pass: the cell
	// build, Extensions and ScoreAll's NM evaluation. Zero means
	// GOMAXPROCS.
	Workers int
	// Metrics, when non-nil, receives scorer instrumentation (NM
	// evaluation, cache and batch accounting under "scorer.*" names).
	// Nil disables collection at the cost of one nil check per event.
	Metrics *obs.Registry
	// Tracer, when non-nil, records one "scorer.batch" span per ScoreAll
	// call (patterns and cells per batch) and one "scorer.prepare" span per
	// cell build: a Prepare call, a ScoreAll batch's (nested in its batch)
	// or a scan's that finds cells unbuilt. Nil disables tracing at the
	// cost of one nil check per batch.
	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
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
	// zeros returns the all-zero vector a Wildcard position reads (log
	// 1 everywhere), and Extensions' window sums of the empty prefix,
	// built on first use.
	zeros func() []float64

	m  scorerMetrics
	tl *trace.Local // batch-span recorder; nil when Config.Tracer is nil
}

// scorerMetrics holds the resolved obs handles of one Scorer. All fields
// are nil when Config.Metrics is nil; obs handles treat nil receivers as
// no-ops, so call sites need no guards.
type scorerMetrics struct {
	nmEvals    *obs.Counter // NM evaluations (the §4.4 dominant cost)
	cellsBuilt *obs.Counter // per-cell log-prob vectors materialized
	cacheHits  *obs.Counter // vector lookups served from the cache
	batches    *obs.Counter // ScoreAll calls
	batchPats  *obs.Counter // patterns scored across all batches
	batchMax   *obs.Gauge   // largest single batch
	batchTime  *obs.Timer   // wall time inside ScoreAll
	prepTime   *obs.Timer   // wall time inside each cell build's lookup and build
}

func newScorerMetrics(r *obs.Registry) scorerMetrics {
	return scorerMetrics{
		nmEvals:    r.Counter("scorer.nm.evals"),
		cellsBuilt: r.Counter("scorer.cells.built"),
		cacheHits:  r.Counter("scorer.cache.hits"),
		batches:    r.Counter("scorer.batches"),
		batchPats:  r.Counter("scorer.batch.patterns"),
		batchMax:   r.Gauge("scorer.batch.max"),
		batchTime:  r.Timer("scorer.time.batch"),
		prepTime:   r.Timer("scorer.time.prepare"),
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
	s.zeros = sync.OnceValue(func() []float64 { return make([]float64, len(s.flat)) })
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
	return clampLog(prob)
}

// clampLog returns log prob clamped from below to DefaultLogFloor; a
// NaN logarithm fails the comparison and becomes the floor too.
func clampLog(prob float64) float64 {
	if lp := math.Log(prob); lp >= DefaultLogFloor {
		return lp
	}
	return DefaultLogFloor
}

// logProductsGo sets dst[p], for every p < len(dst), to clampLog of
// px[p]·py[p], or to the floor without a log where the product is exactly
// 0. It is the reference of the AVX2 kernel logProducts
// (logprod_amd64.s), and the cell build's only path on other
// architectures, on CPUs without AVX2 and under -race. px and py must be
// at least as long as dst.
func logProductsGo(dst, px, py []float64) {
	px, py = px[:len(dst)], py[:len(dst)]
	for p := range dst {
		//trajlint:allow floatcmp -- exact-zero log skip: log 0 is −Inf, which clampLog clamps to the floor, so only a literal zero may skip it
		if pr := px[p] * py[p]; pr == 0 {
			dst[p] = DefaultLogFloor
		} else {
			dst[p] = clampLog(pr)
		}
	}
}

// buildBlock is how many flat positions one block of the cell build
// covers: the per-axis probabilities of one block stay in cache while
// every cell of the call reads them.
const buildBlock = 256

// fanOut splits [0, n) into at most cfg.Workers contiguous chunks. It
// calls start(lo, hi) for each chunk on the calling goroutine, in chunk
// order, then runs every function start returned on a goroutine of its
// own (the calling one when there is one chunk) and returns once all
// have. Every scorer pass runs through it: the cell build, Extensions and
// ScoreAll.
func (s *Scorer) fanOut(n int, start func(lo, hi int) func()) {
	workers := min(s.cfg.Workers, n)
	runs := make([]func(), workers)
	for w := range runs {
		runs[w] = start(n*w/workers, n*(w+1)/workers)
	}
	if workers == 1 {
		runs[0]()
		return
	}
	var wg sync.WaitGroup
	for _, run := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	wg.Wait()
}

// build computes the log-prob vector of each cell over every flat
// position. The vectors are allocated, and so zeroed, on up to cfg.Workers
// goroutines (fanOut). The positions are then split into blocks of
// buildBlock, each worker taking a contiguous run of them (fanOut); a
// worker checks ctx before each block and yields after it, as scoreChunk
// does. Box mass factorizes over the axes (stat.BoxProb2D is the product
// of two interval probabilities), so a box-mode block computes, per
// position, one erfc term per distinct bound value of each axis (see
// boxAxis), then each needed column's and row's mass from those terms
// through stat.IntervalMass, in scratch of its worker's own, and then
// every cell's clamped log-products in one logProducts call, an AVX2
// kernel on amd64 that takes four positions a step. That is one erfc per
// distinct bound instead of two per column and row; each product is the
// float logProb takes the log of, and logProducts stores clampLog's bits
// for it (logprod_amd64.s says why), or the floor without a log where it
// is 0. Disk mode calls logProb per position. Either way a position's
// value comes from the same code whichever worker computes it. If ctx
// ends before the build returns, build returns ctx's cause and no vector.
// No scratch outlives the call.
func (s *Scorer) build(ctx context.Context, cells []int) ([][]float64, error) {
	n := len(s.flat)
	out := make([][]float64, len(cells))
	s.fanOut(len(cells), func(lo, hi int) func() {
		return func() {
			for i := lo; i < hi; i++ {
				out[i] = make([]float64, n)
			}
		}
	})
	var ax *boxAxes
	if s.cfg.Mode != ProbDisk {
		ax = s.boxAxes(cells)
	}
	s.fanOut((n+buildBlock-1)/buildBlock, func(first, last int) func() {
		var sc boxScratch // this worker's per-axis scratch
		if ax != nil {
			sc = ax.scratch(min(buildBlock, n))
		}
		return func() {
			for b := first; b < last && ctx.Err() == nil; b++ {
				lo, hi := b*buildBlock, min((b+1)*buildBlock, n)
				if ax != nil {
					s.boxBlock(ax, out, lo, hi, sc)
				} else {
					for i, c := range cells {
						for p := lo; p < hi; p++ {
							out[i][p] = s.logProb(s.flat[p], c)
						}
					}
				}
				runtime.Gosched()
			}
		}
	})
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	return out, nil
}

// boxAxes is a box-mode build's per-axis plan: the columns and rows its
// cells lie in, and each cell's column and row slot.
type boxAxes struct {
	x, y  boxAxis
	slots [][2]int
}

// boxAxis is one axis of a box-mode build: the distinct bound values,
// bit for bit, of its columns' (or rows') boxes [center − δ, center + δ],
// and each column's lower and upper bound as indices into them. At
// δ = the cell width, column k's upper bound is column k+2's lower one,
// often to the bit, and a shared bound's erfc term is computed once.
type boxAxis struct {
	bounds []float64
	spans  [][2]int       // per column slot
	index  map[uint64]int // a bound value's bits → its index in bounds
}

// add appends a column of the given center and returns its slot.
func (a *boxAxis) add(center, d float64) int {
	var sp [2]int
	for j, v := range [2]float64{center - d, center + d} {
		k, ok := a.index[math.Float64bits(v)]
		if !ok {
			k = len(a.bounds)
			a.bounds = append(a.bounds, v)
			a.index[math.Float64bits(v)] = k
		}
		sp[j] = k
	}
	a.spans = append(a.spans, sp)
	return len(a.spans) - 1
}

// fill sets f[k*m+p], for every column slot k, to the column's mass at a
// position of mean mu and deviation sigma on this axis. e is scratch of
// at least len(a.bounds) floats.
func (a *boxAxis) fill(f []float64, p, m int, mu, sigma float64, e []float64) {
	for j, v := range a.bounds {
		e[j] = stat.NormalErfc(v, mu, sigma)
	}
	for k, sp := range a.spans {
		f[k*m+p] = stat.IntervalMass(a.bounds[sp[0]], a.bounds[sp[1]], mu, sigma, e[sp[0]], e[sp[1]])
	}
}

// boxAxes plans the box-mode build of cells.
func (s *Scorer) boxAxes(cells []int) *boxAxes {
	g, d := s.cfg.Grid, s.cfg.Delta
	// colOf and rowOf hold 1 + a column's or row's slot, 0 until assigned.
	colOf, rowOf := make([]int, g.NX()), make([]int, g.NY())
	ax := &boxAxes{
		x:     boxAxis{index: make(map[uint64]int)},
		y:     boxAxis{index: make(map[uint64]int)},
		slots: make([][2]int, len(cells)),
	}
	for i, c := range cells {
		cell := g.CellAt(c)
		center := g.Center(cell)
		if colOf[cell.X] == 0 {
			colOf[cell.X] = 1 + ax.x.add(center.X, d)
		}
		if rowOf[cell.Y] == 0 {
			rowOf[cell.Y] = 1 + ax.y.add(center.Y, d)
		}
		ax.slots[i] = [2]int{colOf[cell.X] - 1, rowOf[cell.Y] - 1}
	}
	return ax
}

// boxScratch is one worker's scratch for boxBlock: each column's and
// row's mass at each position of a block, and the erfc terms of one
// position.
type boxScratch struct{ fx, fy, e []float64 }

// scratch returns scratch for blocks of up to blk positions.
func (ax *boxAxes) scratch(blk int) boxScratch {
	return boxScratch{
		fx: make([]float64, len(ax.x.spans)*blk),
		fy: make([]float64, len(ax.y.spans)*blk),
		e:  make([]float64, max(len(ax.x.bounds), len(ax.y.bounds))),
	}
}

// boxBlock fills positions [lo, hi) of every cell's vector in out.
func (s *Scorer) boxBlock(ax *boxAxes, out [][]float64, lo, hi int, sc boxScratch) {
	pts, m := s.flat[lo:hi], hi-lo
	for p, pt := range pts {
		ax.x.fill(sc.fx, p, m, pt.Mean.X, pt.Sigma, sc.e)
		ax.y.fill(sc.fy, p, m, pt.Mean.Y, pt.Sigma, sc.e)
	}
	for i, sl := range ax.slots {
		logProducts(out[i][lo:hi], sc.fx[sl[0]*m:][:m], sc.fy[sl[1]*m:][:m])
	}
}

// cached returns cell's installed vector, or nil if it has none.
func (s *Scorer) cached(cell int) []float64 {
	if v := s.cells[cell].Load(); v != nil {
		return *v
	}
	return nil
}

// cellVectors returns the log-prob vector of each cell, building all the
// missing ones in one pass, and how many it built. Each requested cell
// counts as one build or one cache hit; a cell repeated in the call is
// built once. Goroutines that build the same cell at once all count the
// build, but only the first vector installed is kept and returned to
// every caller. If ctx ends during the build, cellVectors returns its
// cause, installs no vector and counts nothing. Callers must not mutate
// the vectors.
func (s *Scorer) cellVectors(ctx context.Context, cells []int) (vecs [][]float64, built int, err error) {
	vecs = make([][]float64, len(cells))
	var miss []int // indices into cells
	for i, c := range cells {
		if vecs[i] = s.cached(c); vecs[i] == nil {
			miss = append(miss, i)
		}
	}
	if len(miss) == 0 {
		s.m.cacheHits.Add(int64(len(cells)))
		return vecs, 0, nil
	}
	need := make([]int, len(miss))
	for j, i := range miss {
		need[j] = cells[i]
	}
	slices.Sort(need)
	need = slices.Compact(need)
	fresh, err := s.build(ctx, need)
	if err != nil {
		return nil, 0, err
	}
	s.m.cellsBuilt.Add(int64(len(need)))
	s.m.cacheHits.Add(int64(len(cells) - len(need)))
	for j, c := range need {
		v := fresh[j]
		s.cells[c].CompareAndSwap(nil, &v)
	}
	for _, i := range miss {
		vecs[i] = *s.cells[cells[i]].Load()
	}
	return vecs, len(need), nil
}

// Prepare precomputes the log-prob vectors for the given cells, building
// every missing one in one pass on up to cfg.Workers goroutines, so that
// later scoring only reads the cache. Each cell counts as one build or
// one cache hit. It is idempotent, and it takes no context, so it cannot
// be cancelled.
func (s *Scorer) Prepare(cells []int) { s.prepare(context.TODO(), cells) }

// prepare is Prepare under ctx, returning the cells' vectors; if ctx ends
// during the build it returns ctx's cause and builds nothing (see
// cellVectors). It runs under the scorer.time.prepare timer and records a
// scorer.prepare span.
func (s *Scorer) prepare(ctx context.Context, cells []int) ([][]float64, error) {
	defer s.m.prepTime.Start()()
	var sp *trace.Span
	if s.tl != nil {
		sp = s.tl.Span("scorer.prepare", trace.Attrs{"cells": len(cells)})
	}
	vecs, built, err := s.cellVectors(ctx, cells)
	sp.Attr("built", built).End()
	return vecs, err
}

// NMEvaluations returns how many pattern NM evaluations this scorer has
// performed, the dominant cost term of the complexity analysis (§4.4).
func (s *Scorer) NMEvaluations() int { return int(s.nmEvals.Load()) }

// vectors appends the log-prob vector of each position of p to dst; a
// Wildcard position (a WildPattern's) gets the all-zero vector. Every
// other position counts as one cache hit or one build: at the first cell
// with no vector, one prepare pass builds all of p's missing cells and
// counts all of p's cells, so no scan builds its cells one at a time.
// Its callers take no context, so the build cannot be cancelled and
// cannot fail.
func (s *Scorer) vectors(p Pattern, dst [][]float64) [][]float64 {
	hits, built := 0, false
	for _, cell := range p {
		if cell == Wildcard {
			dst = append(dst, s.zeros())
			continue
		}
		v := s.cached(cell)
		if v == nil {
			s.prepare(context.TODO(), slices.DeleteFunc(slices.Clone(p), func(c int) bool { return c == Wildcard }))
			v, built = s.cached(cell), true
		}
		dst = append(dst, v)
		hits++
	}
	if !built {
		s.m.cacheHits.Add(int64(hits))
	}
	return dst
}

// scan calls each(ti, logM) for every trajectory ti in order, logM being
// ti's best-window log-match max log M(P, T) of p, or DefaultLogFloor·len(p)
// where ti is shorter than p. It is the walk's one-pattern case, which NM,
// LogMatches, Match and NMWild reduce. p must not be empty.
func (s *Scorer) scan(p Pattern, each func(ti int, logM float64)) {
	if len(p) == 0 {
		panic("core: scan of empty pattern")
	}
	w := s.newWalk()
	defer w.release()
	w.add(p)
	w.ready()
	for ti := range s.data {
		w.trajectory(ti)
		each(ti, w.logM[0])
	}
}

// shorter reports whether trajectory ti has fewer snapshots than m.
func (s *Scorer) shorter(ti, m int) bool { return s.offsets[ti+1]-s.offsets[ti] < m }

// NM returns the normalized match of p in the whole dataset:
// Σ_T NM(P, T) (Section 3.3), summed in trajectory order. NM(P, T) is the
// best window's log-match divided by len(p) (Equation 4); a trajectory
// shorter than p contributes the floor, the worst possible NM, keeping
// the min-max property intact. Larger (closer to zero) is better.
func (s *Scorer) NM(p Pattern) float64 {
	var sum float64
	s.scan(p, func(_ int, logM float64) { sum += logM / float64(len(p)) })
	s.nmEvals.Add(1)
	s.m.nmEvals.Inc()
	return sum
}

// LogMatches returns, indexed by trajectory, every trajectory's
// best-window log-match max log M(P, T) of p, or DefaultLogFloor·len(p)
// where the trajectory is shorter than p. It does not count as an NM
// evaluation.
func (s *Scorer) LogMatches(p Pattern) []float64 {
	out := make([]float64, len(s.data))
	s.scan(p, func(ti int, logM float64) { out[ti] = logM })
	return out
}

// Extensions scores every one-cell extension of prefix: for each k it
// calls each(k, logM) with the LogMatches of prefix·cells[k], indexed by
// trajectory. It sums prefix's windows once over every flat position,
// adding its vectors in pattern order as the walk's levels do, so every
// window sum, and so every log-match, has the bits LogMatches gives; the
// empty prefix's sums are the all-zero vector, which adds nothing to a
// built entry. It then splits cells into up to cfg.Workers contiguous
// chunks (fanOut), and a worker scores its children four at a time, each
// four in one extend pass over every trajectory; a chunk's last four
// repeat its last child, whose repeats are not handed to each. The
// calling goroutine fetches the prefix's and the children's vectors
// together, building all the missing ones in one pass (vectors); the
// workers only scan. each runs on the workers, concurrently for different
// k, and logM is valid only during the call. The scratch is pooled and
// grows with the flat positions, never with positions times prefix
// length. Extensions does not count as NM evaluations.
func (s *Scorer) Extensions(prefix Pattern, cells []int, each func(k int, logM []float64)) {
	x := extPool.Get().(*extScratch)
	defer x.release()
	i, nt := len(prefix), len(s.data)
	x.cells = append(append(x.cells[:0], prefix...), cells...)
	x.vecs = s.vectors(x.cells, x.vecs[:0])
	pre, vecs := x.vecs[:i], x.vecs[i:]
	// sums[p] is prefix's window sum at flat position p, for every p a
	// child's window can start at.
	var sums []float64
	switch n := len(s.flat) - i; {
	case i == 0:
		sums = s.zeros()
	case i == 1:
		sums = pre[0]
	case n > 0:
		sums = slices.Grow(x.sums[:0], n)[:n]
		add(sums, pre[0], pre[1][1:])
		for j := 2; j < i; j++ {
			add(sums, sums, pre[j][j:])
		}
		x.sums = sums
	}
	rows := min(s.cfg.Workers, len(cells)) * 4 * nt
	x.rows = slices.Grow(x.rows[:0], rows)[:rows]
	free := x.rows // the rows no worker has yet
	s.fanOut(len(cells), func(lo, hi int) func() {
		out := free[:4*nt]
		free = free[4*nt:]
		return func() {
			var four [4][]float64
			for k := lo; k < hi; k += 4 {
				for j := range four {
					four[j] = vecs[min(k+j, hi-1)]
				}
				extend(out, sums, &four, s.offsets, i)
				for j := range min(4, hi-k) {
					each(k+j, out[j*nt:][:nt])
				}
			}
		}
	})
}

// extScratch is one Extensions call's scratch: the prefix's cells followed
// by the children's, their vectors, the prefix's window sums and four
// log-match rows per worker.
type extScratch struct {
	cells      Pattern
	vecs       [][]float64
	sums, rows []float64
}

var extPool = sync.Pool{New: func() any { return new(extScratch) }}

// release drops x's vectors, so the pool keeps no cell reachable, and
// returns it to the pool.
func (x *extScratch) release() {
	clear(x.vecs)
	extPool.Put(x)
}

// Match returns the match of p in the whole dataset: Σ_T M(P, T), the
// measure of [14] that the paper compares against.
func (s *Scorer) Match(p Pattern) float64 {
	var sum float64
	s.scan(p, func(ti int, logM float64) {
		if !s.shorter(ti, len(p)) {
			sum += math.Exp(logM)
		}
	})
	return sum
}

// ScorePanicError reports a panic recovered inside a ScoreAll worker.
// Each worker recovers its own panic, so one poisoned pattern never
// wedges the other workers or kills the process; the batch instead
// returns this typed error. When several workers panic in one batch, the
// one with the smallest pattern index is reported, keeping the error
// deterministic regardless of goroutine scheduling.
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
// values in input order, each the float NM returns. It first builds the
// log-prob vectors of all touched cells in one pass (prepare), then sorts
// the batch by cells, keeping input indices, and gives each of up to
// cfg.Workers goroutines one contiguous chunk (fanOut). A worker walks its
// chunk trajectory by trajectory (see walk), so neighbouring patterns
// share their common prefix's window sums.
//
// The build's workers check ctx before every block of positions and the
// scan's before every trajectory; on cancellation they stop, the build
// installs no vector, and the call returns ctx's cause wrapped in an
// error. A panic in a worker is recovered and surfaces as a
// *ScorePanicError once every worker has returned. The empty pattern
// sorts first and panics, so a batch holding empty patterns reports the
// smallest such index. Either way no goroutine is left behind. On success
// the returned error is nil and the values are deterministic for a given
// dataset/config.
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
	if _, err := s.prepare(ctx, order); err != nil {
		return nil, fmt.Errorf("core: scoring cancelled: %w", err)
	}

	byCells := make([]int, len(patterns))
	for i := range byCells {
		byCells[i] = i
	}
	slices.SortFunc(byCells, func(a, b int) int {
		if c := slices.Compare(patterns[a], patterns[b]); c != 0 {
			return c
		}
		return a - b
	})
	out := make([]float64, len(patterns))
	var (
		panicMu  sync.Mutex
		panicErr *ScorePanicError
	)
	s.fanOut(len(patterns), func(lo, hi int) func() {
		return func() {
			if pe := s.scoreChunk(ctx, patterns, byCells[lo:hi], out); pe != nil {
				panicMu.Lock()
				if panicErr == nil || pe.Index < panicErr.Index {
					panicErr = pe
				}
				panicMu.Unlock()
			}
		}
	})
	if panicErr != nil {
		return nil, panicErr
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("core: scoring cancelled: %w", context.Cause(ctx))
	}
	return out, nil
}

// yieldSteps is how many (pattern, trajectory) scans a ScoreAll worker
// runs, about 0.1 ms of work, before it yields the processor. A worker
// never blocks mid-chunk, so without the yield a goroutine sharing the
// CPUs, such as a trajserve request handler, could wait for async
// preemption, about 10 ms.
const yieldSteps = 1024

// scoreChunk writes into out the NM of every pattern chunk indexes. It
// walks the chunk in blocks of walkBlock patterns. It stops early when ctx
// ends or a pattern panics; the panic comes back as a *ScorePanicError.
func (s *Scorer) scoreChunk(ctx context.Context, patterns []Pattern, chunk []int, out []float64) (pe *ScorePanicError) {
	w := s.newWalk()
	defer w.release()
	var block []int
	defer func() {
		if r := recover(); r != nil {
			pe = &ScorePanicError{Index: block[w.at], Value: r, Stack: string(debug.Stack())}
		}
	}()
	nm := make([]float64, min(walkBlock, len(chunk)))
	steps := 0 // (pattern, trajectory) scans since the last yield
	for len(chunk) > 0 {
		block, chunk = chunk[:min(walkBlock, len(chunk))], chunk[min(walkBlock, len(chunk)):]
		w.reset()
		for k, i := range block {
			w.at = k
			if len(patterns[i]) == 0 {
				panic("core: NM of empty pattern")
			}
			w.add(patterns[i])
		}
		w.ready()
		clear(nm)
		for ti := range s.data {
			if ctx.Err() != nil {
				return nil
			}
			w.trajectory(ti)
			for k, i := range block {
				nm[k] += w.logM[k] / float64(len(patterns[i]))
			}
			if steps += len(block); steps >= yieldSteps {
				runtime.Gosched()
				steps = 0
			}
		}
		for k, i := range block {
			out[i] = nm[k]
		}
		s.nmEvals.Add(int64(len(block)))
		s.m.nmEvals.Add(int64(len(block)))
	}
	return nil
}

// ObservedCells returns the sorted flat indices of every cell that contains
// at least one snapshot mean, expanded by ring cells of Chebyshev radius r.
// Cells far from all data have NM equal to the floor sum and can never be
// in the top k, so the miners use this as their default singular seed set.
func (s *Scorer) ObservedCells(r int) []int {
	g := s.cfg.Grid
	seen := make([]bool, g.NumCells())
	for _, pt := range s.flat {
		seen[g.IndexOf(pt.Mean)] = true
	}
	if r > 0 {
		nx, ny := g.NX(), g.NY()
		ring := make([]bool, len(seen))
		for c, ok := range seen {
			if !ok {
				continue
			}
			cx, cy := c%nx, c/nx
			for y := max(cy-r, 0); y <= min(cy+r, ny-1); y++ {
				for x := max(cx-r, 0); x <= min(cx+r, nx-1); x++ {
					ring[y*nx+x] = true
				}
			}
		}
		seen = ring
	}
	out := []int{}
	for c, ok := range seen {
		if ok {
			out = append(out, c)
		}
	}
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

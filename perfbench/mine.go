package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"trajpattern/internal/baseline"
	"trajpattern/internal/core"
	"trajpattern/internal/core/shard"
	"trajpattern/internal/datagen"
	"trajpattern/internal/grid"
	"trajpattern/internal/obs"
	"trajpattern/internal/trace"
	"trajpattern/internal/traj"
)

// mineInst is one mining instance: the ZebraNet dataset of S trajectories
// of average length L in Herds herds generated from DataSeed, mined top-K
// with patterns up to MaxLen on a GridN×GridN grid over the unit square,
// with δ one cell width.
//
// The mining instances are pinned rather than drawn from the run's seed:
// the work they take varies too much from one dataset seed to the next to
// compare runs made on different seeds. PB on the Figure 4 instance
// expands 341 prefixes with dataset seed 1 and 8,208 with seed 2 (1.9 s
// against 49 s), and the mine-cold instance's NM evaluations range over
// ±15% across seeds 1-6. The run's seed drives every serve-ingest input.
type mineInst struct {
	S, L, Herds, GridN, K, MaxLen int
	DataSeed                      uint64
}

// instance sizes every phase of a run.
type instance struct {
	Name   string  // "full" for the benchmark's own sizes, whose top-k digests are pinned
	U, C   float64 // uncertainty of every generated dataset
	MinOps int     // closed-loop ops per phase even when the phase budget is spent

	// Shares of the run's measured time given to the closed loop of
	// mine-cold and fig4-pb ops and to the steady serve-ingest mix.
	LoopShare, ServeShare float64
	Mine                  mineInst
	Fig4                  mineInst
	Serve                 serveInst
}

func fullInstance(w workload) instance {
	return instance{
		Name: "full", U: 0.02, C: 2, MinOps: 3,
		LoopShare: 0.52, ServeShare: 0.4,
		Mine: mineInst{S: 160, L: 120, Herds: 5, GridN: w.MineGridN, K: 20, MaxLen: 6, DataSeed: 1},
		// E3's default instance, on the workload's grid.
		Fig4: mineInst{S: 80, L: 60, Herds: 5, GridN: w.FigGridN, K: 10, MaxLen: 6, DataSeed: 1},
		Serve: serveInst{
			ReadS: 80, ReadL: 60, Herds: 5, GridN: w.ServeGridN,
			Objects: 40, PathLen: 400, PathSeed: 1, Prefill: 8,
			IngestRate: 10, ScoreRate: 200, PredictRate: 200, MineRate: 5, StatusRate: 200,
			ScorePatterns: 16, PatternPool: 64, History: 8,
			Bursts: 15, BurstSize: 300,
			LateBound: 100 * time.Millisecond,
		},
	}
}

func (m mineInst) dataset(u, c float64) (traj.Dataset, error) {
	return datagen.ZebraDataset(datagen.ZebraConfig{
		NumZebras: m.S, AvgLen: m.L, NumGroups: m.Herds, Seed: m.DataSeed,
	}, u, c)
}

// env holds a run's generated inputs and its running server.
type env struct {
	mineDS, figDS     traj.Dataset
	mineGrid, figGrid *grid.Grid
	tracer            *trace.Tracer        // nil unless traced
	mineTop           []core.ScoredPattern // mine-cold's top-k, for the sharded run's check
	serve             *serveEnv
	setups            *setupSampler
}

// newEnv generates every phase's inputs and starts the server. rep numbers
// the WAL directory of each set-up repetition.
func newEnv(ctx context.Context, o options, rep int) (*env, error) {
	in := o.Inst
	e := &env{mineGrid: grid.NewSquare(in.Mine.GridN), figGrid: grid.NewSquare(in.Fig4.GridN)}
	if o.Trace {
		e.tracer = trace.New()
	}
	var err error
	if e.mineDS, err = in.Mine.dataset(in.U, in.C); err != nil {
		return nil, fmt.Errorf("mine-cold dataset: %w", err)
	}
	if e.figDS, err = in.Fig4.dataset(in.U, in.C); err != nil {
		return nil, fmt.Errorf("fig4-pb dataset: %w", err)
	}
	e.serve, err = startServe(ctx, o, e.tracer, rep)
	return e, err
}

func (e *env) close() error {
	if e == nil || e.serve == nil {
		return nil
	}
	return e.serve.close()
}

// patternDigest fingerprints a top-k: every pattern key with its NM's
// exact bits, in order.
func patternDigest(pats []core.ScoredPattern) string {
	h := sha256.New()
	for _, sp := range pats {
		fmt.Fprintf(h, "%s %016x\n", sp.Pattern.Key(), math.Float64bits(sp.NM))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sameTopK reports how got differs from want: pattern order, keys and NM
// bits must all match.
func sameTopK(want, got []core.ScoredPattern) error {
	if len(want) != len(got) {
		return fmt.Errorf("top-k has %d patterns, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Pattern.Key() != got[i].Pattern.Key() {
			return fmt.Errorf("rank %d is %s, want %s", i, got[i].Pattern.Key(), want[i].Pattern.Key())
		}
		if math.Float64bits(want[i].NM) != math.Float64bits(got[i].NM) {
			return fmt.Errorf("rank %d (%s) NM %v, want %v", i, got[i].Pattern.Key(), got[i].NM, want[i].NM)
		}
	}
	return nil
}

// checkNM recomputes every returned NM on a fresh scorer; each must match
// bit for bit.
func checkNM(s *core.Scorer, pats []core.ScoredPattern) error {
	for _, sp := range pats {
		if nm := s.NM(sp.Pattern); math.Float64bits(nm) != math.Float64bits(sp.NM) {
			return fmt.Errorf("%s: returned NM %v, fresh Scorer.NM %v", sp.Pattern.Key(), sp.NM, nm)
		}
	}
	return nil
}

// checkFig4 compares TrajPattern's top-k with PB's: the same keys in the
// same order, NMs within 1e-9.
func checkFig4(tp, pb []core.ScoredPattern) error {
	if len(tp) != len(pb) {
		return fmt.Errorf("TrajPattern found %d patterns, PB %d", len(tp), len(pb))
	}
	for i := range tp {
		if tp[i].Pattern.Key() != pb[i].Pattern.Key() {
			return fmt.Errorf("rank %d: TrajPattern %s, PB %s", i, tp[i].Pattern.Key(), pb[i].Pattern.Key())
		}
		if d := math.Abs(tp[i].NM - pb[i].NM); !(d <= 1e-9) {
			return fmt.Errorf("rank %d (%s): TrajPattern NM %v, PB NM %v", i, tp[i].Pattern.Key(), tp[i].NM, pb[i].NM)
		}
	}
	return nil
}

//go:embed reference.json
var referenceJSON []byte

// checkReference compares a top-k digest of the full instance with the one
// pinned in reference.json (workload → phase → digest). Other instances
// have nothing pinned and pass.
func checkReference(o options, phase, digest string) error {
	var ref map[string]map[string]string
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return fmt.Errorf("reference.json: %w", err)
	}
	if o.Inst.Name != "full" {
		return nil
	}
	want := ref[o.Workload.Name][phase]
	if want == "" {
		return fmt.Errorf("no %s digest pinned for workload %s; this run's is %s", phase, o.Workload.Name, digest)
	}
	if digest != want {
		return fmt.Errorf("%s top-k digest %s, pinned %s", phase, digest, want)
	}
	return nil
}

// mineResult is one mine-cold op.
type mineResult struct {
	wall, cellbuild float64 // seconds
	alloc           uint64
	pats            []core.ScoredPattern
	snap            obs.Snapshot
	probs           int
}

// mineOnce runs one cold mining op: build the scorer, build the cells the
// miner seeds from, mine. reg and tracer are nil on untraced ops.
func mineOnce(ctx context.Context, ds traj.Dataset, g *grid.Grid, in mineInst,
	reg *obs.Registry, tracer *trace.Tracer, rec *recorder, opID int) (mineResult, error) {
	var r mineResult
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	root := rec.begin("mine-cold.op", 0, opID)
	sp := rec.begin("core.NewScorer", root, opID)
	s, err := core.NewScorer(ds, core.Config{Grid: g, Delta: g.CellWidth(), Metrics: reg, Tracer: tracer})
	rec.end(sp)
	if err != nil {
		return r, err
	}
	sp = rec.begin("scorer.cellbuild", root, opID)
	cells := s.ObservedCells(1)
	s.Prepare(cells)
	r.cellbuild = rec.end(sp)
	sp = rec.begin("core.Mine", root, opID)
	res, err := core.Mine(ctx, s, core.MinerConfig{
		K: in.K, MaxLen: in.MaxLen, MaxLowQ: 4 * in.K, Metrics: reg, Tracer: tracer,
	})
	rec.end(sp)
	rec.end(root)
	r.wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return r, err
	}
	r.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	r.pats = res.Patterns
	r.probs = len(cells) * ds.TotalSnapshots()
	r.snap = reg.Snapshot()
	return r, nil
}

// moreOps decides whether a closed-loop phase takes another op.
func moreOps(i, least int, deadline time.Time) bool {
	return i < least || time.Now().Before(deadline)
}

// closedLoop runs the mine-cold and fig4-pb phases as one closed loop with
// one caller, alternating their ops until the budget is spent, so both
// phases sample the machine over the same window rather than one after the
// other; throwaway set-ups for setup_s go between them. In a traced run
// mine-cold ops alternate between plain and instrumented, so the
// instrumentation's overhead is measured on the same instance in the same
// process.
func closedLoop(ctx context.Context, o options, e *env, rep *report, budget time.Duration) error {
	const setupsPerOp = 10
	var m minePhase
	var f fig4Phase
	minOps := o.Inst.MinOps
	if o.Trace {
		minOps *= 2
	}
	deadline := time.Now().Add(budget)
	for i := 0; moreOps(i, minOps, deadline); i++ {
		m.op(ctx, o, e, rep, i)
		if err := e.setups.sample(ctx, setupsPerOp); err != nil {
			return err
		}
		f.op(ctx, o, e, rep, i)
	}
	rep.E2E["setup_s"] = median(e.setups.times)
	if err := m.finish(o, e, rep); err != nil {
		return err
	}
	f.finish(o, e, rep)
	return nil
}

// minePhase collects the mine-cold ops.
type minePhase struct {
	plain, traced []mineResult
	first         []core.ScoredPattern
}

func (m *minePhase) op(ctx context.Context, o options, e *env, rep *report, i int) {
	var reg *obs.Registry
	var tracer *trace.Tracer
	var rec *recorder
	if o.Trace && i%2 == 1 {
		reg, tracer, rec = obs.New(), e.tracer, rep.spans
	}
	r, err := mineOnce(ctx, e.mineDS, e.mineGrid, o.Inst.Mine, reg, tracer, rec, i+1)
	rep.Attempted++
	if err != nil {
		rep.fail("mine-cold op %d: %v", i, err)
		return
	}
	if m.first == nil {
		m.first = r.pats
	} else if err := sameTopK(m.first, r.pats); err != nil {
		rep.fail("mine-cold op %d differs from op 0: %v", i, err)
	}
	if reg != nil {
		m.traced = append(m.traced, r)
	} else {
		m.plain = append(m.plain, r)
	}
}

// finish checks the top-k against a fresh scorer and the pinned digest and
// reports the phase's metrics.
func (m *minePhase) finish(o options, e *env, rep *report) error {
	e.mineTop = m.first
	if m.first != nil {
		s, err := core.NewScorer(e.mineDS, core.Config{Grid: e.mineGrid, Delta: e.mineGrid.CellWidth()})
		if err != nil {
			return err
		}
		if err := checkNM(s, m.first); err != nil {
			rep.fail("mine-cold: %v", err)
		}
		if err := checkReference(o, "mine-cold", patternDigest(m.first)); err != nil {
			rep.fail("mine-cold: %v", err)
		}
	}
	walls := collect(m.plain, func(r mineResult) float64 { return r.wall })
	rep.note("mine-cold op walls (s): %.3f", walls)
	rep.E2E["mine_s"] = median(walls)
	rep.E2E["mine_alloc_mb"] = median(collect(m.plain, func(r mineResult) float64 { return float64(r.alloc) / 1e6 }))
	if o.Trace {
		mineLayers(rep, m.traced, median(walls))
	}
	return nil
}

func collect[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// mineLayers derives the scorer and miner metrics from the instrumented
// mine-cold ops, each a median over ops.
func mineLayers(rep *report, ops []mineResult, plainWall float64) {
	per := func(f func(r mineResult) float64) float64 { return median(collect(ops, f)) }
	timer := func(s obs.Snapshot, name string) float64 { return float64(s.Timers[name].TotalNS) / 1e9 }
	L := rep.Layer
	L["scorer.cellbuild_s"] = per(func(r mineResult) float64 { return r.cellbuild })
	L["scorer.probs"] = per(func(r mineResult) float64 { return float64(r.probs) })
	L["scorer.ns_per_prob"] = per(func(r mineResult) float64 { return r.cellbuild * 1e9 / float64(r.probs) })
	L["scorer.batch_s"] = per(func(r mineResult) float64 { return timer(r.snap, "scorer.time.batch") })
	L["scorer.nm_evals"] = per(func(r mineResult) float64 { return float64(r.snap.Counter("scorer.nm.evals")) })
	L["scorer.ns_per_nm"] = per(func(r mineResult) float64 {
		return timer(r.snap, "scorer.time.batch") * 1e9 / float64(r.snap.Counter("scorer.nm.evals"))
	})
	L["scorer.cache_hits"] = per(func(r mineResult) float64 { return float64(r.snap.Counter("scorer.cache.hits")) })
	L["miner.self_s"] = per(func(r mineResult) float64 {
		return timer(r.snap, "miner.time.total") - timer(r.snap, "scorer.time.batch")
	})
	L["miner.iterations"] = per(func(r mineResult) float64 { return float64(r.snap.Counter("miner.iterations")) })
	L["miner.candidates_fresh"] = per(func(r mineResult) float64 { return float64(r.snap.Counter("miner.candidates.fresh")) })
	L["miner.readmitted"] = per(func(r mineResult) float64 { return float64(r.snap.Counter("miner.candidates.readmitted")) })
	L["miner.pruned"] = per(func(r mineResult) float64 {
		return float64(r.snap.Counter("miner.pruned.extension") + r.snap.Counter("miner.pruned.lowcap"))
	})
	L["miner.q_peak"] = per(func(r mineResult) float64 { return float64(r.snap.Gauge("miner.q.peak")) })
	// The layer spans are cell build, window scan and the miner's own
	// work; what the op spends outside them is the residual.
	L["mine.residual_s"] = per(func(r mineResult) float64 {
		return r.wall - r.cellbuild - timer(r.snap, "miner.time.total")
	})
	L["trace.overhead_pct"] = 100 * (per(func(r mineResult) float64 { return r.wall })/plainWall - 1)
}

// fig4Result is one fig4-pb op.
type fig4Result struct {
	wall, tp, pb float64
	tpPats       []core.ScoredPattern
	pbRes        *baseline.PBResult
}

func fig4Once(ctx context.Context, ds traj.Dataset, g *grid.Grid, in mineInst,
	reg *obs.Registry, tracer *trace.Tracer, rec *recorder, opID int) (fig4Result, error) {
	var r fig4Result
	runtime.GC()
	start := time.Now()
	root := rec.begin("fig4-pb.op", 0, opID)
	sp := rec.begin("trajpattern", root, opID)
	sTP, err := core.NewScorer(ds, core.Config{Grid: g, Delta: g.CellWidth(), Metrics: reg, Tracer: tracer})
	if err != nil {
		return r, err
	}
	res, err := core.Mine(ctx, sTP, core.MinerConfig{
		K: in.K, MaxLen: in.MaxLen, MaxLowQ: 4 * in.K, Metrics: reg, Tracer: tracer,
	})
	rec.end(sp)
	if err != nil {
		return r, err
	}
	mid := time.Now()
	sp = rec.begin("baseline.MinePB", root, opID)
	sPB, err := core.NewScorer(ds, core.Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		return r, err
	}
	pb, err := baseline.MinePB(sPB, baseline.PBConfig{K: in.K, MaxLen: in.MaxLen})
	rec.end(sp)
	rec.end(root)
	end := time.Now()
	if err != nil {
		return r, err
	}
	r.wall, r.tp, r.pb = end.Sub(start).Seconds(), mid.Sub(start).Seconds(), end.Sub(mid).Seconds()
	r.tpPats, r.pbRes = res.Patterns, pb
	return r, nil
}

// fig4Phase collects the fig4-pb ops: TrajPattern and PB on fresh
// scorers per op.
type fig4Phase struct {
	ops []fig4Result
}

func (f *fig4Phase) op(ctx context.Context, o options, e *env, rep *report, i int) {
	var reg *obs.Registry
	var rec *recorder
	if o.Trace {
		reg, rec = obs.New(), rep.spans
	}
	r, err := fig4Once(ctx, e.figDS, e.figGrid, o.Inst.Fig4, reg, e.tracer, rec, 1000+i)
	rep.Attempted++
	if err != nil {
		rep.fail("fig4-pb op %d: %v", i, err)
		return
	}
	if err := checkFig4(r.tpPats, r.pbRes.Patterns); err != nil {
		rep.fail("fig4-pb op %d: %v", i, err)
	}
	if len(f.ops) == 0 {
		if err := checkReference(o, "fig4-pb", patternDigest(r.tpPats)); err != nil {
			rep.fail("fig4-pb: %v", err)
		}
	} else if r.pbRes.Stats != f.ops[0].pbRes.Stats {
		rep.fail("fig4-pb op %d: PB stats %+v, op 0 had %+v", i, r.pbRes.Stats, f.ops[0].pbRes.Stats)
	}
	f.ops = append(f.ops, r)
}

func (f *fig4Phase) finish(o options, e *env, rep *report) {
	if len(f.ops) == 0 {
		return
	}
	walls := collect(f.ops, func(r fig4Result) float64 { return r.wall })
	rep.note("fig4-pb op walls (s): %.3f", walls)
	rep.E2E["fig4_s"] = median(walls)
	if o.Trace {
		st := f.ops[0].pbRes.Stats
		pbS := median(collect(f.ops, func(r fig4Result) float64 { return r.pb }))
		rep.Layer["pb.s"] = pbS
		rep.Layer["tp.s"] = median(collect(f.ops, func(r fig4Result) float64 { return r.tp }))
		rep.Layer["pb.nm_evals"] = float64(st.NMEvaluations)
		rep.Layer["pb.prefixes_expanded"] = float64(st.PrefixesExpanded)
		rep.Layer["pb.prefixes_pruned"] = float64(st.PrefixesPruned)
		rep.Layer["pb.ns_per_traj_eval"] = pbS * 1e9 / float64(st.NMEvaluations*len(e.figDS))
	}
}

// shardMine mines the mine-cold instance once through the shard engine with
// two shards (traced runs only): the number the keep-or-delete decision on
// sharding needs. Its top-k keys must equal the unsharded run's; NMs may
// differ in the last bits because the merge re-sums per-shard partials.
func shardMine(ctx context.Context, o options, e *env, rep *report) error {
	in := o.Inst.Mine
	reg := obs.New()
	runtime.GC()
	sp := rep.spans.begin("shard.op", 0, 2000)
	start := time.Now()
	s, err := core.NewScorer(e.mineDS, core.Config{Grid: e.mineGrid, Delta: e.mineGrid.CellWidth(), Metrics: reg})
	if err != nil {
		return err
	}
	eng, err := shard.NewEngine(s, 2)
	if err != nil {
		return err
	}
	res, err := eng.Mine(ctx, core.MinerConfig{K: in.K, MaxLen: in.MaxLen, MaxLowQ: 4 * in.K, Metrics: reg}, nil)
	rep.Layer["shard.mine2_s"] = time.Since(start).Seconds()
	rep.spans.end(sp)
	rep.Attempted++
	if err != nil {
		rep.fail("shard mine: %v", err)
		return nil
	}
	rep.Layer["shard.nm_evals2"] = float64(reg.Snapshot().Counter("scorer.nm.evals"))
	if len(e.mineTop) != len(res.Patterns) {
		rep.fail("shard mine: %d patterns, unsharded %d", len(res.Patterns), len(e.mineTop))
		return nil
	}
	for i, sp := range e.mineTop {
		if sp.Pattern.Key() != res.Patterns[i].Pattern.Key() {
			rep.fail("shard mine: rank %d is %s, unsharded %s", i, res.Patterns[i].Pattern.Key(), sp.Pattern.Key())
			break
		}
	}
	return nil
}

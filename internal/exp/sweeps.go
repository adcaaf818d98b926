package exp

import (
	"context"
	"trajpattern/internal/baseline"
	"trajpattern/internal/core"
	"trajpattern/internal/datagen"
	"trajpattern/internal/grid"
	"trajpattern/internal/obs"
	"trajpattern/internal/trace"
	"trajpattern/internal/traj"
)

// SweepOptions parameterizes the Figure 4 scalability experiments on the
// ZebraNet-style synthetic data.
type SweepOptions struct {
	Scale float64 // shrinks the base workload (default 1)
	Seed  uint64

	// Metrics, when non-nil, accumulates miner/scorer instrumentation
	// across every TrajPattern run of the sweep (the PB baseline is not
	// instrumented). The bench harness uses the deterministic counters as
	// its regression-gate quantities.
	Metrics *obs.Registry

	// Tracer, when non-nil, records structured spans and events across the
	// sweep's TrajPattern runs (same scope as Metrics).
	Tracer *trace.Tracer

	// Progress, when non-nil, receives each TrajPattern run's per-iteration
	// state (cli.ProgressLine under -progress).
	Progress func(core.Progress)

	// Base workload (each sweep varies one dimension around these).
	K      int // default 10
	S      int // trajectories, default 80
	L      int // average trajectory length, default 60
	GridN  int // grid side; G = GridN², default 12
	MaxLen int // pattern length cap for both miners, default 6

	U float64 // tolerable uncertainty distance (default 0.02)
}

// sweepC is the confidence constant of the sweeps' data (σ = U/sweepC).
const sweepC = 2

func (o SweepOptions) withDefaults() (SweepOptions, error) {
	scale, err := checkScale(o.Scale)
	if err != nil {
		return o, err
	}
	o.Scale = scale
	if o.K == 0 {
		o.K = 10
	}
	if o.S == 0 {
		o.S = scaleInt(80, scale, 10)
	}
	if o.L == 0 {
		o.L = scaleInt(60, scale, 10)
	}
	if o.GridN == 0 {
		o.GridN = 12
	}
	if o.MaxLen == 0 {
		o.MaxLen = 6
	}
	if o.U == 0 {
		o.U = 0.02
	}
	return o, nil
}

// dataset builds the ZebraNet-style dataset for the given S and L. The
// herd count is fixed so sweeping S scales only the data volume, not the
// structure of the workload (a point the paper's own S sweep depends on).
func (o SweepOptions) dataset(s, l int) (traj.Dataset, error) {
	return datagen.ZebraDataset(datagen.ZebraConfig{
		NumZebras: s,
		AvgLen:    l,
		NumGroups: 5,
		Seed:      o.Seed,
	}, o.U, sweepC)
}

// timeMiners runs TrajPattern and PB on the same dataset/grid and returns
// the wall-clock seconds of each. Fresh scorers are used per run so cached
// probabilities do not leak across algorithms.
func timeMiners(ctx context.Context, ds traj.Dataset, g *grid.Grid, k, maxLen int, o SweepOptions) (tpSec, pbSec float64, err error) {
	mk := func(reg *obs.Registry, tr *trace.Tracer) (*core.Scorer, error) {
		return core.NewScorer(ds, core.Config{Grid: g, Delta: g.CellWidth(), Metrics: reg, Tracer: tr})
	}
	sTP, err := mk(o.Metrics, o.Tracer)
	if err != nil {
		return 0, 0, err
	}
	elapsed := stopwatch()
	if _, err := core.Mine(ctx, sTP, core.MinerConfig{
		K: k, MaxLen: maxLen,
		Metrics: o.Metrics, Tracer: o.Tracer, OnProgress: o.Progress,
	}); err != nil {
		return 0, 0, err
	}
	tpSec = elapsed()

	sPB, err := mk(nil, nil)
	if err != nil {
		return 0, 0, err
	}
	elapsed = stopwatch()
	if _, err := baseline.MinePB(sPB, baseline.PBConfig{K: k, MaxLen: maxLen}); err != nil {
		return 0, 0, err
	}
	pbSec = elapsed()
	return tpSec, pbSec, nil
}

// runSweep executes one Figure 4 sweep: xs are the x-axis values, setup
// returns the dataset/grid/k for each x.
func runSweep(ctx context.Context, title, xLabel string, xs []float64, o SweepOptions,
	setup func(x float64) (traj.Dataset, *grid.Grid, int, int, error)) (*Series, error) {
	tp := Line{Name: "TrajPattern (s)"}
	pb := Line{Name: "PB (s)"}
	for _, x := range xs {
		ds, g, k, maxLen, err := setup(x)
		if err != nil {
			return nil, err
		}
		tpSec, pbSec, err := timeMiners(ctx, ds, g, k, maxLen, o)
		if err != nil {
			return nil, err
		}
		tp.YS = append(tp.YS, tpSec)
		pb.YS = append(pb.YS, pbSec)
	}
	return &Series{Title: title, XLabel: xLabel, XS: xs, Lines: []Line{tp, pb}}, nil
}

// RunE3 reproduces Figure 4(a): response time versus the number of
// patterns wanted, k. TrajPattern grows roughly quadratically in k while
// PB's extensible-prefix set grows much faster.
func RunE3(ctx context.Context, o SweepOptions) (*Series, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	ds, err := o.dataset(o.S, o.L)
	if err != nil {
		return nil, err
	}
	g := grid.NewSquare(o.GridN)
	ks := []float64{2, 5, 10, 20, 40}
	return runSweep(ctx, "E3 (Figure 4a): response time vs k", "k", ks, o,
		func(x float64) (traj.Dataset, *grid.Grid, int, int, error) {
			return ds, g, int(x), o.MaxLen, nil
		})
}

// RunE4 reproduces Figure 4(b): response time versus the number of
// trajectories S. TrajPattern is linear in S; PB is super-linear.
func RunE4(ctx context.Context, o SweepOptions) (*Series, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	g := grid.NewSquare(o.GridN)
	// The largest point is bounded by PB's super-linear growth: S = 80
	// already costs PB two orders of magnitude more than TrajPattern on
	// one core, which is the whole content of Figure 4(b).
	ss := []float64{
		float64(scaleInt(20, o.Scale, 5)),
		float64(scaleInt(40, o.Scale, 10)),
		float64(scaleInt(60, o.Scale, 12)),
		float64(scaleInt(80, o.Scale, 15)),
	}
	// One dataset at the largest S, swept by prefix: nested inputs isolate
	// the volume effect from realization noise (zebras join herds
	// round-robin, so every prefix keeps the full herd structure).
	full, err := o.dataset(int(ss[len(ss)-1]), o.L)
	if err != nil {
		return nil, err
	}
	return runSweep(ctx, "E4 (Figure 4b): response time vs number of trajectories S", "S", ss, o,
		func(x float64) (traj.Dataset, *grid.Grid, int, int, error) {
			return full[:int(x)], g, o.K, o.MaxLen, nil
		})
}

// RunE5 reproduces Figure 4(c): response time versus the average
// trajectory length L. Both miners scan the data linearly in L.
func RunE5(ctx context.Context, o SweepOptions) (*Series, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	g := grid.NewSquare(o.GridN)
	ls := []float64{
		float64(scaleInt(25, o.Scale, 5)),
		float64(scaleInt(50, o.Scale, 10)),
		float64(scaleInt(75, o.Scale, 12)),
		float64(scaleInt(100, o.Scale, 15)),
	}
	return runSweep(ctx, "E5 (Figure 4c): response time vs average trajectory length L", "L", ls, o,
		func(x float64) (traj.Dataset, *grid.Grid, int, int, error) {
			ds, err := o.dataset(o.S, int(x))
			return ds, g, o.K, o.MaxLen, err
		})
}

// RunE6 reproduces Figure 4(d): response time versus the number of grids
// G. TrajPattern is linear in G; PB grows exponentially as every grid cell
// becomes a candidate at each unspecified position.
func RunE6(ctx context.Context, o SweepOptions) (*Series, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	ds, err := o.dataset(o.S, o.L)
	if err != nil {
		return nil, err
	}
	// The x axis is G = n², so the sweep is driven by the grid side n and
	// labeled with the resulting cell counts.
	ns := []float64{6, 9, 12, 18}
	tp := Line{Name: "TrajPattern (s)"}
	pb := Line{Name: "PB (s)"}
	var xs []float64
	for _, n := range ns {
		g := grid.NewSquare(int(n))
		xs = append(xs, float64(g.NumCells()))
		tpSec, pbSec, err := timeMiners(ctx, ds, g, o.K, o.MaxLen, o)
		if err != nil {
			return nil, err
		}
		tp.YS = append(tp.YS, tpSec)
		pb.YS = append(pb.YS, pbSec)
	}
	return &Series{
		Title:  "E6 (Figure 4d): response time vs number of grids G",
		XLabel: "G",
		XS:     xs,
		Lines:  []Line{tp, pb},
	}, nil
}

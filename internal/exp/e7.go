package exp

import (
	"context"
	"trajpattern/internal/core"
	"trajpattern/internal/datagen"
	"trajpattern/internal/grid"
)

// E7Options parameterizes the Figure 4(e) sensitivity experiment.
type E7Options struct {
	Sweep SweepOptions
	// Deltas are the indifferent thresholds to test, as multiples of the
	// grid cell size. Nil means {0.5, 1, 1.5, 2, 3}.
	Deltas []float64
}

// RunE7 reproduces Figure 4(e): the number of discovered pattern groups as
// the indifferent threshold δ grows. A larger δ makes more grids
// indifferent from the expected location, so more of the (fixed) k mined
// patterns are similar to each other and the group count drops.
func RunE7(ctx context.Context, o E7Options) (*Series, error) {
	// E7 needs γ = 3σ̄ to span at least one grid cell — otherwise no two
	// patterns are ever similar and the group count is flat at k — so its
	// defaults use a larger uncertainty and a finer grid than the timing
	// sweeps.
	if o.Sweep.K == 0 {
		o.Sweep.K = 20
	}
	if o.Sweep.S == 0 {
		o.Sweep.S = 40
	}
	if o.Sweep.GridN == 0 {
		o.Sweep.GridN = 16
	}
	if o.Sweep.U == 0 {
		o.Sweep.U = 0.06
	}
	sw, err := o.Sweep.withDefaults()
	if err != nil {
		return nil, err
	}
	if o.Deltas == nil {
		o.Deltas = []float64{0.25, 0.5, 1, 2, 4}
	}
	// E7 builds its own dataset (moderate herds, short trajectories): the
	// group-count signal needs more spatial hotspots than k/2 and enough
	// per-hotspot pattern variants for δ to merge — the timing sweeps'
	// defaults concentrate everything on a couple of herds and flatten
	// the curve.
	ds, err := datagen.ZebraDataset(datagen.ZebraConfig{
		NumZebras: 40,
		AvgLen:    30,
		NumGroups: 4,
		Seed:      sw.Seed,
	}, sw.U, sw.C)
	if err != nil {
		return nil, err
	}
	g := grid.NewSquare(sw.GridN)
	gamma := core.DefaultGamma(ds.MeanSigma())

	line := Line{Name: "pattern groups"}
	var xs []float64
	for _, mult := range o.Deltas {
		delta := mult * g.CellWidth()
		s, err := core.NewScorer(ds, core.Config{Grid: g, Delta: delta, Metrics: sw.Metrics, Tracer: sw.Tracer})
		if err != nil {
			return nil, err
		}
		res, err := core.Mine(ctx, s, core.MinerConfig{
			K: sw.K, MaxLen: sw.MaxLen,
			Metrics: sw.Metrics, Tracer: sw.Tracer, OnProgress: sw.Progress,
		})
		if err != nil {
			return nil, err
		}
		patterns := make([]core.Pattern, len(res.Patterns))
		for i, sp := range res.Patterns {
			patterns[i] = sp.Pattern
		}
		groups, err := core.DiscoverGroupsTraced(patterns, g, gamma, sw.Tracer)
		if err != nil {
			return nil, err
		}
		xs = append(xs, delta)
		line.YS = append(line.YS, float64(len(groups)))
	}
	return &Series{
		Title:  "E7 (Figure 4e): pattern groups vs indifferent threshold δ",
		XLabel: "δ",
		XS:     xs,
		Lines:  []Line{line},
	}, nil
}

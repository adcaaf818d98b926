package exp

import (
	"context"
	"trajpattern/internal/core"
	"trajpattern/internal/datagen"
	"trajpattern/internal/grid"
)

// e7Deltas are the indifferent thresholds E7 tests, as multiples of the
// grid cell size.
var e7Deltas = []float64{0.25, 0.5, 1, 2, 4}

// RunE7 reproduces Figure 4(e): the number of discovered pattern groups as
// the indifferent threshold δ grows. A larger δ makes more grids
// indifferent from the expected location, so more of the (fixed) k mined
// patterns are similar to each other and the group count drops.
func RunE7(ctx context.Context, o SweepOptions) (*Series, error) {
	// E7 needs γ = 3σ̄ to span at least one grid cell — otherwise no two
	// patterns are ever similar and the group count is flat at k — so its
	// defaults use a larger uncertainty and a finer grid than the timing
	// sweeps.
	if o.K == 0 {
		o.K = 20
	}
	if o.GridN == 0 {
		o.GridN = 16
	}
	if o.U == 0 {
		o.U = 0.06
	}
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
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
		Seed:      o.Seed,
	}, o.U, sweepC)
	if err != nil {
		return nil, err
	}
	g := grid.NewSquare(o.GridN)
	gamma := core.DefaultGamma(ds.MeanSigma())

	line := Line{Name: "pattern groups"}
	var xs []float64
	for _, mult := range e7Deltas {
		delta := mult * g.CellWidth()
		s, err := core.NewScorer(ds, core.Config{Grid: g, Delta: delta, Metrics: o.Metrics, Tracer: o.Tracer})
		if err != nil {
			return nil, err
		}
		res, err := core.Mine(ctx, s, core.MinerConfig{
			K: o.K, MaxLen: o.MaxLen,
			Metrics: o.Metrics, Tracer: o.Tracer, OnProgress: o.Progress,
		})
		if err != nil {
			return nil, err
		}
		patterns := make([]core.Pattern, len(res.Patterns))
		for i, sp := range res.Patterns {
			patterns[i] = sp.Pattern
		}
		groups, err := core.DiscoverGroups(patterns, g, gamma, o.Tracer)
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

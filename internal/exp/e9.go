package exp

import (
	"context"
	"fmt"

	"trajpattern/internal/classify"
	"trajpattern/internal/core"
	"trajpattern/internal/grid"
	"trajpattern/internal/traj"
)

// E9Options parameterizes the pattern-based classification experiment —
// the application the paper's introduction motivates ("constructing a
// classifier based on the discovered patterns"). Bus traces are labeled by
// route; a per-route pattern set is mined from the training days and the
// held-out day is classified by NM support.
type E9Options struct {
	Bus    BusOptions
	K      int // patterns per class (default 15)
	MinLen int // default 2
	MaxLen int // default 5
}

// E9Result carries the classification outcome.
type E9Result struct {
	Accuracy float64
	Majority float64 // baseline: always predict the largest class
	Table    Table
}

// RunE9 trains the pattern classifier on all but the last day of every
// bus and reports held-out accuracy against the majority-class baseline,
// in both feature spaces: location trajectories (routes occupy different
// places — the easy, high-accuracy case) and velocity trajectories (all
// rectilinear routes share the ±x/±y vocabulary — the hard case, still
// clearly above chance).
func RunE9(ctx context.Context, o E9Options) (*E9Result, error) {
	if o.K == 0 {
		o.K = 15
	}
	if o.MinLen == 0 {
		o.MinLen = 2
	}
	if o.MaxLen == 0 {
		o.MaxLen = 5
	}
	data, err := MakeBusData(o.Bus)
	if err != nil {
		return nil, err
	}
	maxDay := data.BusCfg.Days - 1
	split := func(source traj.Dataset) (map[string]traj.Dataset, map[string]traj.Dataset) {
		train := make(map[string]traj.Dataset)
		test := make(map[string]traj.Dataset)
		for i, tr := range data.Traces {
			name := fmt.Sprintf("route-%d", tr.Route)
			if tr.Day == maxDay {
				test[name] = append(test[name], source[i])
			} else {
				train[name] = append(train[name], source[i])
			}
		}
		return train, test
	}
	// Location trajectories are one snapshot longer than velocity ones;
	// both index by trace, so the split applies to either.
	run := func(source traj.Dataset, sc core.Config) (float64, error) {
		train, test := split(source)
		c, err := classify.Train(ctx, train, classify.Config{
			Scorer: sc, K: o.K, MinLen: o.MinLen, MaxLen: o.MaxLen,
		})
		if err != nil {
			return 0, err
		}
		acc, _, err := c.Evaluate(test)
		return acc, err
	}

	velAcc, err := run(data.Velocities, core.Config{Grid: data.Grid, Delta: data.Grid.CellWidth()})
	if err != nil {
		return nil, err
	}
	locGrid := grid.NewSquare(16)
	locAcc, err := run(data.Locations, core.Config{Grid: locGrid, Delta: locGrid.CellWidth()})
	if err != nil {
		return nil, err
	}

	// Majority baseline.
	_, test := split(data.Velocities)
	largest, total := 0, 0
	for _, ds := range test {
		total += len(ds)
		if len(ds) > largest {
			largest = len(ds)
		}
	}
	res := &E9Result{
		Accuracy: locAcc,
		Majority: float64(largest) / float64(total),
	}
	res.Table = Table{
		Title:   fmt.Sprintf("E9 (intro use case): route classification from mined patterns, k=%d per class", o.K),
		Columns: []string{"classifier", "accuracy"},
		Rows: [][]string{
			{"location patterns", fmt.Sprintf("%.1f%%", locAcc*100)},
			{"velocity patterns", fmt.Sprintf("%.1f%%", velAcc*100)},
			{"majority baseline", fmt.Sprintf("%.1f%%", res.Majority*100)},
		},
	}
	return res, nil
}

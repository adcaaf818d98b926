package exp

import (
	"context"
	"fmt"
	"math"

	"trajpattern/internal/core"
	"trajpattern/internal/grid"
)

// RunA6 validates the §4.4 complexity analysis empirically: the paper
// derives O(k²G) candidate evaluations per iteration. The table sweeps k
// (fixed G) and G (fixed k), reports the total candidate evaluations the
// miner performed, and fits the log-log slope between consecutive points —
// the empirical growth exponent. Measured: the k-exponent sits around 1.5–2
// (both factors of the candidate product scale with k, damped by dedup
// across iterations), while the G-exponent is well below the paper's 1 —
// because the miner seeds from observed cells only, the effective alphabet
// grows with the data's spatial support, not with the raw cell count; the
// paper's G-linear term assumes every grid cell is a seed.
func RunA6(ctx context.Context, o SweepOptions) (*Table, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	ds, err := o.dataset(o.S, o.L)
	if err != nil {
		return nil, err
	}

	table := &Table{
		Title:   "A6: empirical growth of candidate evaluations (paper: O(k²G) per iteration)",
		Columns: []string{"sweep", "value", "candidates", "log-log slope vs previous"},
	}

	run := func(k, gridN int) (int, error) {
		g := grid.NewSquare(gridN)
		s, err := core.NewScorer(ds, core.Config{Grid: g, Delta: g.CellWidth()})
		if err != nil {
			return 0, err
		}
		res, err := core.Mine(ctx, s, core.MinerConfig{K: k, MaxLen: o.MaxLen})
		if err != nil {
			return 0, err
		}
		return res.Stats.Candidates, nil
	}

	addSweep := func(name string, xs []int, f func(x int) (int, error)) error {
		prevX, prevC := 0, 0
		for _, x := range xs {
			c, err := f(x)
			if err != nil {
				return err
			}
			slope := "-"
			if prevX > 0 && prevC > 0 && c > 0 {
				slope = fmt.Sprintf("%.2f",
					math.Log(float64(c)/float64(prevC))/math.Log(float64(x)/float64(prevX)))
			}
			table.Rows = append(table.Rows, []string{
				name, fmt.Sprintf("%d", x), fmt.Sprintf("%d", c), slope,
			})
			prevX, prevC = x, c
		}
		return nil
	}

	if err := addSweep("k (G fixed)", []int{5, 10, 20, 40}, func(k int) (int, error) {
		return run(k, o.GridN)
	}); err != nil {
		return nil, err
	}
	// The G sweep's x axis is the cell count G = n², so the fitted slope
	// is the exponent with respect to G itself.
	if err := addSweep("G (k fixed)", []int{36, 144, 576}, func(G int) (int, error) {
		n := int(math.Round(math.Sqrt(float64(G))))
		return run(o.K, n)
	}); err != nil {
		return nil, err
	}
	return table, nil
}

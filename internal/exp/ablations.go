package exp

import (
	"context"
	"fmt"

	"trajpattern/internal/core"
	"trajpattern/internal/grid"
)

// RunA1 is the 1-extension pruning ablation: the same mining problem with
// and without the Prune step of §4.1. Results are identical (the lemma
// guarantees no top-k pattern is lost); the peak size of Q and the
// candidate count differ.
func RunA1(ctx context.Context, o SweepOptions) (*Table, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	ds, err := o.dataset(o.S, o.L)
	if err != nil {
		return nil, err
	}
	g := grid.NewSquare(o.GridN)

	run := func(disable bool) (core.MinerStats, float64, []core.ScoredPattern, error) {
		s, err := core.NewScorer(ds, core.Config{Grid: g, Delta: g.CellWidth()})
		if err != nil {
			return core.MinerStats{}, 0, nil, err
		}
		elapsed := stopwatch()
		res, err := core.Mine(ctx, s, core.MinerConfig{K: o.K, MaxLen: o.MaxLen, DisablePrune: disable})
		if err != nil {
			return core.MinerStats{}, 0, nil, err
		}
		return res.Stats, elapsed(), res.Patterns, nil
	}
	withStats, withSec, withPats, err := run(false)
	if err != nil {
		return nil, err
	}
	noStats, noSec, noPats, err := run(true)
	if err != nil {
		return nil, err
	}
	identical := len(withPats) == len(noPats)
	for i := 0; identical && i < len(withPats); i++ {
		identical = withPats[i].Pattern.Equal(noPats[i].Pattern)
	}
	row := func(name string, st core.MinerStats, sec float64) []string {
		return []string{
			name,
			fmt.Sprintf("%.3f", sec),
			fmt.Sprintf("%d", st.MaxQ),
			fmt.Sprintf("%d", st.Candidates),
			fmt.Sprintf("%d", st.Pruned),
			fmt.Sprintf("%v", identical),
		}
	}
	return &Table{
		Title:   "A1: 1-extension pruning ablation",
		Columns: []string{"variant", "time (s)", "max |Q|", "candidates", "pruned", "same top-k"},
		Rows: [][]string{
			row("with pruning", withStats, withSec),
			row("without pruning", noStats, noSec),
		},
	}, nil
}

// RunA2 is the probability-mode ablation: NM evaluation cost and values
// under the box (default) versus disk interpretation of Prob(l,σ,p,δ).
func RunA2(ctx context.Context, o SweepOptions) (*Table, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	ds, err := o.dataset(o.S, o.L)
	if err != nil {
		return nil, err
	}
	g := grid.NewSquare(o.GridN)

	run := func(mode core.ProbMode) (float64, float64, error) {
		s, err := core.NewScorer(ds, core.Config{Grid: g, Delta: g.CellWidth(), Mode: mode})
		if err != nil {
			return 0, 0, err
		}
		elapsed := stopwatch()
		res, err := core.Mine(ctx, s, core.MinerConfig{K: o.K, MaxLen: o.MaxLen})
		if err != nil {
			return 0, 0, err
		}
		var best float64
		if len(res.Patterns) > 0 {
			best = res.Patterns[0].NM
		}
		return elapsed(), best, nil
	}
	boxSec, boxBest, err := run(core.ProbBox)
	if err != nil {
		return nil, err
	}
	diskSec, diskBest, err := run(core.ProbDisk)
	if err != nil {
		return nil, err
	}
	return &Table{
		Title:   "A2: Prob(l,σ,p,δ) box vs disk ablation",
		Columns: []string{"mode", "time (s)", "best NM"},
		Rows: [][]string{
			{"box", fmt.Sprintf("%.3f", boxSec), fmt.Sprintf("%.4f", boxBest)},
			{"disk", fmt.Sprintf("%.3f", diskSec), fmt.Sprintf("%.4f", diskBest)},
		},
	}, nil
}

package exp

import (
	"context"
	"fmt"
	"sort"

	"trajpattern/internal/core"
	"trajpattern/internal/grid"
)

// RunA4 is the MaxLowQ sensitivity ablation: the documented deviation from
// the paper caps the low 1-extension patterns retained in Q. The table
// sweeps the cap and reports runtime, peak |Q| and answer quality (the sum
// of the top-k NM values, higher = better), showing how small a cap
// preserves the result.
func RunA4(ctx context.Context, o SweepOptions) (*Table, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	ds, err := o.dataset(o.S, o.L)
	if err != nil {
		return nil, err
	}
	g := grid.NewSquare(o.GridN)

	type variant struct {
		name string
		cap  int
	}
	variants := []variant{
		{"K", o.K},
		{"2K", 2 * o.K},
		{"4K", 4 * o.K},
		{"unlimited (paper)", -1},
	}
	table := &Table{
		Title:   "A4: MaxLowQ cap sensitivity",
		Columns: []string{"cap", "time (s)", "max |Q|", "candidates", "Σ top-k NM"},
	}
	for _, v := range variants {
		s, err := core.NewScorer(ds, core.Config{Grid: g, Delta: g.CellWidth()})
		if err != nil {
			return nil, err
		}
		elapsed := stopwatch()
		res, err := core.Mine(ctx, s, core.MinerConfig{K: o.K, MaxLen: o.MaxLen, MaxLowQ: v.cap})
		if err != nil {
			return nil, err
		}
		var sum float64
		for _, sp := range res.Patterns {
			sum += sp.NM
		}
		table.Rows = append(table.Rows, []string{
			v.name,
			fmt.Sprintf("%.3f", elapsed()),
			fmt.Sprintf("%d", res.Stats.MaxQ),
			fmt.Sprintf("%d", res.Stats.Candidates),
			fmt.Sprintf("%.2f", sum),
		})
	}
	return table, nil
}

// RunA5 measures the Section 5 wildcard refinement: how many of the top-k
// patterns improve when up to d wild cards may be inserted, and by how
// much on average. The top-k does not depend on d, so it is mined once
// and refined once per budget.
func RunA5(ctx context.Context, o SweepOptions) (*Table, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	ds, err := o.dataset(o.S, o.L)
	if err != nil {
		return nil, err
	}
	g := grid.NewSquare(o.GridN)
	s, err := core.NewScorer(ds, core.Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		return nil, err
	}
	plain, err := core.Mine(ctx, s, core.MinerConfig{K: o.K, MinLen: 2, MaxLen: o.MaxLen})
	if err != nil {
		return nil, err
	}

	table := &Table{
		Title:   "A5: §5 wildcard refinement of the top-k",
		Columns: []string{"budget d", "patterns improved", "mean NM gain"},
	}
	for _, d := range []int{1, 2, 3} {
		wild := make([]core.ScoredWildPattern, len(plain.Patterns))
		for i, sp := range plain.Patterns {
			wp, nm, err := s.ExpandWithWildcards(sp.Pattern, d)
			if err != nil {
				return nil, err
			}
			wild[i] = core.ScoredWildPattern{Pattern: wp, NM: nm}
		}
		// Re-rank the refined set as MineWithWildcards does. Count refined
		// entries that contain at least one wildcard, and sum the NM gain
		// of the refined set over the plain set rank by rank.
		sort.SliceStable(wild, func(i, j int) bool { return wild[i].NM > wild[j].NM })
		improved := 0
		for _, w := range wild {
			if w.Pattern.SpecifiedLen() != len(w.Pattern) {
				improved++
			}
		}
		var gain float64
		for i := range wild {
			gain += wild[i].NM - plain.Patterns[i].NM
		}
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", d),
			fmt.Sprintf("%d / %d", improved, len(wild)),
			fmt.Sprintf("%.3f", gain/float64(len(wild))),
		})
	}
	return table, nil
}

package exp

import (
	"context"
	"fmt"

	"trajpattern/internal/baseline"
	"trajpattern/internal/core"
	"trajpattern/internal/grid"
	"trajpattern/internal/traj"
)

// E1Options parameterizes the §6.1 pattern-length comparison. The paper
// mines k = 1000 on its 3.2 GHz testbed; the default here is k = 100 with
// a half-scale fleet so the experiment completes in minutes on one core —
// the comparison is between the two measures at equal k, so the shape is
// preserved at any k.
type E1Options struct {
	Bus    BusOptions
	K      int // patterns to mine (paper: 1000; default 100)
	MinLen int // length floor (paper: 3)
	MaxLen int // search cap (default 8)
}

// LengthResult carries a pattern-length comparison (E1 and E8): the
// average length of the top-k NM and match patterns.
type LengthResult struct {
	AvgLenNM    float64
	AvgLenMatch float64
	Table       Table
}

// RunE1 reproduces the §6.1 statistic: the average length of the top-k NM
// patterns of length >= 3 versus the top-k match patterns of the same
// floor (paper: 4.2 vs 3.18 at k = 1000).
func RunE1(ctx context.Context, o E1Options) (*LengthResult, error) {
	if o.K == 0 {
		o.K = 100
	}
	if o.MinLen == 0 {
		o.MinLen = 3
	}
	if o.MaxLen == 0 {
		o.MaxLen = 8
	}
	if o.Bus.Scale == 0 {
		o.Bus.Scale = 0.5
	}
	if o.Bus.GridN == 0 {
		o.Bus.GridN = 20
	}
	data, err := MakeBusData(o.Bus)
	if err != nil {
		return nil, err
	}
	return compareLengths(ctx, data.Velocities, data.Grid, o.K, o.MinLen, o.MaxLen,
		fmt.Sprintf("E1 (§6.1): average pattern length, top-%d, length ≥ %d", o.K, o.MinLen),
		"4.20", "3.18")
}

// mineNMAndMatch mines the top-k of ds by NM (TrajPattern) and by match
// ([14]) with the same length bounds, each on a fresh scorer with δ one
// cell of g, so cached probabilities do not leak across the measures.
func mineNMAndMatch(ctx context.Context, ds traj.Dataset, g *grid.Grid, k, minLen, maxLen int) (nm, match []core.Pattern, err error) {
	mk := func() (*core.Scorer, error) {
		return core.NewScorer(ds, core.Config{Grid: g, Delta: g.CellWidth()})
	}
	sNM, err := mk()
	if err != nil {
		return nil, nil, err
	}
	nmRes, err := core.Mine(ctx, sNM, core.MinerConfig{K: k, MinLen: minLen, MaxLen: maxLen})
	if err != nil {
		return nil, nil, err
	}
	sM, err := mk()
	if err != nil {
		return nil, nil, err
	}
	mRes, err := baseline.MineMatch(sM, baseline.MatchConfig{K: k, MinLen: minLen, MaxLen: maxLen})
	if err != nil {
		return nil, nil, err
	}
	for _, sp := range nmRes.Patterns {
		nm = append(nm, sp.Pattern)
	}
	for _, sm := range mRes.Patterns {
		match = append(match, sm.Pattern)
	}
	return nm, match, nil
}

// compareLengths mines ds by both measures and tabulates the average
// pattern length of each under title. paper, when given, holds the
// paper's NM and match figures for a last column.
func compareLengths(ctx context.Context, ds traj.Dataset, g *grid.Grid, k, minLen, maxLen int, title string, paper ...string) (*LengthResult, error) {
	nm, match, err := mineNMAndMatch(ctx, ds, g, k, minLen, maxLen)
	if err != nil {
		return nil, err
	}
	res := &LengthResult{AvgLenNM: avgLen(nm), AvgLenMatch: avgLen(match)}
	res.Table = Table{
		Title:   title,
		Columns: []string{"measure", "avg length", "patterns"},
		Rows: [][]string{
			{"NM (TrajPattern)", fmt.Sprintf("%.2f", res.AvgLenNM), fmt.Sprintf("%d", len(nm))},
			{"match ([14])", fmt.Sprintf("%.2f", res.AvgLenMatch), fmt.Sprintf("%d", len(match))},
		},
	}
	if len(paper) > 0 {
		res.Table.Columns = append(res.Table.Columns, "paper")
		for i := range res.Table.Rows {
			res.Table.Rows[i] = append(res.Table.Rows[i], paper[i])
		}
	}
	return res, nil
}

// avgLen is the average length of patterns, 0 when there are none.
func avgLen(patterns []core.Pattern) float64 {
	if len(patterns) == 0 {
		return 0
	}
	var sum int
	for _, p := range patterns {
		sum += len(p)
	}
	return float64(sum) / float64(len(patterns))
}

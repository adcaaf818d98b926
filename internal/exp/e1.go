package exp

import (
	"context"
	"fmt"

	"trajpattern/internal/baseline"
	"trajpattern/internal/core"
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

// E1Result carries the raw numbers behind the E1 table.
type E1Result struct {
	AvgLenNM    float64
	AvgLenMatch float64
	NMPatterns  []core.ScoredPattern
	Table       Table
}

// RunE1 reproduces the §6.1 statistic: the average length of the top-k NM
// patterns of length >= 3 versus the top-k match patterns of the same
// floor (paper: 4.2 vs 3.18 at k = 1000).
func RunE1(ctx context.Context, o E1Options) (*E1Result, error) {
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

	sNM, err := data.Scorer()
	if err != nil {
		return nil, err
	}
	nmRes, err := core.Mine(ctx, sNM, core.MinerConfig{K: o.K, MinLen: o.MinLen, MaxLen: o.MaxLen})
	if err != nil {
		return nil, err
	}

	sM, err := data.Scorer()
	if err != nil {
		return nil, err
	}
	mRes, err := baseline.MineMatch(sM, baseline.MatchConfig{K: o.K, MinLen: o.MinLen, MaxLen: o.MaxLen})
	if err != nil {
		return nil, err
	}

	var nmSum, mSum int
	for _, p := range nmRes.Patterns {
		nmSum += len(p.Pattern)
	}
	for _, p := range mRes.Patterns {
		mSum += len(p.Pattern)
	}
	res := &E1Result{NMPatterns: nmRes.Patterns}
	if n := len(nmRes.Patterns); n > 0 {
		res.AvgLenNM = float64(nmSum) / float64(n)
	}
	if n := len(mRes.Patterns); n > 0 {
		res.AvgLenMatch = float64(mSum) / float64(n)
	}
	res.Table = Table{
		Title:   fmt.Sprintf("E1 (§6.1): average pattern length, top-%d, length ≥ %d", o.K, o.MinLen),
		Columns: []string{"measure", "avg length", "patterns", "paper"},
		Rows: [][]string{
			{"NM (TrajPattern)", fmt.Sprintf("%.2f", res.AvgLenNM), fmt.Sprintf("%d", len(nmRes.Patterns)), "4.20"},
			{"match ([14])", fmt.Sprintf("%.2f", res.AvgLenMatch), fmt.Sprintf("%d", len(mRes.Patterns)), "3.18"},
		},
	}
	return res, nil
}

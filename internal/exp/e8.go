package exp

import (
	"context"
	"fmt"

	"trajpattern/internal/baseline"
	"trajpattern/internal/core"
	"trajpattern/internal/datagen"
	"trajpattern/internal/grid"
)

// E8Options parameterizes the posture-data variant of the §6.1 comparison.
// The paper reports that its second real data set (human postures) shows
// "similar results" to the bus data but omits the numbers; E8 makes that
// claim checkable on the simulated posture data.
type E8Options struct {
	Subjects int // default 50
	Length   int // snapshots per subject (default 120)
	K        int // patterns to mine (default 100)
	MinLen   int // length floor (default 3)
	MaxLen   int // search cap (default 10)
	GridN    int // grid side (default 16)
	Seed     uint64
}

// E8Result carries the posture-data pattern-length comparison.
type E8Result struct {
	AvgLenNM    float64
	AvgLenMatch float64
	Table       Table
}

// RunE8 mines the top-k NM and match patterns (length >= MinLen) on the
// simulated human-posture dataset and compares average pattern lengths —
// the posture-data analogue of E1.
func RunE8(ctx context.Context, o E8Options) (*E8Result, error) {
	if o.Subjects == 0 {
		o.Subjects = 50
	}
	if o.Length == 0 {
		o.Length = 120
	}
	if o.K == 0 {
		o.K = 100
	}
	if o.MinLen == 0 {
		o.MinLen = 3
	}
	if o.MaxLen == 0 {
		o.MaxLen = 10
	}
	if o.GridN == 0 {
		o.GridN = 16
	}
	ds, err := datagen.PostureDataset(datagen.PostureConfig{
		NumSubjects: o.Subjects,
		Length:      o.Length,
		Seed:        o.Seed,
	}, 0.02, 2)
	if err != nil {
		return nil, err
	}
	g := grid.NewSquare(o.GridN)
	mk := func() (*core.Scorer, error) {
		return core.NewScorer(ds, core.Config{Grid: g, Delta: g.CellWidth()})
	}

	sNM, err := mk()
	if err != nil {
		return nil, err
	}
	nmRes, err := core.Mine(ctx, sNM, core.MinerConfig{
		K: o.K, MinLen: o.MinLen, MaxLen: o.MaxLen,
	})
	if err != nil {
		return nil, err
	}
	sM, err := mk()
	if err != nil {
		return nil, err
	}
	mRes, err := baseline.MineMatch(sM, baseline.MatchConfig{
		K: o.K, MinLen: o.MinLen, MaxLen: o.MaxLen,
	})
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
	res := &E8Result{}
	if n := len(nmRes.Patterns); n > 0 {
		res.AvgLenNM = float64(nmSum) / float64(n)
	}
	if n := len(mRes.Patterns); n > 0 {
		res.AvgLenMatch = float64(mSum) / float64(n)
	}
	res.Table = Table{
		Title:   fmt.Sprintf("E8 (§6.1, posture data): average pattern length, top-%d, length ≥ %d", o.K, o.MinLen),
		Columns: []string{"measure", "avg length", "patterns"},
		Rows: [][]string{
			{"NM (TrajPattern)", fmt.Sprintf("%.2f", res.AvgLenNM), fmt.Sprintf("%d", len(nmRes.Patterns))},
			{"match ([14])", fmt.Sprintf("%.2f", res.AvgLenMatch), fmt.Sprintf("%d", len(mRes.Patterns))},
		},
	}
	return res, nil
}

package exp

import (
	"context"
	"fmt"

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

// RunE8 mines the top-k NM and match patterns (length >= MinLen) on the
// simulated human-posture dataset and compares average pattern lengths —
// the posture-data analogue of E1.
func RunE8(ctx context.Context, o E8Options) (*LengthResult, error) {
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
	return compareLengths(ctx, ds, g, o.K, o.MinLen, o.MaxLen,
		fmt.Sprintf("E8 (§6.1, posture data): average pattern length, top-%d, length ≥ %d", o.K, o.MinLen))
}

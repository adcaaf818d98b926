package classify

import (
	"context"
	"math"
	"testing"

	"trajpattern/internal/core"
	"trajpattern/internal/datagen"
	"trajpattern/internal/grid"
	"trajpattern/internal/stat"
	"trajpattern/internal/traj"
)

// classData builds trajectories walking the given cell loop with noise.
func classData(seed uint64, g *grid.Grid, loop []int, n, reps int) traj.Dataset {
	rng := stat.NewRNG(seed)
	ds := make(traj.Dataset, n)
	for i := range ds {
		var tr traj.Trajectory
		for r := 0; r < reps; r++ {
			for _, cell := range loop {
				c := g.CenterAt(cell)
				tr = append(tr, traj.P(c.X+rng.Normal(0, 0.01), c.Y+rng.Normal(0, 0.01), 0.03))
			}
		}
		ds[i] = tr
	}
	return ds
}

func twoClassFixture(t *testing.T) (*grid.Grid, map[string]traj.Dataset, map[string]traj.Dataset) {
	t.Helper()
	g := grid.NewSquare(5)
	// Class A walks the bottom row, class B the left column.
	train := map[string]traj.Dataset{
		"rowers":   classData(1, g, []int{0, 1, 2, 3}, 6, 3),
		"climbers": classData(2, g, []int{0, 5, 10, 15}, 6, 3),
	}
	test := map[string]traj.Dataset{
		"rowers":   classData(3, g, []int{0, 1, 2, 3}, 4, 3),
		"climbers": classData(4, g, []int{0, 5, 10, 15}, 4, 3),
	}
	return g, train, test
}

func cfg(g *grid.Grid) Config {
	return Config{
		Scorer: core.Config{Grid: g, Delta: g.CellWidth()},
		K:      6, MinLen: 2, MaxLen: 4,
	}
}

func TestTrainValidation(t *testing.T) {
	g, train, _ := twoClassFixture(t)
	if _, err := Train(context.Background(), map[string]traj.Dataset{"only": train["rowers"]}, cfg(g)); err == nil {
		t.Error("single class accepted")
	}
	bad := map[string]traj.Dataset{"a": train["rowers"], "b": nil}
	if _, err := Train(context.Background(), bad, cfg(g)); err == nil {
		t.Error("empty class accepted")
	}
}

func TestClassifySeparatesClasses(t *testing.T) {
	g, train, test := twoClassFixture(t)
	c, err := Train(context.Background(), train, cfg(g))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.classes; len(got) != 2 || got[0] != "climbers" {
		t.Errorf("Classes = %v", got)
	}
	acc, confusion, err := c.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("accuracy = %.2f, confusion %v", acc, confusion)
	}
	// Confusion diagonal dominates.
	for truth, row := range confusion {
		if row[truth] == 0 {
			t.Errorf("class %s never correctly classified: %v", truth, row)
		}
	}
}

func TestClassifyScores(t *testing.T) {
	g, train, test := twoClassFixture(t)
	c, err := Train(context.Background(), train, cfg(g))
	if err != nil {
		t.Fatal(err)
	}
	tr := test["rowers"][0]
	pred, scores, err := c.Classify(tr)
	if err != nil {
		t.Fatal(err)
	}
	if pred != "rowers" {
		t.Errorf("pred = %s (scores %v)", pred, scores)
	}
	if scores["rowers"] <= scores["climbers"] {
		t.Errorf("score ordering wrong: %v", scores)
	}
	if _, _, err := c.Classify(nil); err == nil {
		t.Error("empty trajectory accepted")
	}
}

// TestScoreIsMeanNM pins Score to its definition bit for bit: each class
// score is the mean, over the class's patterns in mined order, of the
// pattern's NM on a scorer over the trajectory alone. Besides the
// fixture's test set it scores seeded zebra paths cut to mixed lengths,
// some shorter than the longest mined pattern, where NM is the floor.
func TestScoreIsMeanNM(t *testing.T) {
	g, train, test := twoClassFixture(t)
	c, err := Train(context.Background(), train, cfg(g))
	if err != nil {
		t.Fatal(err)
	}
	longest := 0
	for _, name := range c.classes {
		for _, sp := range c.model[name] {
			longest = max(longest, len(sp.Pattern))
		}
	}
	zebras, err := datagen.ZebraDataset(datagen.ZebraConfig{NumZebras: 30, NumGroups: 3, AvgLen: 12, Seed: 9}, 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	trs := append(append(traj.Dataset(nil), test["climbers"]...), test["rowers"]...)
	short := 0
	for i, tr := range zebras {
		tr = tr[:min(len(tr), 1+i%(2*longest))]
		if len(tr) < longest {
			short++
		}
		trs = append(trs, tr)
	}
	if short == 0 {
		t.Fatalf("no trajectory shorter than the longest pattern (%d)", longest)
	}
	for i, tr := range trs {
		got, err := c.Score(tr)
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.NewScorer(traj.Dataset{tr}, cfg(g).Scorer)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range c.classes {
			pats := c.model[name]
			var sum float64
			for _, sp := range pats {
				sum += s.NM(sp.Pattern)
			}
			if want := sum / float64(len(pats)); math.Float64bits(got[name]) != math.Float64bits(want) {
				t.Errorf("trajectory %d (length %d), class %s: Score %v, mean NM %v", i, len(tr), name, got[name], want)
			}
		}
	}
}

func TestEvaluateEmpty(t *testing.T) {
	g, train, _ := twoClassFixture(t)
	c, err := Train(context.Background(), train, cfg(g))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Evaluate(map[string]traj.Dataset{}); err == nil {
		t.Error("empty test set accepted")
	}
}

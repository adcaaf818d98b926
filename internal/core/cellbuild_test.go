package core_test

import (
	"math"
	"sync"
	"testing"

	"trajpattern/internal/cli"
	"trajpattern/internal/core"
	"trajpattern/internal/geom"
	"trajpattern/internal/grid"
	"trajpattern/internal/obs"
	"trajpattern/internal/stat"
	"trajpattern/internal/traj"
)

// cellBuildData is a dataset with more positions than one build block,
// trajectories of uneven length (one empty), σ = 0 points on and off cell
// boundaries, and points far outside the grid whose probabilities
// underflow to the floor.
func cellBuildData(seed uint64) traj.Dataset {
	rng := stat.NewRNG(seed)
	var d traj.Dataset
	for i := 0; i < 9; i++ {
		tr := make(traj.Trajectory, 13+i*7)
		for j := range tr {
			tr[j] = traj.P(rng.Float64(), rng.Float64(), 0.01+0.2*rng.Float64())
		}
		d = append(d, tr)
	}
	d = append(d, traj.Trajectory{}, traj.Trajectory{
		traj.P(0.5, 0.5, 0), traj.P(0.25, 0.75, 0), traj.P(1.0/7, 0.3, 0),
		traj.P(0.93, 0.06, 0), traj.P(40, -40, 0.05), traj.P(-3, 0.5, 0.001),
	})
	return d
}

// checkCells checks every cell's vector against logProb at every flat
// position, bit for bit.
func checkCells(t *testing.T, s *core.Scorer, data traj.Dataset) {
	t.Helper()
	for c := 0; c < s.Config().Grid.NumCells(); c++ {
		v := s.CellVector(c)
		p := 0
		for ti, tr := range data {
			for j, pt := range tr {
				if got, want := v[p], s.LogProb(pt, c); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("cell %d, traj %d snapshot %d: built %v, logProb %v", c, ti, j, got, want)
				}
				p++
			}
		}
		if p != len(v) {
			t.Fatalf("cell %d: vector has %d positions, dataset %d", c, len(v), p)
		}
	}
}

// TestCellBuildMatchesLogProb checks that the batch cell build reproduces
// logProb at every position, bit for bit: on non-square and fitted grids,
// in both modes, when Prepare builds every cell at once and when
// overlapping Prepare calls race to build them.
func TestCellBuildMatchesLogProb(t *testing.T) {
	data := cellBuildData(11)
	fitted := cli.FitGrid(data[:9], 9)
	cases := []struct {
		name  string
		g     *grid.Grid
		delta float64
		mode  core.ProbMode
	}{
		{"unit 7x4", grid.New(geom.UnitSquare(), 7, 4), 1.0 / 7, core.ProbBox},
		{"unit 3x8 wide delta", grid.New(geom.UnitSquare(), 3, 8), 0.4, core.ProbBox},
		{"fitted 9x9", fitted, fitted.CellWidth(), core.ProbBox},
		{"disk 4x3", grid.New(geom.UnitSquare(), 4, 3), 0.25, core.ProbDisk},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.Config{Grid: tc.g, Delta: tc.delta, Mode: tc.mode}
			all, err := core.NewScorer(data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			all.Prepare(all.AllCells())
			checkCells(t, all, data)

			reg := obs.New()
			cfg.Metrics = reg
			raced, err := core.NewScorer(data, cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := tc.g.NumCells()
			const goroutines = 4
			requested := 0
			var wg sync.WaitGroup
			for w := 0; w < goroutines; w++ {
				cells := make([]int, 0, n)
				for c := w % 3; c < n; c += 1 + w%2 {
					cells = append(cells, c)
				}
				requested += len(cells)
				wg.Add(1)
				go func() {
					defer wg.Done()
					raced.Prepare(cells)
				}()
			}
			wg.Wait()
			snap := reg.Snapshot()
			if got := snap.Counter("scorer.cells.built") + snap.Counter("scorer.cache.hits"); got != int64(requested) {
				t.Errorf("cells built + cache hits = %d, want %d requested", got, requested)
			}
			if got := raced.CacheSize(); got != n {
				t.Errorf("CacheSize = %d after overlapping Prepare calls, want %d", got, n)
			}
			checkCells(t, raced, data)
		})
	}
}

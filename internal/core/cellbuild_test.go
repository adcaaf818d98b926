package core_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"trajpattern/internal/cli"
	"trajpattern/internal/core"
	"trajpattern/internal/datagen"
	"trajpattern/internal/geom"
	"trajpattern/internal/grid"
	"trajpattern/internal/obs"
	"trajpattern/internal/stat"
	"trajpattern/internal/traj"
)

// cellBuildData is a dataset of nTraj random trajectories of uneven
// length (13, 20, 27, … snapshots), one empty trajectory, and the edge
// trajectory. Nine random trajectories make 375 positions, two build
// blocks; twenty-five make 2,431, ten blocks.
func cellBuildData(seed uint64, nTraj int) traj.Dataset {
	rng := stat.NewRNG(seed)
	var d traj.Dataset
	for i := 0; i < nTraj; i++ {
		tr := make(traj.Trajectory, 13+i*7)
		for j := range tr {
			tr[j] = traj.P(rng.Float64(), rng.Float64(), 0.01+0.2*rng.Float64())
		}
		d = append(d, tr)
	}
	return append(d, traj.Trajectory{}, edgeTrajectory())
}

// edgeTrajectory holds σ = 0 points on and off cell boundaries and points
// far outside the grid whose probabilities underflow to the floor.
func edgeTrajectory() traj.Trajectory {
	return traj.Trajectory{
		traj.P(0.5, 0.5, 0), traj.P(0.25, 0.75, 0), traj.P(1.0/7, 0.3, 0),
		traj.P(0.93, 0.06, 0), traj.P(40, -40, 0.05), traj.P(-3, 0.5, 0.001),
	}
}

// zebraBuildData is a smaller copy of perfbench's mine-cold dataset (40
// zebras of average length 30 in 5 herds, U 0.02, c 2, so σ 0.01) and
// the edge trajectory.
func zebraBuildData(t *testing.T) traj.Dataset {
	t.Helper()
	d, err := datagen.ZebraDataset(datagen.ZebraConfig{NumZebras: 40, AvgLen: 30, NumGroups: 5, Seed: 1}, 0.02, 2)
	if err != nil {
		t.Fatal(err)
	}
	return append(d, edgeTrajectory())
}

// boxBranches counts how often data reaches each branch of the box-mode
// build on grid g at δ: positions where a bound value that two columns
// (or rows) share to the bit bounds two non-zero masses, so both read its
// one erfc term; cell entries whose mass is exactly 0, stored as the floor
// without a log; entries whose mass is positive but whose log is below
// the floor; and positions of σ = 0.
func boxBranches(g *grid.Grid, delta float64, data traj.Dataset) (shared, zero, clamped, exact int) {
	// pairs returns each pair of slots whose boxes around centers meet at
	// one bound value.
	pairs := func(centers []float64) [][2]float64 {
		var out [][2]float64
		for _, a := range centers {
			for _, b := range centers {
				if math.Float64bits(a+delta) == math.Float64bits(b-delta) {
					out = append(out, [2]float64{a, b})
				}
			}
		}
		return out
	}
	var cx, cy []float64
	for i := 0; i < g.NX(); i++ {
		cx = append(cx, g.Center(grid.Cell{X: i}).X)
	}
	for j := 0; j < g.NY(); j++ {
		cy = append(cy, g.Center(grid.Cell{Y: j}).Y)
	}
	px, py := pairs(cx), pairs(cy)
	both := func(pairs [][2]float64, mu, sigma float64) bool {
		for _, pr := range pairs {
			if stat.NormalIntervalProb(pr[0]-delta, pr[0]+delta, mu, sigma) > 0 &&
				stat.NormalIntervalProb(pr[1]-delta, pr[1]+delta, mu, sigma) > 0 {
				return true
			}
		}
		return false
	}
	for _, tr := range data {
		for _, pt := range tr {
			if pt.Sigma == 0 {
				exact++
			}
			if both(px, pt.Mean.X, pt.Sigma) || both(py, pt.Mean.Y, pt.Sigma) {
				shared++
			}
			for c := 0; c < g.NumCells(); c++ {
				ctr := g.CenterAt(c)
				switch p := stat.BoxProb2D(pt.Mean.X, pt.Mean.Y, pt.Sigma, ctr.X, ctr.Y, delta); {
				case p == 0:
					zero++
				case math.Log(p) < core.DefaultLogFloor:
					clamped++
				}
			}
		}
	}
	return shared, zero, clamped, exact
}

// refVectors returns logProb of every cell at every flat position, the
// reference every built vector must equal.
func refVectors(s *core.Scorer, data traj.Dataset) [][]float64 {
	ref := make([][]float64, s.Config().Grid.NumCells())
	for c := range ref {
		for _, tr := range data {
			for _, pt := range tr {
				ref[c] = append(ref[c], s.LogProb(pt, c))
			}
		}
	}
	return ref
}

// checkVector checks cell c's vector v against the reference, bit for bit.
func checkVector(t *testing.T, ref [][]float64, c int, v []float64) {
	t.Helper()
	if len(v) != len(ref[c]) {
		t.Fatalf("cell %d: vector has %d positions, dataset %d", c, len(v), len(ref[c]))
	}
	for p, want := range ref[c] {
		if math.Float64bits(v[p]) != math.Float64bits(want) {
			t.Fatalf("cell %d, flat position %d: built %v, logProb %v", c, p, v[p], want)
		}
	}
}

// checkCells checks every cell's vector, building it if needed, against
// the reference.
func checkCells(t *testing.T, s *core.Scorer, ref [][]float64) {
	t.Helper()
	for c := range ref {
		checkVector(t, ref, c, s.CellVector(c))
	}
}

// countdownCtx is a context whose Err turns to context.Canceled on its
// n+1st call and stays so: a cancellation that lands after exactly n
// checks, whichever goroutines make them.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func cancelAfter(n int) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(int64(n))
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// cellBuildCase is one grid, δ and mode of TestCellBuildMatchesLogProb,
// with the datasets it builds.
type cellBuildCase struct {
	name     string
	g        *grid.Grid
	delta    float64
	mode     core.ProbMode
	datasets []traj.Dataset
	zebra    bool // the mine-cold-shaped case, which must reach every box branch
}

// cellBuildCases returns TestCellBuildMatchesLogProb's cases: non-square
// and fitted grids in both modes on datasets of two and ten build blocks,
// and the zebra case. It also returns the ten-block dataset.
func cellBuildCases(t *testing.T) ([]cellBuildCase, traj.Dataset) {
	small, large := cellBuildData(11, 9), cellBuildData(11, 25)
	fitted := cli.FitGrid(small[:9], 9)
	unit16 := grid.NewSquare(16)
	both := []traj.Dataset{small, large}
	return []cellBuildCase{
		{"unit 7x4", grid.New(geom.UnitSquare(), 7, 4), 1.0 / 7, core.ProbBox, both, false},
		{"unit 3x8 wide delta", grid.New(geom.UnitSquare(), 3, 8), 0.4, core.ProbBox, both, false},
		{"fitted 9x9", fitted, fitted.CellWidth(), core.ProbBox, both, false},
		{"disk 4x3", grid.New(geom.UnitSquare(), 4, 3), 0.25, core.ProbDisk, both, false},
		{"zebra unit 16x16", unit16, unit16.CellWidth(), core.ProbBox, []traj.Dataset{zebraBuildData(t)}, true},
	}, large
}

// TestCellBuildMatchesLogProb checks that the cell build reproduces
// logProb at every position, bit for bit: on non-square and fitted grids,
// in both modes, on datasets of fewer and more build blocks than workers,
// at 1, 2, 3 and 8 workers, when Prepare builds cells in two calls and
// when overlapping Prepare calls race to build them. The cells built and
// the cache hits must not depend on the worker count. A case shaped like
// perfbench's mine-cold op (zebra data, σ 0.01, unit 16×16 grid, δ one
// cell width) must reach every branch of the box-mode build (see
// boxBranches). A ScoreAll cancelled at any point must leave only whole
// vectors installed, and a later Prepare must build the rest.
func TestCellBuildMatchesLogProb(t *testing.T) {
	cases, large := cellBuildCases(t)
	workerCounts := []int{1, 2, 3, 8}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.zebra {
				shared, zero, clamped, exact := boxBranches(tc.g, tc.delta, tc.datasets[0])
				t.Logf("shared bound %d positions, zero mass %d entries, clamped %d entries, σ = 0 %d positions", shared, zero, clamped, exact)
				if shared == 0 || zero == 0 || clamped == 0 || exact == 0 {
					t.Fatalf("a box-mode branch is not reached: shared bound %d, zero mass %d, clamped %d, σ = 0 %d", shared, zero, clamped, exact)
				}
			}
			for _, data := range tc.datasets {
				t.Run(fmt.Sprintf("%d positions", data.TotalSnapshots()), func(t *testing.T) {
					cfg := core.Config{Grid: tc.g, Delta: tc.delta, Mode: tc.mode}
					n := tc.g.NumCells()
					var ref [][]float64
					var want [2]int64 // cells built and cache hits at one worker
					for _, workers := range workerCounts {
						cfg.Workers = workers
						reg := obs.New()
						cfg.Metrics = reg
						all, err := core.NewScorer(data, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if ref == nil {
							ref = refVectors(all, data)
						}
						half := make([]int, 0, n)
						for c := 0; c < n; c += 2 {
							half = append(half, c)
						}
						all.Prepare(half)
						all.Prepare(all.AllCells())
						checkCells(t, all, ref)
						snap := reg.Snapshot()
						got := [2]int64{snap.Counter("scorer.cells.built"), snap.Counter("scorer.cache.hits")}
						if workers == workerCounts[0] {
							want = got
						} else if got != want {
							t.Errorf("workers %d: cells built, cache hits = %v, want %v as at %d worker", workers, got, want, workerCounts[0])
						}

						reg = obs.New()
						cfg.Metrics = reg
						raced, err := core.NewScorer(data, cfg)
						if err != nil {
							t.Fatal(err)
						}
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
						snap = reg.Snapshot()
						if got := snap.Counter("scorer.cells.built") + snap.Counter("scorer.cache.hits"); got != int64(requested) {
							t.Errorf("workers %d: cells built + cache hits = %d, want %d requested", workers, got, requested)
						}
						if got := raced.InstalledCells(); got != n {
							t.Errorf("workers %d: %d installed vectors after overlapping Prepare calls, want %d", workers, got, n)
						}
						checkCells(t, raced, ref)
					}
				})
			}
		})
	}

	// The cancellation lands after n context checks: every build-block
	// count of the ten-block dataset, before and after the build's own
	// check that follows its last block, and during the scan.
	t.Run("cancelled ScoreAll", func(t *testing.T) {
		g := grid.New(geom.UnitSquare(), 7, 4)
		nc := g.NumCells()
		singles := make([]core.Pattern, nc)
		for c := range singles {
			singles[c] = core.Pattern{c}
		}
		var ref [][]float64
		for _, workers := range workerCounts {
			for _, after := range []int{0, 1, 2, 5, 9, 10, 11, 12, 20} {
				reg := obs.New()
				s, err := core.NewScorer(large, core.Config{Grid: g, Delta: 1.0 / 7, Workers: workers, Metrics: reg})
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = refVectors(s, large)
				}
				if _, err := s.ScoreAll(cancelAfter(after), singles); err == nil {
					t.Fatalf("workers %d, cancelled after %d checks: ScoreAll returned no error", workers, after)
				}
				installed := 0
				for c := range ref {
					if v := s.InstalledVector(c); v != nil {
						installed++
						checkVector(t, ref, c, v)
					}
				}
				if installed != 0 && installed != nc {
					t.Errorf("workers %d, cancelled after %d checks: %d of %d cells installed by one build", workers, after, installed, nc)
				}
				built := reg.Snapshot().Counter("scorer.cells.built")
				if built != int64(installed) {
					t.Errorf("workers %d, cancelled after %d checks: scorer.cells.built %d, %d vectors installed", workers, after, built, installed)
				}
				s.Prepare(s.AllCells())
				if got := reg.Snapshot().Counter("scorer.cells.built") - built; got != int64(nc-installed) {
					t.Errorf("workers %d, cancelled after %d checks: later Prepare built %d cells, want %d", workers, after, got, nc-installed)
				}
				checkCells(t, s, ref)
			}
		}
	})
}

// TestBuiltVectorsInScanDomain checks every vector the cases of
// TestCellBuildMatchesLogProb build, in box and disk mode, for the
// preconditions of the AVX2 scan kernels' lane-parallel max: every entry
// lies in [DefaultLogFloor, 0] and is neither NaN nor -0. With them, the
// max over windows is the same value whatever order it compares them in.
func TestBuiltVectorsInScanDomain(t *testing.T) {
	const negZero = 1 << 63 // the bits of -0
	cases, _ := cellBuildCases(t)
	for _, tc := range cases {
		for _, data := range tc.datasets {
			s, err := core.NewScorer(data, core.Config{Grid: tc.g, Delta: tc.delta, Mode: tc.mode})
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < tc.g.NumCells(); c++ {
				for p, v := range s.CellVector(c) {
					if math.IsNaN(v) || v < core.DefaultLogFloor || v > 0 || math.Float64bits(v) == negZero {
						t.Fatalf("%s, %d positions: cell %d, flat position %d holds %v (sign bit %v), outside [%v, +0]",
							tc.name, data.TotalSnapshots(), c, p, v, math.Signbit(v), core.DefaultLogFloor)
					}
				}
			}
		}
	}
}

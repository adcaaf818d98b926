package core

import (
	"context"
	"fmt"
	"testing"

	"trajpattern/internal/datagen"
	"trajpattern/internal/grid"
	"trajpattern/internal/obs"
	"trajpattern/internal/stat"
	"trajpattern/internal/traj"
)

func benchDataset(nTraj, length int) traj.Dataset {
	rng := stat.NewRNG(99)
	d := make(traj.Dataset, nTraj)
	for i := range d {
		tr := make(traj.Trajectory, length)
		x, y := rng.Float64(), rng.Float64()
		for j := range tr {
			x += rng.Normal(0, 0.01)
			y += rng.Normal(0, 0.01)
			tr[j] = traj.P(clamp01(x), clamp01(y), 0.02)
		}
		d[i] = tr
	}
	return d
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func benchScorer(b *testing.B, mode ProbMode) *Scorer {
	b.Helper()
	g := grid.NewSquare(12)
	s, err := NewScorer(benchDataset(50, 100), Config{
		Grid:  g,
		Delta: g.CellWidth(),
		Mode:  mode,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkNMColdCache measures a single NM evaluation including the
// log-probability computation for its cells: each iteration scores on a
// fresh scorer, built with the timer stopped.
func BenchmarkNMColdCache(b *testing.B) {
	p := Pattern{50, 51, 62, 63}
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		s := benchScorer(b, ProbBox)
		b.StartTimer()
		s.NM(p)
		b.StopTimer()
	}
}

// BenchmarkPrepare measures the cell build: every observed cell of a
// fresh scorer (ring 1, the miner's default seed set), each iteration on
// a scorer built with the timer stopped. It builds a σ 0.02 random walk
// on the unit 16×16 grid and perfbench's mine-cold dataset (160 zebras of
// average length 120 in 5 herds, seed 1, U 0.02, c 2, so σ 0.01) on the
// unit 16×16 and 12×12 grids, each at δ = one cell width. Each runs on
// one worker and on GOMAXPROCS, so their ratio is the build's parallel
// speed-up.
func BenchmarkPrepare(b *testing.B) {
	zebras, err := datagen.ZebraDataset(datagen.ZebraConfig{NumZebras: 160, AvgLen: 120, NumGroups: 5, Seed: 1}, 0.02, 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, dc := range []struct {
		name  string
		ds    traj.Dataset
		gridN int
	}{
		{"walk 16x16", benchDataset(160, 120), 16},
		{"zebra 16x16", zebras, 16},
		{"zebra 12x12", zebras, 12},
	} {
		g := grid.NewSquare(dc.gridN)
		for _, wc := range []struct {
			name    string
			workers int
		}{{"workers=1", 1}, {"workers=GOMAXPROCS", 0}} {
			b.Run(dc.name+"/"+wc.name, func(b *testing.B) {
				b.StopTimer()
				for i := 0; i < b.N; i++ {
					s, err := NewScorer(dc.ds, Config{Grid: g, Delta: g.CellWidth(), Workers: wc.workers})
					if err != nil {
						b.Fatal(err)
					}
					cells := s.ObservedCells(1)
					b.StartTimer()
					s.Prepare(cells)
					b.StopTimer()
				}
			})
		}
	}
}

// BenchmarkExtensions times Extensions on Figure 4's instance (80 zebras
// of average length 60 in 5 herds, data seed 1, U 0.02, c 2, on the unit
// 12×12 grid at δ = one cell width): every seed PB starts from
// (ObservedCells(1)) as children of a prefix of the first one to three
// seeds, with every vector built beforehand. It reports ns per (child,
// trajectory), on one worker and on GOMAXPROCS.
func BenchmarkExtensions(b *testing.B) {
	zebras, err := datagen.ZebraDataset(datagen.ZebraConfig{NumZebras: 80, AvgLen: 60, NumGroups: 5, Seed: 1}, 0.02, 2)
	if err != nil {
		b.Fatal(err)
	}
	g := grid.NewSquare(12)
	for _, wc := range []struct {
		name    string
		workers int
	}{{"workers=1", 1}, {"workers=GOMAXPROCS", 0}} {
		s, err := NewScorer(zebras, Config{Grid: g, Delta: g.CellWidth(), Workers: wc.workers})
		if err != nil {
			b.Fatal(err)
		}
		seeds := s.ObservedCells(1)
		s.Prepare(seeds)
		for i := 1; i <= 3; i++ {
			prefix := Pattern(seeds[:i])
			b.Run(fmt.Sprintf("prefix=%d/%s", i, wc.name), func(b *testing.B) {
				for range b.N {
					s.Extensions(prefix, seeds, func(int, []float64) {})
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(seeds)*len(zebras)), "ns/child-traj")
			})
		}
	}
}

// BenchmarkNMWarmCache measures the steady-state cost of NM evaluation:
// windowed sums over cached per-cell vectors — the inner loop of the
// miner's complexity O(k²MNG).
func BenchmarkNMWarmCache(b *testing.B) {
	s := benchScorer(b, ProbBox)
	p := Pattern{50, 51, 62, 63}
	s.NM(p) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.NM(p)
	}
}

// BenchmarkLogProbBox measures the per-snapshot box probability.
func BenchmarkLogProbBox(b *testing.B) {
	s := benchScorer(b, ProbBox)
	pt := traj.P(0.4, 0.4, 0.02)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.logProb(pt, 50)
	}
}

// BenchmarkLogProbDisk measures the per-snapshot Rice-distribution disk
// probability (Simpson integration of the scaled Bessel integrand).
func BenchmarkLogProbDisk(b *testing.B) {
	s := benchScorer(b, ProbDisk)
	pt := traj.P(0.4, 0.4, 0.02)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.logProb(pt, 50)
	}
}

// BenchmarkScoreAllBatch measures batched parallel NM evaluation, the
// miner's candidate-scoring path.
func BenchmarkScoreAllBatch(b *testing.B) {
	s := benchScorer(b, ProbBox)
	rng := stat.NewRNG(3)
	patterns := make([]Pattern, 200)
	for i := range patterns {
		n := 2 + rng.Intn(4)
		p := make(Pattern, n)
		for j := range p {
			p[j] = rng.Intn(144)
		}
		patterns[i] = p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ScoreAll(context.Background(), patterns)
	}
}

// BenchmarkMineSmall measures an end-to-end mining run on a small
// workload.
func BenchmarkMineSmall(b *testing.B) {
	g := grid.NewSquare(10)
	ds := benchDataset(30, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewScorer(ds, Config{Grid: g, Delta: g.CellWidth()})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Mine(context.Background(), s, MinerConfig{K: 8, MaxLen: 5, MaxLowQ: 32}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMineSmallMetrics is BenchmarkMineSmall with an obs registry
// attached — compare the two to see the cost of enabling instrumentation
// (the nil-registry path of BenchmarkMineSmall is the zero-cost default).
func BenchmarkMineSmallMetrics(b *testing.B) {
	g := grid.NewSquare(10)
	ds := benchDataset(30, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := obs.New()
		s, err := NewScorer(ds, Config{Grid: g, Delta: g.CellWidth(), Metrics: reg})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Mine(context.Background(), s, MinerConfig{K: 8, MaxLen: 5, MaxLowQ: 32, Metrics: reg}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiscoverGroups measures pattern-group clustering of a mined
// result set.
func BenchmarkDiscoverGroups(b *testing.B) {
	g := grid.NewSquare(20)
	rng := stat.NewRNG(4)
	patterns := make([]Pattern, 100)
	for i := range patterns {
		p := make(Pattern, 3)
		base := rng.Intn(380)
		for j := range p {
			p[j] = base + rng.Intn(20)
		}
		patterns[i] = p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DiscoverGroups(patterns, g, 0.15, nil); err != nil {
			b.Fatal(err)
		}
	}
}

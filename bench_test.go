// Benchmark harness: one testing.B per table/figure of the paper's
// evaluation plus the ablations (see DESIGN.md §3 for the index). Each
// benchmark executes the corresponding experiment at a reduced scale so
// `go test -bench=.` completes in minutes, and reports the experiment's
// headline numbers as custom metrics. cmd/trajbench runs the same
// experiments at full scale and prints the complete tables.
package trajpattern_test

import (
	"context"
	"testing"

	"trajpattern/internal/exp"
)

const benchSeed = 1

func benchBus() exp.BusOptions {
	return exp.BusOptions{Scale: 0.25, Seed: benchSeed}
}

func benchSweep() exp.SweepOptions {
	return exp.SweepOptions{Scale: 1, Seed: benchSeed, K: 8, S: 40, L: 40, GridN: 10, MaxLen: 5}
}

// BenchmarkE1AvgPatternLength regenerates the §6.1 statistic: average
// length of the top-k NM patterns vs top-k match patterns (length >= 3).
// Paper: 4.2 vs 3.18.
func BenchmarkE1AvgPatternLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunE1(context.Background(), exp.E1Options{Bus: benchBus(), K: 60, MinLen: 3, MaxLen: 8})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AvgLenNM, "avgLenNM")
		b.ReportMetric(res.AvgLenMatch, "avgLenMatch")
	}
}

// BenchmarkE2Fig3Prediction regenerates Figure 3: mis-prediction reduction
// of LM/LKF/RMF with NM patterns vs match patterns. Paper: 20–40% (NM) and
// 10–20% (match).
func BenchmarkE2Fig3Prediction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunE2(context.Background(), exp.E2Options{Bus: benchBus(), K: 30, MinLen: 4, MaxLen: 8})
		if err != nil {
			b.Fatal(err)
		}
		var nm, match float64
		for _, m := range res.Models {
			nm += m.NMReduction
			match += m.MatchReduction
		}
		n := float64(len(res.Models))
		b.ReportMetric(nm/n*100, "%redNM")
		b.ReportMetric(match/n*100, "%redMatch")
	}
}

// seriesMetric reports the first and last y value of a sweep line, which
// captures the growth the corresponding figure plots.
func seriesMetric(b *testing.B, s *exp.Series) {
	b.Helper()
	for _, l := range s.Lines {
		if len(l.YS) == 0 {
			continue
		}
		name := "TP"
		if l.Name == "PB (s)" {
			name = "PB"
		}
		b.ReportMetric(l.YS[0]*1000, name+"-first-ms")
		b.ReportMetric(l.YS[len(l.YS)-1]*1000, name+"-last-ms")
	}
}

// BenchmarkE3Fig4aVaryK regenerates Figure 4(a): runtime vs k for
// TrajPattern and PB.
func BenchmarkE3Fig4aVaryK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := exp.RunE3(context.Background(), benchSweep())
		if err != nil {
			b.Fatal(err)
		}
		seriesMetric(b, s)
	}
}

// BenchmarkE4Fig4bVaryS regenerates Figure 4(b): runtime vs the number of
// trajectories S.
func BenchmarkE4Fig4bVaryS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchSweep()
		o.Scale = 0.5
		s, err := exp.RunE4(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		seriesMetric(b, s)
	}
}

// BenchmarkE5Fig4cVaryL regenerates Figure 4(c): runtime vs the average
// trajectory length L.
func BenchmarkE5Fig4cVaryL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchSweep()
		o.Scale = 0.5
		s, err := exp.RunE5(context.Background(), o)
		if err != nil {
			b.Fatal(err)
		}
		seriesMetric(b, s)
	}
}

// BenchmarkE6Fig4dVaryG regenerates Figure 4(d): runtime vs the number of
// grid cells G.
func BenchmarkE6Fig4dVaryG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := exp.RunE6(context.Background(), benchSweep())
		if err != nil {
			b.Fatal(err)
		}
		seriesMetric(b, s)
	}
}

// BenchmarkE7Fig4eVaryDelta regenerates Figure 4(e): number of pattern
// groups vs the indifferent threshold δ (decreasing in δ).
func BenchmarkE7Fig4eVaryDelta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// E7 calibrates its own grid/uncertainty (γ = 3σ̄ must span at
		// least one cell); only the seed is passed through.
		s, err := exp.RunE7(context.Background(), exp.E7Options{Sweep: exp.SweepOptions{Seed: benchSeed, K: 20}})
		if err != nil {
			b.Fatal(err)
		}
		ys := s.Lines[0].YS
		b.ReportMetric(ys[0], "groups-smallδ")
		b.ReportMetric(ys[len(ys)-1], "groups-largeδ")
	}
}

// BenchmarkA1PruningAblation measures the 1-extension pruning effect.
func BenchmarkA1PruningAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunA1(context.Background(), benchSweep()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA2ProbModes measures box vs disk probability computation.
func BenchmarkA2ProbModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunA2(context.Background(), benchSweep()); err != nil {
			b.Fatal(err)
		}
	}
}

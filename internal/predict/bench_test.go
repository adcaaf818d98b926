package predict

import (
	"testing"

	"trajpattern/internal/core"
	"trajpattern/internal/geom"
	"trajpattern/internal/stat"
)

func benchPath(n int) []geom.Point {
	rng := stat.NewRNG(7)
	path := make([]geom.Point, n)
	pos := geom.Pt(0.5, 0.5)
	for i := range path {
		pos = pos.Add(geom.Pt(rng.Normal(0.01, 0.005), rng.Normal(0, 0.005)))
		path[i] = pos
	}
	return path
}

func benchDrive(b *testing.B, p Predictor) {
	b.Helper()
	path := benchPath(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Reset()
		for j, pt := range path {
			if j >= 2 {
				p.Predict()
			}
			p.Observe(pt)
		}
	}
}

func BenchmarkLinear(b *testing.B) { benchDrive(b, NewLinear()) }
func BenchmarkKalman(b *testing.B) { benchDrive(b, NewKalman(1e-4, 1e-4)) }
func BenchmarkRMF(b *testing.B)    { benchDrive(b, NewRMF(0, 0)) }

func BenchmarkPatternPredictor(b *testing.B) {
	g := velocityGrid(10)
	rng := stat.NewRNG(9)
	patterns := make([]core.Pattern, 40)
	for i := range patterns {
		p := make(core.Pattern, 4)
		for j := range p {
			p[j] = rng.Intn(100)
		}
		patterns[i] = p
	}
	benchDrive(b, &PatternPredictor{
		Base:     NewLinear(),
		Patterns: patterns,
		Grid:     g,
		Delta:    0.05,
		Sigma:    0.02,
	})
}

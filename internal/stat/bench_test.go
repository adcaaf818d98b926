package stat

import "testing"

func BenchmarkNormalIntervalProb(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NormalIntervalProb(-0.3, 0.4, 0.1, 0.5)
	}
}

func BenchmarkBoxProb2D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		BoxProb2D(0.4, 0.6, 0.05, 0.45, 0.55, 0.04)
	}
}

func BenchmarkDiskProb2D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		DiskProb2D(0.4, 0.6, 0.05, 0.45, 0.55, 0.04)
	}
}

func BenchmarkI0eSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		I0e(8.5)
	}
}

func BenchmarkI0eAsymptotic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		I0e(60)
	}
}

func BenchmarkRNGNormal(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		r.Normal(0, 1)
	}
}

func BenchmarkSolveLinear4x4(b *testing.B) {
	a := MatrixFromRows([][]float64{
		{4, 1, 0, 0},
		{1, 4, 1, 0},
		{0, 1, 4, 1},
		{0, 0, 1, 4},
	})
	rhs := []float64{1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveLinear(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

package stat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(124)
	same := 0
	for i := 0; i < 100; i++ {
		if NewRNG(123).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Error("different seeds look identical")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGUniformMoments(t *testing.T) {
	r := NewRNG(2)
	n := 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Uniform(2, 4)
	}
	mean := sum / float64(n)
	if math.Abs(mean-3) > 0.02 {
		t.Errorf("Uniform(2,4) mean = %v", mean)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(3)
	n := 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Normal(5, 2)
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean-5) > 0.03 {
		t.Errorf("Normal mean = %v, want 5", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Errorf("Normal variance = %v, want 4", variance)
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(5)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		counts[r.Intn(7)]++
	}
	for v, c := range counts {
		if c < 8500 || c > 11500 {
			t.Errorf("Intn(7) value %d count %d out of expected band", v, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestRNGBool(t *testing.T) {
	r := NewRNG(6)
	trues := 0
	for i := 0; i < 100000; i++ {
		if r.Bool(0.3) {
			trues++
		}
	}
	if trues < 28500 || trues > 31500 {
		t.Errorf("Bool(0.3) rate = %v", float64(trues)/100000)
	}
}

func TestRNGFork(t *testing.T) {
	r := NewRNG(8)
	a := r.Fork(1)
	b := r.Fork(2)
	// Forked streams should differ from each other.
	diff := false
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("forked streams identical")
	}
}

// Property: Uniform(lo, hi) stays within [lo, hi) for arbitrary bounds.
func TestQuickUniformBounds(t *testing.T) {
	f := func(seed uint64, a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		a, b = math.Mod(a, 1e6), math.Mod(b, 1e6)
		if a > b {
			a, b = b, a
		}
		if a == b {
			return true
		}
		r := NewRNG(seed)
		for i := 0; i < 10; i++ {
			v := r.Uniform(a, b)
			if v < a || v >= b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

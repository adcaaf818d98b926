package stat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalIntervalProb(t *testing.T) {
	// The "68-95-99.7" rule, which the paper invokes for c = 1, 2, 3.
	for _, c := range []struct {
		k, want, tol float64
	}{
		{1, 0.6827, 1e-3},
		{2, 0.9545, 1e-3},
		{3, 0.9973, 1e-3},
	} {
		got := NormalIntervalProb(-c.k, c.k, 0, 1)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("P(|Z|<%v) = %v, want ≈%v", c.k, got, c.want)
		}
	}
	if got := NormalIntervalProb(2, 1, 0, 1); got != 0 {
		t.Errorf("inverted interval = %v", got)
	}
	if NormalIntervalProb(0.5, 1.5, 1, 0) != 1 || NormalIntervalProb(2, 3, 1, 0) != 0 {
		t.Error("degenerate interval prob wrong")
	}
	// Deep tail: difference-of-erfc path must not cancel to 0 too early.
	if got := NormalIntervalProb(8, 9, 0, 1); got <= 0 {
		t.Errorf("tail interval prob = %v, want > 0", got)
	}
}

func TestBoxProb2D(t *testing.T) {
	// Centered box of half-width δ=σ: product of P(|Z|<1)².
	want := 0.6827 * 0.6827
	if got := BoxProb2D(0, 0, 1, 0, 0, 1); math.Abs(got-want) > 2e-3 {
		t.Errorf("BoxProb2D centered = %v, want ≈%v", got, want)
	}
	// Far away: negligible.
	if got := BoxProb2D(0, 0, 0.01, 1, 1, 0.01); got > 1e-12 {
		t.Errorf("far box prob = %v", got)
	}
	// Negative delta.
	if BoxProb2D(0, 0, 1, 0, 0, -1) != 0 {
		t.Error("negative delta should be 0")
	}
	// Huge delta: everything.
	if got := BoxProb2D(0, 0, 1, 0, 0, 100); math.Abs(got-1) > 1e-12 {
		t.Errorf("huge delta = %v", got)
	}
}

// Property: interval probability is in [0,1], monotone in interval width,
// and additive over adjacent intervals.
func TestQuickIntervalProb(t *testing.T) {
	f := func(a, w1, w2, mu float64) bool {
		if math.IsNaN(a) || math.IsNaN(w1) || math.IsNaN(w2) || math.IsNaN(mu) {
			return true
		}
		a = math.Mod(a, 100)
		mu = math.Mod(mu, 100)
		w1, w2 = math.Abs(math.Mod(w1, 50)), math.Abs(math.Mod(w2, 50))
		sigma := 1.0
		p1 := NormalIntervalProb(a, a+w1, mu, sigma)
		p2 := NormalIntervalProb(a+w1, a+w1+w2, mu, sigma)
		p12 := NormalIntervalProb(a, a+w1+w2, mu, sigma)
		if p1 < 0 || p1 > 1 || p2 < 0 || p2 > 1 {
			return false
		}
		if p12+1e-12 < p1 { // monotone in width
			return false
		}
		return math.Abs(p12-(p1+p2)) < 1e-9 // additive
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package stat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestI0eKnownValues(t *testing.T) {
	// Reference values: I0(x)*exp(-x) for x = 0, 1, 5, 20, 100.
	cases := []struct {
		x, want float64
	}{
		{0, 1},
		{1, 0.46575960759364043},   // I0(1)=1.2660658..., e^-1 scaling
		{5, 0.18354081260932836},   // I0(5)=27.239871...
		{20, 0.08978031188482602},  // power-series branch
		{25, 0.08019677354743671},  // first point on the asymptotic branch
		{100, 0.03994437929909668}, // deep asymptotic branch
	}
	for _, c := range cases {
		if got := I0e(c.x); math.Abs(got-c.want) > 1e-9*(1+c.want) {
			t.Errorf("I0e(%v) = %.15g, want %.15g", c.x, got, c.want)
		}
	}
	// Even function.
	if I0e(-3) != I0e(3) {
		t.Error("I0e not even")
	}
}

func TestI0eBranchContinuity(t *testing.T) {
	// The series/asymptotic switch at x=25 must be smooth. I0e has slope
	// ≈ -I0e(x)/(2x) ≈ -0.0016 there, so over the 2e-6 gap the function
	// itself moves ~3.2e-9; any branch mismatch beyond ~1e-11 would show
	// up on top of that.
	lo, hi := I0e(24.999999), I0e(25.000001)
	slope := -I0e(25) / (2 * 25)
	expectedChange := slope * 2e-6
	if diff := hi - lo; math.Abs(diff-expectedChange) > 1e-10 {
		t.Errorf("I0e branch mismatch: hi-lo = %g, expected ≈%g from slope", diff, expectedChange)
	}
}

func TestDiskProbCentral(t *testing.T) {
	// Centered disk: P(‖X‖<δ) = 1 - exp(-δ²/2σ²) (Rayleigh CDF).
	for _, c := range []struct{ delta, sigma float64 }{
		{1, 1}, {0.5, 1}, {2, 0.7}, {3, 1},
	} {
		want := 1 - math.Exp(-c.delta*c.delta/(2*c.sigma*c.sigma))
		got := DiskProb2D(0, 0, c.sigma, 0, 0, c.delta)
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("central disk δ=%v σ=%v: got %v want %v", c.delta, c.sigma, got, want)
		}
	}
}

func TestDiskProbMonteCarlo(t *testing.T) {
	// Off-center disks validated against Monte Carlo.
	rng := NewRNG(42)
	cases := []struct {
		lx, ly, sigma, px, py, delta float64
	}{
		{0, 0, 1, 1, 0, 1},
		{0, 0, 1, 2, 1, 0.8},
		{0.3, -0.2, 0.5, 0.5, 0.5, 0.4},
		{0, 0, 0.2, 1.5, 0, 0.3}, // far offset: small probability
	}
	const n = 400000
	for _, c := range cases {
		hits := 0
		for i := 0; i < n; i++ {
			x := rng.Normal(c.lx, c.sigma)
			y := rng.Normal(c.ly, c.sigma)
			if math.Hypot(x-c.px, y-c.py) <= c.delta {
				hits++
			}
		}
		mc := float64(hits) / n
		got := DiskProb2D(c.lx, c.ly, c.sigma, c.px, c.py, c.delta)
		se := math.Sqrt(mc*(1-mc)/n) + 1e-6
		if math.Abs(got-mc) > 5*se+1e-4 {
			t.Errorf("DiskProb2D%+v = %v, Monte Carlo = %v (se %v)", c, got, mc, se)
		}
	}
}

func TestDiskProbDegenerate(t *testing.T) {
	if DiskProb2D(0, 0, 0, 0.1, 0, 0.2) != 1 {
		t.Error("σ=0 inside disk should be 1")
	}
	if DiskProb2D(0, 0, 0, 1, 0, 0.2) != 0 {
		t.Error("σ=0 outside disk should be 0")
	}
	if DiskProb2D(0, 0, 1, 0, 0, -0.5) != 0 {
		t.Error("negative delta should be 0")
	}
}

func TestDiskProbFarTails(t *testing.T) {
	// Disk entirely beyond the 9σ bump: ~0.
	if got := DiskProb2D(0, 0, 0.01, 1, 0, 0.05); got != 0 {
		t.Errorf("far disk = %v, want 0", got)
	}
	// Disk covering everything: ~1.
	if got := DiskProb2D(0, 0, 0.01, 0, 0, 10); math.Abs(got-1) > 1e-9 {
		t.Errorf("covering disk = %v, want 1", got)
	}
}

// Property: disk probability is within [0,1], monotone in delta, and always
// at most the probability of the circumscribed box (and at least the
// inscribed box, δ/√2). The fixed case is mean (−0.04, 0.25), σ 0.08 and
// δ 1.55, a disk covering the whole bump while δ/2 does not: integrated
// over it, P(δ) was 0.9999999977257964 and P(δ/2) 0.9999999990238454.
func TestQuickDiskVsBox(t *testing.T) {
	f := func(lxs, lys, ss, ds uint16) bool {
		lx := float64(lxs%200)/100 - 1 // [-1, 1)
		ly := float64(lys%200)/100 - 1
		sigma := 0.05 + float64(ss%100)/100 // [0.05, 1.05)
		delta := 0.01 + float64(ds%100)/50  // [0.01, 2.01)
		disk := DiskProb2D(lx, ly, sigma, 0, 0, delta)
		if disk < 0 || disk > 1 {
			return false
		}
		// Monotone in delta.
		if DiskProb2D(lx, ly, sigma, 0, 0, delta/2) > disk+1e-9 {
			return false
		}
		outer := BoxProb2D(lx, ly, sigma, 0, 0, delta)
		inner := BoxProb2D(lx, ly, sigma, 0, 0, delta/math.Sqrt2)
		return inner <= disk+1e-6 && disk <= outer+1e-6
	}
	if !f(96, 125, 3, 77) {
		t.Error("fixed case: mean (−0.04, 0.25), σ 0.08, δ 1.55 fails")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package stat

import "math"

// This file computes the "disk" interpretation of the paper's
// Prob(l, σ, p, δ): the probability that a point drawn from the isotropic
// 2-D normal N(l, σ²I) lands within Euclidean distance δ of p. The radial
// distance R = ‖X - p‖ follows a Rice distribution with parameters
// ν = ‖l - p‖ and σ, so
//
//	P(R ≤ δ) = ∫₀^δ (r/σ²)·exp(-(r²+ν²)/(2σ²))·I₀(rν/σ²) dr.
//
// To stay numerically stable for ν ≫ σ we rewrite the integrand with the
// exponentially scaled Bessel function I0e(x) = I₀(x)·e^(-x):
//
//	f(r) = (r/σ²)·exp(-(r-ν)²/(2σ²))·I0e(rν/σ²),
//
// which never overflows, and integrate with composite Simpson.

// I0e returns the exponentially scaled modified Bessel function of the
// first kind of order zero, I₀(x)·e^(-|x|). It is accurate to ~1e-14 using
// the power series for small |x| and the asymptotic expansion for large |x|.
func I0e(x float64) float64 {
	x = math.Abs(x)
	if x < 25 {
		// Power series: I0(x) = Σ (x/2)^(2k) / (k!)².
		term, sum := 1.0, 1.0
		half := x / 2
		for k := 1; k < 80; k++ {
			term *= (half / float64(k)) * (half / float64(k))
			sum += term
			if term < sum*1e-17 {
				break
			}
		}
		return sum * math.Exp(-x)
	}
	// Asymptotic: I0(x) ~ e^x/sqrt(2πx) · Σ a_k/x^k with
	// a_k = ((2k-1)!!)² / (k!·8^k).
	inv := 1 / x
	sum, term := 1.0, 1.0
	for k := 1; k < 12; k++ {
		num := float64(2*k-1) * float64(2*k-1)
		term *= num * inv / (8 * float64(k))
		sum += term
		if math.Abs(term) < 1e-17 {
			break
		}
	}
	return sum / math.Sqrt(2*math.Pi*x)
}

// riceCDF returns P(R ≤ delta) for R ~ Rice(nu, sigma) via composite
// Simpson integration of the scaled integrand. sigma must be > 0.
func riceCDF(delta, nu, sigma float64) float64 {
	if delta <= 0 {
		return 0
	}
	// Restrict the integration range to where the Gaussian factor is
	// non-negligible: |r - nu| <= 9σ. Outside, the integrand is < 1e-17
	// relative. A disk covering the whole bump has mass 1: integrating it
	// would spread the panels over a wider range than a smaller disk's,
	// and the coarser step could return less than the smaller disk's mass.
	if delta >= nu+9*sigma {
		return 1
	}
	lo, hi := math.Max(0, nu-9*sigma), delta
	if hi <= lo {
		// The disk lies entirely in the negligible lower tail.
		return 0
	}
	inv2s2 := 1 / (2 * sigma * sigma)
	invs2 := 1 / (sigma * sigma)
	f := func(r float64) float64 {
		d := r - nu
		return r * invs2 * math.Exp(-d*d*inv2s2) * I0e(r*nu*invs2)
	}
	// Composite Simpson with enough panels to resolve a σ-width bump.
	n := 256
	if w := (hi - lo) / sigma; w > 16 {
		n = int(w) * 16
	}
	if n%2 == 1 {
		n++
	}
	h := (hi - lo) / float64(n)
	sum := f(lo) + f(hi)
	for i := 1; i < n; i++ {
		x := lo + float64(i)*h
		if i%2 == 1 {
			sum += 4 * f(x)
		} else {
			sum += 2 * f(x)
		}
	}
	p := sum * h / 3
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// DiskProb2D is the paper's Prob(l, σ, p, δ) under the "disk"
// interpretation: the probability that a point drawn from N(l, σ²I₂) lands
// within Euclidean distance δ of p. For σ <= 0 it degenerates to the
// indicator of ‖l-p‖ ≤ δ.
func DiskProb2D(lx, ly, sigma, px, py, delta float64) float64 {
	if delta < 0 {
		return 0
	}
	nu := math.Hypot(lx-px, ly-py)
	if sigma <= 0 {
		if nu <= delta {
			return 1
		}
		return 0
	}
	return riceCDF(delta, nu, sigma)
}

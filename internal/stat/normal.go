// Package stat provides the numerical machinery behind the TrajPattern
// measures: the normal interval probability, the probability mass of a 2-D
// isotropic normal over boxes and disks (the Prob(l,σ,p,δ) of the paper),
// scaled Bessel functions, small dense linear algebra for the prediction
// models, and deterministic random sources.
package stat

import "math"

// Sqrt2 is cached to avoid recomputing in hot probability loops.
var sqrt2 = math.Sqrt(2)

// NormalIntervalProb returns P(a <= X <= b) for X ~ N(mu, sigma²).
// It is exact (up to erfc accuracy) and returns 0 when b < a.
func NormalIntervalProb(a, b, mu, sigma float64) float64 {
	return IntervalMass(a, b, mu, sigma, NormalErfc(a, mu, sigma), NormalErfc(b, mu, sigma))
}

// NormalErfc returns erfc((x − mu)/(sigma·√2)), twice P(X > x) for
// X ~ N(mu, sigma²): the term IntervalMass takes for each bound.
func NormalErfc(x, mu, sigma float64) float64 {
	return math.Erfc((x - mu) / (sigma * sqrt2))
}

// IntervalMass is NormalIntervalProb given the erfc terms of its bounds,
// ea = NormalErfc(a, mu, sigma) and eb = NormalErfc(b, mu, sigma). It
// reads them only when a <= b and sigma > 0, so intervals that share a
// bound value can share that bound's term.
func IntervalMass(a, b, mu, sigma, ea, eb float64) float64 {
	if b < a {
		return 0
	}
	if sigma <= 0 {
		if mu >= a && mu <= b {
			return 1
		}
		return 0
	}
	// A difference of erfc values keeps precision when the interval lies
	// above the mean, where two CDFs near 1 would cancel. Below the mean
	// both terms are near 2 and cancel instead.
	p := 0.5 * (ea - eb)
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// BoxProb2D is the paper's Prob(l, σ, p, δ) under the "box" interpretation:
// the probability that a point drawn from the isotropic 2-D normal
// N(l, σ²I) falls inside the axis-aligned square [p.x±δ]×[p.y±δ]. Because
// the coordinates are independent the mass factorizes into two 1-D interval
// probabilities.
//
// lx, ly is the distribution mean (the expected location), px, py the
// pattern position and delta the indifference threshold.
func BoxProb2D(lx, ly, sigma, px, py, delta float64) float64 {
	if delta < 0 {
		return 0
	}
	return NormalIntervalProb(px-delta, px+delta, lx, sigma) *
		NormalIntervalProb(py-delta, py+delta, ly, sigma)
}

package stat

import "math"

// RNG is a small deterministic pseudo-random generator (splitmix64 core)
// used by the data generators and simulators. Using our own generator keeps
// every dataset byte-reproducible across Go releases (math/rand's stream is
// only stable within a release for the top-level functions) and lets the
// simulators fork independent sub-streams cheaply.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Fork returns an independent generator derived from the current state and
// the given stream label. Forked streams do not overlap in practice because
// splitmix64's output is a bijection of its counter.
func (r *RNG) Fork(label uint64) *RNG {
	return &RNG{state: r.Uint64() ^ (label * 0x9E3779B97F4A7C15)}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stat: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Normal returns a draw from N(mu, sigma²) using Box–Muller.
func (r *RNG) Normal(mu, sigma float64) float64 {
	// Avoid log(0).
	u1 := r.Float64()
	//trajlint:allow floatcmp -- exact-zero rejection guards log(0); any nonzero float is fine
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mu + sigma*z
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

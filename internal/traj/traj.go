// Package traj defines the trajectory data model of the TrajPattern paper
// (Section 3.2): a trajectory is a per-snapshot sequence of imprecise
// locations, each described by the mean and standard deviation of an
// isotropic 2-D normal distribution over the object's true location.
//
// The package also implements the two transformations the paper applies to
// raw data before mining: synchronizing asynchronous location reports onto
// a common snapshot schedule (sync.go) and converting location trajectories
// into velocity trajectories.
package traj

import (
	"fmt"
	"math"

	"trajpattern/internal/geom"
	"trajpattern/internal/grid"
)

// Point is one snapshot of a trajectory: the true location of the mobile
// object is distributed as N(Mean, Sigma²·I₂).
type Point struct {
	Mean  geom.Point `json:"mean"`
	Sigma float64    `json:"sigma"`
}

// P is shorthand for constructing a Point.
func P(x, y, sigma float64) Point {
	return Point{Mean: geom.Pt(x, y), Sigma: sigma}
}

// Trajectory is the per-snapshot sequence (l₁,σ₁),(l₂,σ₂),… of one mobile
// object. Location and velocity trajectories share this representation.
type Trajectory []Point

// Validate reports the first structural problem in t: non-finite
// coordinates, or sigmas that are negative, NaN or infinite. An infinite
// sigma passes a plain `< 0` test but poisons every probability downstream,
// so it is rejected here (found by FuzzReadDataset).
func (t Trajectory) Validate() error {
	for i, p := range t {
		if !p.Mean.IsFinite() {
			return fmt.Errorf("traj: snapshot %d has non-finite mean %v", i, p.Mean)
		}
		if math.IsNaN(p.Sigma) || math.IsInf(p.Sigma, 0) || p.Sigma < 0 {
			return fmt.Errorf("traj: snapshot %d has invalid sigma %v", i, p.Sigma)
		}
	}
	return nil
}

// ToVelocity converts a location trajectory into a velocity trajectory per
// Section 3.2: entry i is the difference of locations i+1 and i, with mean
// l(i+1)−l(i) and standard deviation sqrt(σᵢ² + σᵢ₊₁²) (the locations'
// prediction errors are assumed independent). The result has len(t)−1
// snapshots; a trajectory with fewer than two snapshots yields nil.
func (t Trajectory) ToVelocity() Trajectory {
	if len(t) < 2 {
		return nil
	}
	out := make(Trajectory, len(t)-1)
	for i := 0; i+1 < len(t); i++ {
		out[i] = Point{
			Mean:  t[i+1].Mean.Sub(t[i].Mean),
			Sigma: math.Hypot(t[i].Sigma, t[i+1].Sigma),
		}
	}
	return out
}

// Dataset is the mining input 𝒟: a set of trajectories, all aligned on the
// same snapshot schedule.
type Dataset []Trajectory

// NumTrajectories returns |𝒟|, the paper's parameter S.
func (d Dataset) NumTrajectories() int { return len(d) }

// TotalSnapshots returns the total number of snapshots across all
// trajectories, the dataset "size" N in the complexity analysis.
func (d Dataset) TotalSnapshots() int {
	var n int
	for _, t := range d {
		n += len(t)
	}
	return n
}

// AvgLength returns the average trajectory length, the paper's parameter L.
func (d Dataset) AvgLength() float64 {
	if len(d) == 0 {
		return 0
	}
	return float64(d.TotalSnapshots()) / float64(len(d))
}

// MeanSigma returns the average standard deviation over every snapshot in
// the dataset, used to derive the default pattern-group distance γ = 3σ̄
// (Section 5). It returns 0 for an empty dataset.
func (d Dataset) MeanSigma() float64 {
	var sum float64
	var n int
	for _, t := range d {
		for _, p := range t {
			sum += p.Sigma
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Bounds returns the bounding rectangle of every mean location in the
// dataset, handy for fitting a mining grid to velocity trajectories.
func (d Dataset) Bounds() geom.Rect {
	var pts []geom.Point
	for _, t := range d {
		for _, p := range t {
			pts = append(pts, p.Mean)
		}
	}
	return geom.BoundingRect(pts)
}

// FitGrid builds an n×n grid on a square covering the dataset bounds with
// a 3σ̄ margin, so no boundary cell clips a mean: the geometry every tool
// and experiment mines on.
func (d Dataset) FitGrid(n int) *grid.Grid {
	b := d.Bounds().Expand(3 * d.MeanSigma())
	side := b.Width()
	if b.Height() > side {
		side = b.Height()
	}
	if side == 0 {
		side = 1
	}
	c := b.Center()
	square := geom.NewRect(
		geom.Pt(c.X-side/2, c.Y-side/2),
		geom.Pt(c.X+side/2, c.Y+side/2),
	)
	return grid.New(square, n, n)
}

// ToVelocity converts every trajectory in the dataset (see
// Trajectory.ToVelocity). Trajectories that become empty are dropped.
func (d Dataset) ToVelocity() Dataset {
	out := make(Dataset, 0, len(d))
	for _, t := range d {
		if v := t.ToVelocity(); len(v) > 0 {
			out = append(out, v)
		}
	}
	return out
}

// Validate reports the first structural problem in any trajectory.
func (d Dataset) Validate() error {
	for i, t := range d {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("trajectory %d: %w", i, err)
		}
	}
	return nil
}

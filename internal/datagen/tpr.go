package datagen

import (
	"fmt"
	"math"

	"trajpattern/internal/geom"
	"trajpattern/internal/stat"
	"trajpattern/internal/traj"
)

// TPRConfig parameterizes the uniform moving-object workload in the style
// of the TPR-tree evaluation [9]: objects start uniformly in the unit
// square with uniformly distributed velocities, keep each velocity for a
// geometric number of snapshots, and bounce off the boundary.
type TPRConfig struct {
	NumObjects int // trajectories (default 100)
	Length     int // snapshots per trajectory (default 100)
	Seed       uint64
}

// The workload's speed bound and velocity-change rate.
const (
	tprMaxSpeed   float64 = 0.03 // per-snapshot speed bound
	tprChangeProb float64 = 0.1  // per-snapshot probability of drawing a new velocity
)

func (c TPRConfig) withDefaults() TPRConfig {
	if c.NumObjects == 0 {
		c.NumObjects = 100
	}
	if c.Length == 0 {
		c.Length = 100
	}
	return c
}

func (c TPRConfig) validate() error {
	if c.NumObjects < 1 || c.Length < 2 {
		return fmt.Errorf("datagen: TPRConfig needs >=1 object and Length >= 2")
	}
	return nil
}

// TPRObjects generates the true paths of the uniform workload.
func TPRObjects(cfg TPRConfig) ([][]geom.Point, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := stat.NewRNG(cfg.Seed)
	bounds := geom.UnitSquare()
	paths := make([][]geom.Point, cfg.NumObjects)
	for i := range paths {
		pos := geom.Pt(rng.Float64(), rng.Float64())
		vel := randomVelocity(rng)
		path := make([]geom.Point, cfg.Length)
		for t := 0; t < cfg.Length; t++ {
			path[t] = pos
			if rng.Bool(tprChangeProb) {
				vel = randomVelocity(rng)
			}
			next := pos.Add(vel)
			// Bounce off the walls.
			if next.X < bounds.Min.X || next.X > bounds.Max.X {
				vel.X = -vel.X
				next.X = pos.X + vel.X
			}
			if next.Y < bounds.Min.Y || next.Y > bounds.Max.Y {
				vel.Y = -vel.Y
				next.Y = pos.Y + vel.Y
			}
			pos = bounds.Clamp(next)
		}
		paths[i] = path
	}
	return paths, nil
}

// randomVelocity draws a velocity with uniform direction and speed uniform
// in (0, tprMaxSpeed].
func randomVelocity(rng *stat.RNG) geom.Point {
	th := rng.Uniform(0, 2*math.Pi)
	sp := rng.Float64() * tprMaxSpeed
	return geom.Pt(sp*math.Cos(th), sp*math.Sin(th))
}

// TPRDataset generates the imprecise dataset form of TPRObjects with
// observation noise and σ = u/c, mirroring ZebraDataset.
func TPRDataset(cfg TPRConfig, u, c float64) (traj.Dataset, error) {
	if u <= 0 || c <= 0 {
		return nil, fmt.Errorf("datagen: u and c must be > 0")
	}
	paths, err := TPRObjects(cfg)
	if err != nil {
		return nil, err
	}
	rng := stat.NewRNG(cfg.Seed ^ 0x79A1)
	sigma := u / c
	ds := make(traj.Dataset, len(paths))
	for i, path := range paths {
		tr := make(traj.Trajectory, len(path))
		for j, p := range path {
			tr[j] = traj.Point{
				Mean:  p.Add(geom.Pt(rng.Normal(0, sigma), rng.Normal(0, sigma))),
				Sigma: sigma,
			}
		}
		ds[i] = tr
	}
	return ds, nil
}

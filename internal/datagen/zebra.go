package datagen

import (
	"fmt"
	"math"

	"trajpattern/internal/geom"
	"trajpattern/internal/stat"
	"trajpattern/internal/traj"
)

// ZebraConfig parameterizes the ZebraNet-style generator of §6.2: zebras
// move in groups; at each snapshot every group is assigned a moving
// distance and direction drawn from distributions extracted from the real
// traces (here: the synthetic equivalents below), each individual adds
// noise, and a small fraction of zebras leaves its group to move
// independently.
type ZebraConfig struct {
	NumZebras  int     // number of trajectories S (default 100)
	NumGroups  int     // herds moving together (default 8)
	AvgLen     int     // average trajectory length L (default 100)
	LenJitter  float64 // relative length variation in [0,1) (default 0.3)
	IndivNoise float64 // individual position noise around the group (default 0.01)
	LeaveProb  float64 // per-snapshot probability a zebra leaves its group (default 0.002)

	Seed uint64
}

// Movement statistics (the paper extracts these from the ZebraNet traces;
// these emulate grazing/walking behaviour on the unit square). They are
// typed so that expressions over them round as float64 arithmetic does:
// Go folds an expression of untyped constants exactly, which would make
// zebraTurnSigma*1.5 0.6 instead of 0.6000000000000001 and change the
// generated paths.
const (
	zebraMeanStep  float64 = 0.015 // mean per-snapshot group distance
	zebraStepSigma float64 = 0.5   // log-scale sigma of the step distribution
	zebraTurnSigma float64 = 0.4   // per-snapshot direction change in radians
)

func (c ZebraConfig) withDefaults() ZebraConfig {
	if c.NumZebras == 0 {
		c.NumZebras = 100
	}
	if c.NumGroups == 0 {
		c.NumGroups = 8
	}
	if c.AvgLen == 0 {
		c.AvgLen = 100
	}
	if c.LenJitter == 0 {
		c.LenJitter = 0.3
	}
	if c.IndivNoise == 0 {
		c.IndivNoise = 0.01
	}
	if c.LeaveProb == 0 {
		c.LeaveProb = 0.002
	}
	return c
}

func (c ZebraConfig) validate() error {
	if c.NumZebras < 1 || c.NumGroups < 1 || c.AvgLen < 2 {
		return fmt.Errorf("datagen: ZebraConfig needs >=1 zebra, >=1 group, AvgLen >= 2")
	}
	if c.LenJitter < 0 || c.LenJitter >= 1 {
		return fmt.Errorf("datagen: ZebraConfig.LenJitter must be in [0,1)")
	}
	if c.LeaveProb < 0 || c.LeaveProb > 1 {
		return fmt.Errorf("datagen: ZebraConfig.LeaveProb must be in [0,1]")
	}
	if c.IndivNoise < 0 {
		return fmt.Errorf("datagen: ZebraConfig.IndivNoise must be >= 0")
	}
	return nil
}

// Zebras generates the true per-snapshot paths of every zebra. The maximum
// trajectory length is AvgLen·(1+LenJitter); individual lengths are
// uniform in AvgLen·(1±LenJitter).
func Zebras(cfg ZebraConfig) ([][]geom.Point, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := stat.NewRNG(cfg.Seed)
	maxLen := int(math.Ceil(float64(cfg.AvgLen) * (1 + cfg.LenJitter)))

	// Group state: position and heading, updated per snapshot.
	type groupState struct {
		pos     geom.Point
		heading float64
	}
	groups := make([]groupState, cfg.NumGroups)
	for gi := range groups {
		groups[gi] = groupState{
			pos:     geom.Pt(rng.Uniform(0.2, 0.8), rng.Uniform(0.2, 0.8)),
			heading: rng.Uniform(0, 2*math.Pi),
		}
	}

	// Zebra state.
	type zebraState struct {
		group   int // -1 once it has left
		pos     geom.Point
		heading float64 // own heading when independent
		length  int
	}
	zebras := make([]zebraState, cfg.NumZebras)
	for zi := range zebras {
		gi := zi % cfg.NumGroups
		span := cfg.LenJitter * float64(cfg.AvgLen)
		length := cfg.AvgLen + int(rng.Uniform(-span, span))
		if length < 2 {
			length = 2
		}
		zebras[zi] = zebraState{
			group: gi,
			pos: groups[gi].pos.Add(
				geom.Pt(rng.Normal(0, cfg.IndivNoise*3), rng.Normal(0, cfg.IndivNoise*3))),
			length: length,
		}
	}

	paths := make([][]geom.Point, cfg.NumZebras)
	bounds := geom.UnitSquare()
	for t := 0; t < maxLen; t++ {
		// Advance each group: draw distance (lognormal around MeanStep)
		// and direction (heading random walk).
		for gi := range groups {
			g := &groups[gi]
			g.heading += rng.Normal(0, zebraTurnSigma)
			step := zebraMeanStep * math.Exp(rng.Normal(0, zebraStepSigma)-zebraStepSigma*zebraStepSigma/2)
			next := g.pos.Add(geom.Pt(step*math.Cos(g.heading), step*math.Sin(g.heading)))
			if !bounds.Contains(next) {
				// Turn back toward the interior (water hole behaviour).
				g.heading += math.Pi
				next = bounds.Clamp(next)
			}
			g.pos = next
		}
		for zi := range zebras {
			z := &zebras[zi]
			if t >= z.length {
				continue
			}
			if z.group >= 0 && rng.Bool(cfg.LeaveProb) {
				z.group = -1
				z.heading = rng.Uniform(0, 2*math.Pi)
			}
			if z.group >= 0 {
				z.pos = groups[z.group].pos.Add(
					geom.Pt(rng.Normal(0, cfg.IndivNoise), rng.Normal(0, cfg.IndivNoise)))
			} else {
				z.heading += rng.Normal(0, zebraTurnSigma*1.5)
				step := zebraMeanStep * math.Exp(rng.Normal(0, zebraStepSigma)-zebraStepSigma*zebraStepSigma/2)
				next := z.pos.Add(geom.Pt(step*math.Cos(z.heading), step*math.Sin(z.heading)))
				if !bounds.Contains(next) {
					z.heading += math.Pi
					next = bounds.Clamp(next)
				}
				z.pos = next
			}
			paths[zi] = append(paths[zi], z.pos)
		}
	}
	return paths, nil
}

// ZebraDataset generates the imprecise trajectory dataset directly: each
// true position is perturbed by the observation noise implied by the
// reporting scheme and annotated with σ = U/C. This bypasses the full
// device/server simulation for the scalability sweeps, where only the
// statistical shape of the input matters; use the report package for the
// end-to-end pipeline.
func ZebraDataset(cfg ZebraConfig, u, c float64) (traj.Dataset, error) {
	if u <= 0 || c <= 0 {
		return nil, fmt.Errorf("datagen: u and c must be > 0")
	}
	paths, err := Zebras(cfg)
	if err != nil {
		return nil, err
	}
	rng := stat.NewRNG(cfg.Seed ^ 0x2EB7A) // independent observation-noise stream
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

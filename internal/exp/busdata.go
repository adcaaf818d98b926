package exp

import (
	"fmt"
	"math"

	"trajpattern/internal/datagen"
	"trajpattern/internal/geom"
	"trajpattern/internal/grid"
	"trajpattern/internal/report"
	"trajpattern/internal/stat"
	"trajpattern/internal/traj"
)

// BusData is the end-to-end §6.1 pipeline product: the bus traces with
// their true paths, the imprecise location trajectories the server
// reconstructs from the reporting protocol, the derived velocity
// trajectories, and the velocity grid used for mining.
type BusData struct {
	Traces     []datagen.BusTrace
	Locations  traj.Dataset      // imprecise location trajectories (server view)
	Velocities traj.Dataset      // velocity trajectories, the mining input
	Grid       *grid.Grid        // velocity-space grid
	BusCfg     datagen.BusConfig // generating fleet configuration
}

// TrueVelocitySigma estimates the standard deviation of a device-observed
// per-step velocity around the route's nominal velocity: speed jitter plus
// the GPS noise of two consecutive fixes. The pattern-confirmation check
// of the Figure 3 experiment uses this — not the (much larger) server-side
// σ — because the device confirms against its own observed velocities.
func (b *BusData) TrueVelocitySigma() float64 {
	return b.BusCfg.BaseSpeed*datagen.BusSpeedNoise + math.Sqrt2*datagen.BusGPSNoise
}

// BusOptions parameterizes the bus pipeline.
type BusOptions struct {
	Scale     float64 // dataset scale (1 = the paper's 500 traces)
	GridN     int     // velocity grid is GridN×GridN (default 24)
	U         float64 // tolerable uncertainty distance (default 0.01)
	C         float64 // confidence constant (default 2)
	BaseSpeed float64 // fleet speed override (0 = generator default)
	Stops     int     // fixed stops per route (0 = default, negative disables)
	Seed      uint64
}

// busLossProb is the probability a report transmission is lost.
const busLossProb = 0.05

func (o BusOptions) withDefaults() (BusOptions, error) {
	scale, err := checkScale(o.Scale)
	if err != nil {
		return o, err
	}
	o.Scale = scale
	if o.GridN == 0 {
		o.GridN = 24
	}
	if o.U == 0 {
		o.U = 0.01
	}
	if o.C == 0 {
		o.C = 2
	}
	return o, nil
}

// MakeBusData runs the full §6.1 data pipeline: simulate buses, run the
// reporting protocol, synchronize onto 100 snapshots, convert to velocity
// trajectories and fit the mining grid to velocity space.
func MakeBusData(o BusOptions) (*BusData, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	busCfg := datagen.BusConfig{
		Routes:        5,
		BusesPerRoute: scaleInt(10, o.Scale, 2),
		Days:          scaleInt(10, o.Scale, 2),
		Minutes:       101,
		BaseSpeed:     o.BaseSpeed,
		Stops:         o.Stops,
		Seed:          o.Seed,
	}.WithDefaults()
	traces, err := datagen.Buses(busCfg)
	if err != nil {
		return nil, err
	}
	paths := make([][]geom.Point, len(traces))
	for i, tr := range traces {
		paths[i] = tr.Path
	}
	times := make([]float64, busCfg.Minutes)
	for i := range times {
		times[i] = float64(i)
	}
	locations, _, err := report.BuildDataset(times, paths,
		report.Config{U: o.U, C: o.C, LossProb: busLossProb},
		0, 1, busCfg.Minutes, stat.NewRNG(o.Seed^0xB05))
	if err != nil {
		return nil, err
	}
	velocities := locations.ToVelocity()
	if len(velocities) == 0 {
		return nil, fmt.Errorf("exp: empty velocity dataset")
	}
	return &BusData{
		Traces:     traces,
		Locations:  locations,
		Velocities: velocities,
		Grid:       velocities.FitGrid(o.GridN),
		BusCfg:     busCfg,
	}, nil
}

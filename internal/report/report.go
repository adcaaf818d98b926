// Package report simulates the location reporting scheme of Section 3.1 of
// the TrajPattern paper: a set of mobile devices that know their own
// (true) locations, and a server that dead-reckons each device's position
// between reports.
//
// The contract is the one the paper requires of any location inference
// method: at any time the server holds a predicted location, and the true
// location follows a distribution around it. A device compares its true
// position against the server's prediction and transmits a report only when
// the deviation exceeds the tolerable uncertainty distance U; each
// transmission may independently be lost with probability LossProb (the
// paper's motivation for choosing the confidence constant c).
//
// The output of the simulation — the reports the server actually received —
// is fed through traj.Synchronize to produce the imprecise trajectories
// that the miners consume.
package report

import (
	"fmt"

	"trajpattern/internal/geom"
	"trajpattern/internal/stat"
	"trajpattern/internal/traj"
)

// Config parameterizes the reporting scheme.
type Config struct {
	// U is the tolerable uncertainty distance: a device reports when its
	// true location is more than U from the server's prediction. Must be
	// positive.
	U float64
	// C is the confidence constant relating U to the distribution spread
	// (σ = U/C). C = 2 corresponds to tolerating a 5% message loss. Must
	// be positive.
	C float64
	// LossProb is the probability that any single report transmission is
	// lost. Must be in [0, 1). The initial fix of each device is assumed
	// delivered (a device retries its first registration until it
	// succeeds).
	LossProb float64
}

func (c Config) validate() error {
	switch {
	case c.U <= 0:
		return fmt.Errorf("report: Config.U must be > 0, got %v", c.U)
	case c.C <= 0:
		return fmt.Errorf("report: Config.C must be > 0, got %v", c.C)
	case c.LossProb < 0 || c.LossProb >= 1:
		return fmt.Errorf("report: Config.LossProb must be in [0,1), got %v", c.LossProb)
	}
	return nil
}

// Result captures one device's simulation: the reports the server received
// plus transmission statistics.
type Result struct {
	Received []traj.Report // reports that reached the server, in time order
	Sent     int           // reports the device attempted to transmit
	Lost     int           // attempted reports dropped by the channel
}

// Simulate runs the reporting protocol for one device. times[i] is the
// instant at which the device observes its true position path[i]; both
// slices must have equal, non-zero length and times must be strictly
// increasing. rng drives message loss and may be shared across devices.
func Simulate(times []float64, path []geom.Point, cfg Config, rng *stat.RNG) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if len(times) == 0 || len(times) != len(path) {
		return Result{}, fmt.Errorf("report: times (%d) and path (%d) must be equal and non-empty", len(times), len(path))
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			return Result{}, fmt.Errorf("report: times must be strictly increasing (index %d)", i)
		}
	}

	var res Result
	// The initial fix always reaches the server.
	res.Received = append(res.Received, traj.Report{Time: times[0], Loc: path[0]})
	res.Sent++

	for i := 1; i < len(times); i++ {
		predicted := traj.PredictAt(res.Received, times[i])
		if predicted.Dist(path[i]) <= cfg.U {
			continue // prediction good enough, stay silent
		}
		res.Sent++
		if rng != nil && rng.Bool(cfg.LossProb) {
			res.Lost++
			continue // channel dropped the report; server keeps predicting
		}
		res.Received = append(res.Received, traj.Report{Time: times[i], Loc: path[i]})
	}
	return res, nil
}

// BuildDataset runs the reporting protocol for every device path and
// synchronizes the received reports onto the snapshot schedule, yielding
// the imprecise location trajectories the miners take as input. All paths
// share the observation times. The sync configuration's U and C are taken
// from cfg so that σ = U/C is consistent with the reporting scheme.
func BuildDataset(times []float64, paths [][]geom.Point, cfg Config, start, interval float64, count int, rng *stat.RNG) (traj.Dataset, []Result, error) {
	ds := make(traj.Dataset, 0, len(paths))
	results := make([]Result, 0, len(paths))
	syncCfg := traj.SyncConfig{Start: start, Interval: interval, Count: count, U: cfg.U, C: cfg.C}
	for i, path := range paths {
		res, err := Simulate(times, path, cfg, rng)
		if err != nil {
			return nil, nil, fmt.Errorf("report: device %d: %w", i, err)
		}
		tr, err := traj.Synchronize(res.Received, syncCfg)
		if err != nil {
			return nil, nil, fmt.Errorf("report: device %d: %w", i, err)
		}
		ds = append(ds, tr)
		results = append(results, res)
	}
	return ds, results, nil
}

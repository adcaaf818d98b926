// Package datagen synthesizes the datasets of the paper's evaluation:
//
//   - BusSim reproduces the shape of the §6.1 bus data set (50 buses on 5
//     routes, 10 weekdays, per-minute GPS readings, 500 traces): the real
//     GPS traces are not available, so buses follow fixed route loops with
//     speed noise, dwell stops and GPS jitter. Shared routes induce the
//     common velocity patterns the experiment mines.
//   - ZebraSim reproduces the §6.2 ZebraNet-style generator exactly as the
//     paper describes it: zebra groups draw a per-snapshot moving distance
//     and direction, individuals add noise, and a small number of zebras
//     leave their group and move independently.
//   - TPRSim generates uniform objects with piecewise-constant random
//     velocities, the network-style workload of [9].
//
// All generators are deterministic functions of their seed.
package datagen

import (
	"fmt"
	"math"

	"trajpattern/internal/geom"
	"trajpattern/internal/stat"
)

// BusConfig parameterizes the bus-route simulator. The defaults mirror the
// paper's data set: 5 routes × 10 buses × 10 days = 500 traces of
// per-minute readings.
type BusConfig struct {
	Routes        int     // number of distinct routes (default 5)
	BusesPerRoute int     // buses sharing each route (default 10)
	Days          int     // traces per bus (default 10)
	Minutes       int     // readings per trace (default 101 → 100 velocities)
	BaseSpeed     float64 // route distance covered per minute (default 0.02)
	// Stops is the number of fixed bus stops per route (default 4). A bus
	// reaching a stop dwells there two minutes. Fixed stops anchor the
	// phase of every bus along its route, which is what makes velocity
	// sequences repeat across traces (real schedules share stops). Set
	// negative to disable fixed stops.
	Stops int
	Seed  uint64 // RNG seed
}

// The fleet's noise and dwell parameters. The floats are typed so that
// expressions over them round as float64 arithmetic does: Go folds an
// expression of untyped constants exactly, which would change the last
// bit of √2·BusGPSNoise in E2's confirmation σ.
const (
	BusSpeedNoise float64 = 0.15  // relative speed jitter per minute
	BusGPSNoise   float64 = 0.002 // std-dev of position jitter
	busStopProb   float64 = 0.05  // probability of a random traffic dwell
	busDwellMin           = 2     // dwell duration at a fixed stop in minutes
)

// WithDefaults returns the configuration with zero fields replaced by the
// paper-comparable defaults.
func (c BusConfig) WithDefaults() BusConfig {
	if c.Routes == 0 {
		c.Routes = 5
	}
	if c.BusesPerRoute == 0 {
		c.BusesPerRoute = 10
	}
	if c.Days == 0 {
		c.Days = 10
	}
	if c.Minutes == 0 {
		c.Minutes = 101
	}
	if c.BaseSpeed == 0 {
		c.BaseSpeed = 0.02
	}
	if c.Stops == 0 {
		c.Stops = 4
	}
	return c
}

func (c BusConfig) validate() error {
	if c.Routes < 0 || c.BusesPerRoute < 0 || c.Days < 0 || c.Minutes < 0 {
		return fmt.Errorf("datagen: negative BusConfig counts")
	}
	if c.BaseSpeed < 0 {
		return fmt.Errorf("datagen: negative BusConfig.BaseSpeed")
	}
	return nil
}

// BusTrace is one bus-day: the true per-minute locations plus provenance.
type BusTrace struct {
	Route int
	Bus   int
	Day   int
	Path  []geom.Point
}

// Buses generates the full trace set: Routes × BusesPerRoute × Days traces
// of Minutes readings each, inside the unit square.
func Buses(cfg BusConfig) ([]BusTrace, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := stat.NewRNG(cfg.Seed)
	routes := make([][]geom.Point, cfg.Routes)
	for r := range routes {
		routes[r] = makeRoute(rng.Fork(uint64(r + 1)))
	}

	var traces []BusTrace
	for r := 0; r < cfg.Routes; r++ {
		loopLen := geom.PolylineLength(closeLoop(routes[r]))
		stops := stopArcs(loopLen, cfg.Stops)
		for b := 0; b < cfg.BusesPerRoute; b++ {
			// Each bus starts at its own offset along the loop, fixed
			// across days (same driver, same schedule).
			offset := rng.Float64() * loopLen
			for d := 0; d < cfg.Days; d++ {
				busRNG := rng.Fork(uint64(r)<<20 | uint64(b)<<10 | uint64(d))
				traces = append(traces, BusTrace{
					Route: r, Bus: b, Day: d,
					Path: driveBus(routes[r], loopLen, offset, stops, cfg, busRNG),
				})
			}
		}
	}
	return traces, nil
}

// stopArcs places n fixed stops evenly along a loop of the given length.
func stopArcs(loopLen float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	arcs := make([]float64, n)
	for i := range arcs {
		arcs[i] = loopLen * float64(i) / float64(n)
	}
	return arcs
}

// makeRoute builds a closed rectilinear route: buses drive city blocks, so
// the loop is an axis-aligned rectangle on a street grid with one or two
// rectangular notches. Rectilinear routes concentrate the velocity
// vocabulary in a handful of directions (±x, ±y and stopped), which is
// what makes fleet-wide velocity patterns minable — the property the real
// bus traces of §6.1 have by construction of street networks.
func makeRoute(rng *stat.RNG) []geom.Point {
	const street = 0.1 // street spacing
	snap := func(v float64) float64 { return math.Round(v/street) * street }

	// Compact loops: a lap takes a handful of minutes, so each trace
	// covers many laps and every corner/stop recurs often enough to mine.
	x1 := snap(rng.Uniform(0.1, 0.55))
	x2 := snap(x1 + rng.Uniform(0.2, 0.35))
	y1 := snap(rng.Uniform(0.1, 0.55))
	y2 := snap(y1 + rng.Uniform(0.2, 0.35))

	// Base rectangle, counterclockwise.
	pts := []geom.Point{
		geom.Pt(x1, y1), geom.Pt(x2, y1), geom.Pt(x2, y2), geom.Pt(x1, y2),
	}
	// Optional notch on the top edge: detour one block down and back.
	if rng.Bool(0.7) && x2-x1 >= 3*street {
		nx1 := snap(rng.Uniform(x1+street, x2-2*street))
		nx2 := nx1 + street
		ny := y2 - street
		pts = []geom.Point{
			geom.Pt(x1, y1), geom.Pt(x2, y1), geom.Pt(x2, y2),
			geom.Pt(nx2, y2), geom.Pt(nx2, ny), geom.Pt(nx1, ny), geom.Pt(nx1, y2),
			geom.Pt(x1, y2),
		}
	}
	return pts
}

// closeLoop appends the first vertex so the polyline closes.
func closeLoop(pts []geom.Point) []geom.Point {
	return append(append([]geom.Point(nil), pts...), pts[0])
}

// driveBus advances a bus along its route loop minute by minute, dwelling
// at the route's fixed stops and occasionally in traffic.
func driveBus(route []geom.Point, loopLen, offset float64, stops []float64, cfg BusConfig, rng *stat.RNG) []geom.Point {
	loop := closeLoop(route)
	path := make([]geom.Point, cfg.Minutes)
	s := offset
	dwell := 0
	for m := 0; m < cfg.Minutes; m++ {
		pos := geom.PointAlongPolyline(loop, math.Mod(s, loopLen))
		path[m] = pos.Add(geom.Pt(rng.Normal(0, BusGPSNoise), rng.Normal(0, BusGPSNoise)))
		if dwell > 0 {
			dwell--
			continue
		}
		if rng.Bool(busStopProb) {
			continue // random traffic dwell
		}
		step := cfg.BaseSpeed * (1 + rng.Normal(0, BusSpeedNoise))
		if step < 0 {
			step = 0
		}
		// A fixed stop inside the step: snap to it and start dwelling, so
		// every bus leaves the stop from the same position.
		if arc, ok := nextStop(math.Mod(s, loopLen), step, stops, loopLen); ok {
			s += math.Mod(arc-math.Mod(s, loopLen)+loopLen, loopLen)
			dwell = busDwellMin
			continue
		}
		s += step
	}
	return path
}

// nextStop returns the first stop arc within (pos, pos+step] on the loop,
// handling wraparound.
func nextStop(pos, step float64, stops []float64, loopLen float64) (float64, bool) {
	best, found := 0.0, false
	bestDist := step
	for _, arc := range stops {
		d := math.Mod(arc-pos+loopLen, loopLen)
		if d > 0 && d <= bestDist {
			best, bestDist, found = arc, d, true
		}
	}
	return best, found
}

// Bus routes: the full §6.1 pipeline end to end — simulate a bus fleet,
// run the §3.1 location-reporting protocol (dead reckoning, tolerable
// uncertainty U, lossy channel), synchronize the received reports onto
// snapshots, transform to velocity trajectories, and mine the common
// velocity patterns of the fleet.
//
// Run with: go run ./examples/busroutes
package main

import (
	"context"
	"fmt"
	"log"

	"trajpattern"
)

func main() {
	const (
		u        = 0.01 // tolerable uncertainty distance
		c        = 2    // confidence constant: σ = U/c, tolerates 5% loss
		lossProb = 0.05
		minutes  = 101
	)

	// 1. Simulate the fleet: 5 routes × 4 buses × 3 days of per-minute
	// GPS readings (a scaled-down version of the paper's 500 traces).
	traces, err := trajpattern.GenerateBuses(trajpattern.BusConfig{
		Routes: 5, BusesPerRoute: 4, Days: 3, Minutes: minutes, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	paths := make([][]trajpattern.Point, len(traces))
	for i, tr := range traces {
		paths[i] = tr.Path
	}
	times := make([]float64, minutes)
	for i := range times {
		times[i] = float64(i)
	}

	// 2. Reporting protocol: each bus transmits only when its true
	// position strays more than U from the server's dead-reckoned
	// prediction; 5% of reports are lost. The server synchronizes what it
	// received onto per-minute snapshots.
	locations, results, err := trajpattern.BuildReportedDataset(
		times, paths,
		trajpattern.ReportConfig{U: u, C: c, LossProb: lossProb},
		0, 1, minutes, trajpattern.NewRNG(23))
	if err != nil {
		log.Fatal(err)
	}
	var sent, lost int
	for _, r := range results {
		sent += r.Sent
		lost += r.Lost
	}
	fmt.Printf("reporting: %d traces, %d reports sent (%.1f%% of readings), %d lost\n",
		len(results), sent, 100*float64(sent)/float64(len(results)*minutes), lost)

	// 3. Velocity transform: buses on different routes travel in
	// different regions, so mining happens in velocity space (§3.2).
	velocities := locations.ToVelocity()

	// 4. Fit a grid to velocity space and mine.
	b := velocities.Bounds().Expand(3 * velocities.MeanSigma())
	g := trajpattern.NewGrid(trajpattern.NewRect(b.Min, b.Max), 20, 20)
	scorer, err := trajpattern.NewScorer(velocities, trajpattern.ScorerConfig{
		Grid:  g,
		Delta: g.CellWidth(),
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := trajpattern.Mine(context.Background(), scorer, trajpattern.MinerConfig{
		K: 12, MinLen: 3, MaxLen: 8,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ntop velocity patterns (length ≥ 3) across the fleet:\n")
	patterns := make([]trajpattern.Pattern, 0, len(res.Patterns))
	for i, sp := range res.Patterns {
		fmt.Printf("  %2d. NM=%8.2f len=%d  %s\n", i+1, sp.NM, len(sp.Pattern), sp.Pattern.Format(g))
		patterns = append(patterns, sp.Pattern)
	}

	groups, err := trajpattern.DiscoverGroups(patterns, g,
		trajpattern.DefaultGamma(velocities.MeanSigma()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncompact presentation: %d pattern groups for %d patterns\n",
		len(groups), len(patterns))
	for i, grp := range groups {
		fmt.Printf("  group %d: %d member(s), length %d, representative %s\n",
			i+1, grp.Len(), grp.PatternLen(), grp.Members[0].Format(g))
	}
}

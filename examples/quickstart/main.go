// Quickstart: mine trajectory patterns from a handful of imprecise
// trajectories with the trajpattern public API.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"trajpattern"
)

func main() {
	// Three mobile objects repeatedly walk the same L-shaped path through
	// the unit square; a fourth wanders elsewhere. Each snapshot is an
	// imprecise location: the true position is normal around Mean with
	// standard deviation Sigma.
	rng := trajpattern.NewRNG(7)
	waypoints := []trajpattern.Point{
		trajpattern.Pt(0.15, 0.15),
		trajpattern.Pt(0.45, 0.15),
		trajpattern.Pt(0.75, 0.15),
		trajpattern.Pt(0.75, 0.45),
		trajpattern.Pt(0.75, 0.75),
	}
	var ds trajpattern.Dataset
	for obj := 0; obj < 3; obj++ {
		var tr trajpattern.Trajectory
		for rep := 0; rep < 4; rep++ {
			for _, w := range waypoints {
				tr = append(tr, trajpattern.TrajP(
					w.X+rng.Normal(0, 0.01),
					w.Y+rng.Normal(0, 0.01),
					0.03, // σ of the location distribution
				))
			}
		}
		ds = append(ds, tr)
	}
	var stray trajpattern.Trajectory
	for i := 0; i < 20; i++ {
		stray = append(stray, trajpattern.TrajP(rng.Float64(), rng.Float64(), 0.03))
	}
	ds = append(ds, stray)

	// Discretize the space and build a scorer; δ defaults to the cell
	// size as in the paper.
	g := trajpattern.NewSquareGrid(10)
	scorer, err := trajpattern.NewScorer(ds, trajpattern.ScorerConfig{
		Grid:  g,
		Delta: g.CellWidth(),
	})
	if err != nil {
		log.Fatal(err)
	}

	// Mine the top-5 patterns of length at least 2 by normalized match
	// (without a length floor the best patterns are single strong
	// positions — the §5 min-length variant asks for sequences).
	res, err := trajpattern.Mine(context.Background(), scorer, trajpattern.MinerConfig{K: 5, MinLen: 2, MaxLen: 6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top patterns by normalized match:")
	patterns := make([]trajpattern.Pattern, 0, len(res.Patterns))
	for i, sp := range res.Patterns {
		fmt.Printf("  %d. NM=%.3f  %s\n", i+1, sp.NM, sp.Pattern.Format(g))
		patterns = append(patterns, sp.Pattern)
	}

	// Present them as pattern groups (γ = 3σ̄).
	groups, err := trajpattern.DiscoverGroups(patterns, g, trajpattern.DefaultGamma(ds.MeanSigma()))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d pattern groups:\n", len(groups))
	for i, grp := range groups {
		fmt.Printf("  group %d: %d pattern(s) of length %d\n", i+1, grp.Len(), grp.PatternLen())
	}
}

// ZebraNet: mine migration patterns from a ZebraNet-style herd simulation
// (§6.2) and contrast the normalized-match measure with the unnormalized
// match measure of [14] — the paper's core motivation: match favors the
// shortest patterns, NM surfaces longer, more informative ones.
//
// Run with: go run ./examples/zebranet
package main

import (
	"context"
	"fmt"
	"log"

	"trajpattern"
)

func main() {
	// Herds of zebras wander the reserve; devices report with tolerable
	// uncertainty U = 0.02 and confidence c = 2 (σ = 0.01).
	ds, err := trajpattern.GenerateZebraDataset(trajpattern.ZebraConfig{
		NumZebras: 60,
		NumGroups: 5,
		AvgLen:    80,
		Seed:      42,
	}, 0.02, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d zebras, avg trajectory length %.1f, σ = %.3f\n",
		ds.NumTrajectories(), ds.AvgLength(), ds.MeanSigma())

	g := trajpattern.NewSquareGrid(14)
	mkScorer := func() *trajpattern.Scorer {
		s, err := trajpattern.NewScorer(ds, trajpattern.ScorerConfig{
			Grid:  g,
			Delta: g.CellWidth(),
		})
		if err != nil {
			log.Fatal(err)
		}
		return s
	}

	const k, minLen, maxLen = 10, 2, 6

	// Top-k by normalized match (the paper's TrajPattern algorithm).
	nmRes, err := trajpattern.Mine(context.Background(), mkScorer(), trajpattern.MinerConfig{
		K: k, MinLen: minLen, MaxLen: maxLen,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Top-k by match (the Apriori-friendly measure of [14]).
	mRes, err := trajpattern.MineMatch(mkScorer(), trajpattern.MatchConfig{
		K: k, MinLen: minLen, MaxLen: maxLen,
	})
	if err != nil {
		log.Fatal(err)
	}

	avgLen := func(n int, total int) float64 { return float64(total) / float64(n) }
	var nmTotal, mTotal int
	fmt.Println("\ntop patterns by normalized match:")
	for i, sp := range nmRes.Patterns {
		fmt.Printf("  %2d. NM=%9.2f len=%d  %s\n", i+1, sp.NM, len(sp.Pattern), sp.Pattern.Format(g))
		nmTotal += len(sp.Pattern)
	}
	fmt.Println("\ntop patterns by match ([14]):")
	for i, sm := range mRes.Patterns {
		fmt.Printf("  %2d. match=%8.4f len=%d  %s\n", i+1, sm.Match, len(sm.Pattern), sm.Pattern.Format(g))
		mTotal += len(sm.Pattern)
	}
	fmt.Printf("\naverage pattern length: NM %.2f vs match %.2f (the paper reports 4.2 vs 3.18)\n",
		avgLen(len(nmRes.Patterns), nmTotal), avgLen(len(mRes.Patterns), mTotal))

	// §5 extension: try inserting wild cards into the best NM pattern.
	scorer := mkScorer()
	best := nmRes.Patterns[0].Pattern
	wild, wildNM, err := scorer.ExpandWithWildcards(best, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwildcard refinement of the best pattern: %s (NM %.2f)\n", wild.String(), wildNM)
}

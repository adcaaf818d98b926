// Advertising: the paper's location-based commerce use case — "retail
// stores will distribute e-Flyers to potential customers' mobile devices
// based on their locations ... finding common moving patterns of mobile
// devices is valuable for inferring potential movement of mobile device
// users, and thus helps to efficiently distribute the advertisement."
//
// Shoppers move through a mall grid along a few common corridors. A store
// wants to send flyers only to devices likely to pass it within the next
// few snapshots. We mine location patterns of the crowd, then target a
// device when its recent (imprecise) locations confirm the prefix of a
// pattern whose continuation reaches the store cell — and compare against
// untargeted broadcasting.
//
// Run with: go run ./examples/advertising
package main

import (
	"context"
	"fmt"
	"log"

	"trajpattern"
)

func main() {
	rng := trajpattern.NewRNG(17)

	// Corridor paths through the mall (unit square). Every shopper walks
	// one of these with noise, at cell-per-snapshot speed.
	// Waypoints sit on cell centers of the 10×10 grid below, so shopper
	// noise never straddles a cell boundary.
	corridors := [][]trajpattern.Point{
		{trajpattern.Pt(0.15, 0.45), trajpattern.Pt(0.35, 0.45), trajpattern.Pt(0.55, 0.45), trajpattern.Pt(0.75, 0.45), trajpattern.Pt(0.95, 0.45)},
		{trajpattern.Pt(0.55, 0.05), trajpattern.Pt(0.55, 0.25), trajpattern.Pt(0.55, 0.45), trajpattern.Pt(0.75, 0.45), trajpattern.Pt(0.95, 0.45)},
		{trajpattern.Pt(0.15, 0.85), trajpattern.Pt(0.35, 0.65), trajpattern.Pt(0.55, 0.45), trajpattern.Pt(0.55, 0.25), trajpattern.Pt(0.55, 0.05)},
	}
	const sigma = 0.02
	makeShopper := func() trajpattern.Trajectory {
		c := corridors[rng.Intn(len(corridors))]
		var tr trajpattern.Trajectory
		for _, w := range c {
			tr = append(tr, trajpattern.TrajP(
				w.X+rng.Normal(0, 0.01), w.Y+rng.Normal(0, 0.01), sigma))
		}
		return tr
	}
	var train trajpattern.Dataset
	for i := 0; i < 60; i++ {
		train = append(train, makeShopper())
	}
	var test trajpattern.Dataset
	for i := 0; i < 40; i++ {
		test = append(test, makeShopper())
	}

	// The store sits at the east end of the main corridor.
	g := trajpattern.NewSquareGrid(10)
	store := g.IndexOf(trajpattern.Pt(0.95, 0.45))

	// δ = half a cell: a shopper "is at" a waypoint only when inside its
	// cell, which keeps neighbouring-cell pattern variants from crowding
	// the top-k.
	scorer, err := trajpattern.NewScorer(train, trajpattern.ScorerConfig{
		Grid:  g,
		Delta: g.CellWidth() / 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := trajpattern.Mine(context.Background(), scorer, trajpattern.MinerConfig{
		K: 40, MinLen: 3, MaxLen: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	// NM sums over every shopper, so patterns containing the terminal
	// store cell itself rank poorly (they match a single window and score
	// the floor on the non-store corridor). The useful targeting signal
	// is a pattern whose TAIL heads down the store corridor: its prefix
	// confirms early, its continuation implies passing the store.
	storeCenter := g.CenterAt(store)
	heading := func(p trajpattern.Pattern) bool {
		last := g.CenterAt(p[len(p)-1])
		return last.X >= 0.65 && last.Y > 0.4 && last.Y < 0.5 // east on the store row
	}
	var toStore []trajpattern.Pattern
	for _, sp := range res.Patterns {
		if heading(sp.Pattern) {
			toStore = append(toStore, sp.Pattern)
		}
	}
	fmt.Printf("mined %d patterns, %d head down the store corridor (store cell %v), e.g.:\n",
		len(res.Patterns), len(toStore), storeCenter)
	for i, p := range toStore {
		if i == 3 {
			break
		}
		fmt.Printf("  %s\n", p.Format(g))
	}
	if len(toStore) == 0 {
		log.Fatal("no mined pattern heads to the store; tune K")
	}

	// Targeting rule: slide the shopper's first three snapshots over the
	// pattern's two-position prefix; send a flyer when some window
	// confirms it. Mined cells are compromises across corridors (they can
	// sit a cell off any single corridor), so the confirmation box is a
	// full cell wide and the threshold correspondingly loose.
	confirm := func(tr trajpattern.Trajectory, p trajpattern.Pattern) bool {
		if len(p) < 3 || len(tr) < 3 {
			return false
		}
		for w := 0; w+2 <= 3; w++ {
			prob := 1.0
			for i := 0; i < 2; i++ {
				c := g.CenterAt(p[i])
				prob *= boxProb(tr[w+i].Mean, sigma, c, g.CellWidth())
			}
			if prob >= 0.25 {
				return true
			}
		}
		return false
	}
	willVisit := func(tr trajpattern.Trajectory) bool {
		for _, p := range tr[2:] {
			if g.IndexOf(p.Mean) == store {
				return true
			}
		}
		return false
	}

	var sent, hits, visits int
	for _, tr := range test {
		visit := willVisit(tr)
		if visit {
			visits++
		}
		targeted := false
		for _, p := range toStore {
			if confirm(tr, p) {
				targeted = true
				break
			}
		}
		if targeted {
			sent++
			if visit {
				hits++
			}
		}
	}
	fmt.Printf("\nshoppers: %d, of which %d eventually pass the store (%.0f%% broadcast precision)\n",
		len(test), visits, 100*float64(visits)/float64(len(test)))
	fmt.Printf("targeted flyers sent: %d, correct: %d (%.0f%% targeted precision, %.0f%% of visitors reached)\n",
		sent, hits, 100*float64(hits)/float64(max(sent, 1)),
		100*float64(hits)/float64(max(visits, 1)))
}

func boxProb(mean trajpattern.Point, sigma float64, center trajpattern.Point, delta float64) float64 {
	return trajpattern.BoxProb(mean, sigma, center, delta)
}

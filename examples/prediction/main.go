// Prediction: improve a location predictor with mined trajectory patterns
// (the Figure 3 use case). Objects repeatedly drive a turn sequence; the
// linear model mis-predicts every turn, while the pattern-enhanced
// predictor anticipates turns it has seen as mined velocity patterns.
//
// Run with: go run ./examples/prediction
package main

import (
	"context"
	"fmt"
	"log"

	"trajpattern"
	"trajpattern/internal/predict"
)

func main() {
	rng := trajpattern.NewRNG(3)

	// Velocity vocabulary of the moving objects: east, east, north, ...
	vocab := []trajpattern.Point{
		trajpattern.Pt(0.03, 0),
		trajpattern.Pt(0.03, 0),
		trajpattern.Pt(0, 0.03),
		trajpattern.Pt(0.03, 0),
		trajpattern.Pt(0, -0.03),
	}

	// Build training trajectories (imprecise velocities) and test paths
	// (true locations).
	const sigma = 0.004
	var trainVel trajpattern.Dataset
	var testPaths [][]trajpattern.Point
	for obj := 0; obj < 12; obj++ {
		pos := trajpattern.Pt(0.1, rng.Uniform(0.2, 0.8))
		var path []trajpattern.Point
		var vel trajpattern.Trajectory
		for rep := 0; rep < 5; rep++ {
			for _, v := range vocab {
				noisy := trajpattern.Pt(v.X+rng.Normal(0, sigma), v.Y+rng.Normal(0, sigma))
				pos = pos.Add(noisy)
				path = append(path, pos)
				vel = append(vel, trajpattern.TrajPoint{Mean: noisy, Sigma: sigma})
			}
		}
		if obj < 9 {
			trainVel = append(trainVel, vel)
		} else {
			testPaths = append(testPaths, path)
		}
	}

	// Mine velocity patterns of length >= 3 on the training set.
	b := trainVel.Bounds().Expand(0.01)
	g := trajpattern.NewGrid(trajpattern.NewRect(b.Min, b.Max), 12, 12)
	scorer, err := trajpattern.NewScorer(trainVel, trajpattern.ScorerConfig{
		Grid:  g,
		Delta: g.CellWidth(),
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := trajpattern.Mine(context.Background(), scorer, trajpattern.MinerConfig{
		K: 8, MinLen: 3, MaxLen: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	patterns := make([]trajpattern.Pattern, len(res.Patterns))
	for i, sp := range res.Patterns {
		patterns[i] = sp.Pattern
		fmt.Printf("mined pattern %d: NM=%7.2f  %s\n", i+1, sp.NM, sp.Pattern.Format(g))
	}

	// Compare each base model against its pattern-enhanced version.
	const u = 0.02 // mis-prediction tolerance
	models := []func() trajpattern.Predictor{
		func() trajpattern.Predictor { return trajpattern.NewLinearPredictor() },
		func() trajpattern.Predictor { return trajpattern.NewKalmanPredictor(1e-5, sigma*sigma) },
		func() trajpattern.Predictor { return trajpattern.NewRMFPredictor(0, 0) },
	}
	fmt.Printf("\n%-4s  %-14s  %-14s  %s\n", "model", "base mis-pred", "with patterns", "reduction")
	for _, mk := range models {
		base := mk()
		baseEv, err := trajpattern.EvaluatePredictor(base, testPaths, u)
		if err != nil {
			log.Fatal(err)
		}
		// The confirmation probability (Equation 2) must reach 0.9
		// jointly, so the indifference radius δ is set to 3σ — a position
		// within one noise standard deviation of the pattern then
		// confirms with high per-position probability.
		enhanced := &predict.PatternPredictor{
			Base:     mk(),
			Patterns: patterns,
			Grid:     g,
			Delta:    3 * sigma,
			Sigma:    sigma,
		}
		enhEv, err := trajpattern.EvaluatePredictor(enhanced, testPaths, u)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-5s %-14d  %-14d  %.0f%%\n",
			base.Name(), baseEv.MisPredictions, enhEv.MisPredictions,
			trajpattern.Reduction(baseEv, enhEv)*100)
	}
}

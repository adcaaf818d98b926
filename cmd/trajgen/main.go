// Command trajgen generates the synthetic datasets of the TrajPattern
// evaluation as JSON-lines trajectory files consumable by trajmine.
//
// Usage:
//
//	trajgen -kind zebra -out zebra.jsonl -n 100 -len 100 -seed 1
//	trajgen -kind tpr -out tpr.jsonl -n 100 -len 100
//	trajgen -kind posture -out posture.jsonl -n 50 -len 120
//	trajgen -kind bus -out bus.jsonl -scale 1
//
// The zebra, tpr and posture kinds emit imprecise datasets directly
// (observation noise + σ = U/C); the bus kind runs the full §3.1 reporting
// pipeline (dead reckoning, message loss, snapshot synchronization) and
// emits the velocity trajectories the §6.1 experiments mine.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"

	"trajpattern/internal/cli"
	"trajpattern/internal/obs/slogx"
	"trajpattern/internal/traj"
)

func main() {
	var (
		kind  = flag.String("kind", "zebra", "dataset kind: zebra, tpr, posture or bus")
		out   = flag.String("out", "", "output file (required)")
		n     = flag.Int("n", 100, "number of trajectories (zebra/tpr/posture)")
		ln    = flag.Int("len", 100, "average trajectory length (zebra/tpr/posture)")
		u     = flag.Float64("u", 0.02, "tolerable uncertainty distance U")
		c     = flag.Float64("c", 2, "confidence constant c (σ = U/c)")
		scale = flag.Float64("scale", 1, "bus dataset scale (1 = 500 traces)")
		seed  = flag.Uint64("seed", 1, "random seed")

		logFlags cli.LogFlags
	)
	logFlags.Register(flag.CommandLine)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "trajgen: -out is required")
		flag.Usage()
		os.Exit(2)
	}
	logger, err := logFlags.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trajgen: %v\n", err)
		os.Exit(2)
	}
	// A SIGINT/SIGTERM before the (atomic) write leaves any existing output
	// file untouched; a partial dataset is never written.
	ctx, stopSignals := cli.SignalContext(context.Background(), logger, "trajgen")
	defer stopSignals()
	ds, err := cli.Generate(cli.GenOptions{
		Kind: *kind, N: *n, Len: *ln, U: *u, C: *c, Scale: *scale, Seed: *seed,
	})
	if err != nil {
		logger.Error("generate failed", slogx.Err(err))
		os.Exit(cli.ExitCode(err))
	}
	if ctx.Err() != nil {
		logger.Error("interrupted — output not written",
			slog.String("cause", fmt.Sprint(context.Cause(ctx))), slog.String("path", *out))
		os.Exit(1)
	}
	if err := traj.WriteFile(*out, ds); err != nil {
		logger.Error("write failed", slogx.Err(err))
		os.Exit(1)
	}
	fmt.Printf("wrote %d trajectories (avg length %.1f, mean σ %.4g) to %s\n",
		ds.NumTrajectories(), ds.AvgLength(), ds.MeanSigma(), *out)
}

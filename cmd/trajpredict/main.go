// Command trajpredict runs the Figure 3 location-prediction experiment in
// isolation: it simulates the bus fleet, mines top-k NM and match velocity
// patterns on the training traces, and reports the mis-prediction
// reduction each pattern set achieves for the LM, LKF and RMF prediction
// modules on the held-out traces.
//
// Usage:
//
//	trajpredict                 # paper-comparable scale
//	trajpredict -scale 0.3 -k 30
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"trajpattern/internal/cli"
	"trajpattern/internal/exp"
	"trajpattern/internal/obs/slogx"
)

func main() {
	var (
		scale  = flag.Float64("scale", 1, "bus dataset scale in (0,1]")
		k      = flag.Int("k", 50, "patterns to mine")
		minLen = flag.Int("minlen", 4, "minimum pattern length (the paper uses 4)")
		seed   = flag.Uint64("seed", 1, "random seed")

		logFlags cli.LogFlags
	)
	logFlags.Register(flag.CommandLine)
	flag.Parse()
	logger, err := logFlags.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trajpredict: %v\n", err)
		os.Exit(2)
	}

	// First SIGINT/SIGTERM cancels the experiment; a second aborts.
	ctx, stopSignals := cli.SignalContext(context.Background(), logger, "trajpredict")
	defer stopSignals()

	res, err := exp.RunE2(ctx, exp.E2Options{
		Bus:    exp.BusOptions{Scale: *scale, Seed: *seed},
		K:      *k,
		MinLen: *minLen,
	})
	if err != nil {
		logger.Error("fatal", slogx.Err(err))
		os.Exit(1)
	}
	fmt.Println(res.Table.String())
}

// Command trajmine mines the top-k trajectory patterns by normalized match
// from a JSON-lines trajectory file (see trajgen) and presents them as
// pattern groups.
//
// Usage:
//
//	trajmine -in zebra.jsonl -k 20 -gridn 12
//	trajmine -in bus.jsonl -k 50 -minlen 4 -measure match
//	trajmine -in zebra.jsonl -viz
//	trajmine -in zebra.jsonl -metrics -cpuprofile cpu.pprof
//	trajmine -in zebra.jsonl -trace run.trace -progress
//	trajmine -in zebra.jsonl -metricsout metrics.json
//	trajmine -in zebra.jsonl -checkpoint run.ckpt -maxwall 30s
//	trajmine -in zebra.jsonl -checkpoint run.ckpt -resume
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"

	"trajpattern/internal/cli"
	"trajpattern/internal/obs/slogx"
	"trajpattern/internal/trace"
	"trajpattern/internal/traj"
)

func main() {
	var (
		in      = flag.String("in", "", "input trajectory file (required)")
		k       = flag.Int("k", 10, "number of patterns to mine")
		gridN   = flag.Int("gridn", 12, "grid side (G = gridn²)")
		minLen  = flag.Int("minlen", 1, "minimum pattern length, >= 1 (§5 variant above 1)")
		maxLen  = flag.Int("maxlen", 8, "maximum pattern length, >= -minlen")
		deltaMu = flag.Float64("delta", 1, "indifferent threshold δ as a multiple of the cell size")
		measure = flag.String("measure", "nm", "measure: nm (TrajPattern), pb (projection baseline) or match ([14])")
		groups  = flag.Bool("groups", true, "cluster the result into pattern groups")
		viz     = flag.Bool("viz", false, "render ASCII heatmap of the data and the best pattern")
		save    = flag.String("savepats", "", "persist scored patterns to this JSON file")
		metrics = flag.Bool("metrics", false, "collect and print miner/scorer metrics")
		metOut  = flag.String("metricsout", "", "write the provenance-stamped metrics report (JSON) to this file")
		trcPath = flag.String("trace", "", "write a span/event journal (JSONL) here and a Chrome trace to <file>.json")
		prog    = flag.Bool("progress", false, "print one line per miner iteration to stderr (nm only)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file")
		maxIter = flag.Int("maxiters", 0, "bound the miner's grow iterations (0 = default; nm only)")
		maxWall = flag.Duration("maxwall", 0, "wall-clock budget; report best-so-far when it elapses (nm only)")
		ckpt    = flag.String("checkpoint", "", "write crash-safe miner checkpoints to this file (nm only)")
		resume  = flag.Bool("resume", false, "restore miner state from -checkpoint before mining")

		logFlags cli.LogFlags
	)
	logFlags.Register(flag.CommandLine)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "trajmine: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	logger, err := logFlags.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trajmine: %v\n", err)
		os.Exit(2)
	}
	ds, err := traj.ReadFile(*in)
	if err != nil {
		logger.Error("read dataset failed", slogx.Err(err))
		os.Exit(1)
	}
	stopProfiles, err := cli.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		logger.Error("start profiles failed", slogx.Err(err))
		os.Exit(1)
	}

	var tracer *trace.Tracer
	if *trcPath != "" {
		tracer = trace.New()
	}
	opts := cli.MineOptions{
		K:              *k,
		GridN:          *gridN,
		MinLen:         *minLen,
		MaxLen:         *maxLen,
		DeltaMul:       *deltaMu,
		Measure:        *measure,
		Groups:         *groups,
		Viz:            *viz,
		SavePath:       *save,
		Metrics:        *metrics,
		MetricsOut:     *metOut,
		Tracer:         tracer,
		MaxIters:       *maxIter,
		MaxWallTime:    *maxWall,
		CheckpointPath: *ckpt,
		Resume:         *resume,
	}
	// OnProgress stays nil without -progress, so cli.Mine can refuse the
	// flag for the measures that report no progress.
	if *prog {
		opts.OnProgress = cli.ProgressLine(os.Stderr)
	}

	// First SIGINT/SIGTERM drains the run gracefully (best-so-far report,
	// partial saves, trace journal); a second aborts.
	ctx, stopSignals := cli.SignalContext(context.Background(), logger, "trajmine")
	defer stopSignals()

	_, err = cli.Mine(ctx, os.Stdout, ds, opts)
	stopSignals()
	if terr := tracer.Save(*trcPath); terr != nil {
		logger.Error("save trace failed", slogx.Err(terr))
		if err == nil {
			err = terr
		}
	} else if tracer != nil {
		logger.Info("trace written", slog.Int("records", tracer.Len()), slog.String("path", *trcPath))
	}
	if perr := stopProfiles(); perr != nil {
		logger.Error("stop profiles failed", slogx.Err(perr))
		if err == nil {
			err = perr
		}
	}
	if err != nil {
		logger.Error("fatal", slogx.Err(err))
		os.Exit(cli.ExitCode(err))
	}
}

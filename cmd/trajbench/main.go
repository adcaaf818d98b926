// Command trajbench regenerates the tables and figures of the TrajPattern
// evaluation (Section 6) plus the ablations, printing markdown tables. It
// can also emit a machine-readable bench.json (wall time, allocations and
// the deterministic miner/scorer work counters) and gate against a
// committed baseline, which is how CI detects benchmark regressions.
//
// Usage:
//
//	trajbench                             # run every experiment at the default scale
//	trajbench -exp e3,e6                  # run selected experiments
//	trajbench -scale 0.3                  # shrink the workloads
//	trajbench -exp e3 -metrics            # print the obs snapshot per experiment
//	trajbench -exp e3,e7 -scale 0.3 -json bench.json
//	trajbench -exp e3,e7 -scale 0.3 -check results/bench_baseline.json -tol 15
//	trajbench -exp e3 -cpuprofile cpu.pprof -memprofile mem.pprof
//	trajbench -exp e3 -trace run.trace -progress
//
// Experiments: e1 (§6.1 pattern lengths), e2 (Figure 3), e3–e6
// (Figure 4a–d), e7 (Figure 4e), e8 (§6.1 on posture data), e9 (pattern
// classifier), a1, a2 and a4–a6 (ablations). E7 mines a fixed dataset of
// 40 zebras of length 30, so -scale does not shrink it.
//
// The -check gate compares the deterministic work counters (NM
// evaluations, candidates, prunes — identical across machines for a fixed
// scale and seed) within ±tol percent. The command exits non-zero when any
// experiment fails or the check finds a regression.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"trajpattern/internal/cli"
	"trajpattern/internal/core"
	"trajpattern/internal/obs/slogx"
	"trajpattern/internal/trace"
)

func main() {
	var (
		which      = flag.String("exp", "all", "comma-separated experiment ids (e1..e9, a1..a6) or 'all'")
		scale      = flag.Float64("scale", 1, "workload scale in (0,1]")
		seed       = flag.Uint64("seed", 1, "random seed")
		metrics    = flag.Bool("metrics", false, "print each experiment's obs metrics snapshot")
		jsonPath   = flag.String("json", "", "write machine-readable results (bench.json) to this file")
		checkPath  = flag.String("check", "", "baseline bench.json to compare against; exit non-zero on regression")
		tol        = flag.Float64("tol", cli.DefaultBenchTolerance, "allowed drift percentage for -check (0 = exact)")
		trcPath    = flag.String("trace", "", "write a span/event journal (JSONL) here and a Chrome trace to <file>.json")
		prog       = flag.Bool("progress", false, "print one line per miner iteration of the sweep experiments to stderr")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file")

		logFlags cli.LogFlags
	)
	logFlags.Register(flag.CommandLine)
	flag.Parse()
	logger, err := logFlags.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trajbench: %v\n", err)
		os.Exit(2)
	}

	stopProfiles, err := cli.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		logger.Error("start profiles failed", slogx.Err(err))
		os.Exit(1)
	}

	var tracer *trace.Tracer
	if *trcPath != "" {
		tracer = trace.New()
	}
	var progress func(core.Progress)
	if *prog {
		progress = cli.ProgressLine(os.Stderr)
	}

	// First SIGINT/SIGTERM stops between experiments and still flushes
	// completed results and the trace journal; a second aborts.
	ctx, stopSignals := cli.SignalContext(context.Background(), logger, "trajbench")
	defer stopSignals()

	_, err = cli.RunBench(ctx, os.Stdout, cli.BenchOptions{
		Experiments: strings.Split(*which, ","),
		Scale:       *scale,
		Seed:        *seed,
		ShowMetrics: *metrics,
		JSONPath:    *jsonPath,
		CheckPath:   *checkPath,
		TolPct:      *tol,
		Tracer:      tracer,
		Progress:    progress,
	})
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

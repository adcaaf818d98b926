// Command trajserve serves the TrajPattern miner, scorer and predictor as
// a hardened long-running HTTP JSON service: weighted admission control
// with bounded queueing and 429 load shedding, per-route deadlines that
// propagate into the miner, panic isolation, and a two-stage SIGTERM
// drain (finish or gracefully interrupt in-flight work, flush trace and
// metrics, exit 0).
//
// Usage:
//
//	trajserve -in zebra.jsonl -addr :8080
//	trajserve -in bus.jsonl -patterns mined.json -capacity 16 -queue 32
//	trajserve -in zebra.jsonl -trace run.trace -metricsout metrics.json
//	trajserve -in zebra.jsonl -log-format json -log-level info
//	trajserve -in zebra.jsonl -ingest-wal /var/lib/trajserve/wal -ingest-window 256
//
// Routes: POST /v1/score, /v1/mine, /v1/predict, /v1/ingest (with
// -ingest-wal); GET /healthz, /readyz, /metrics (Prometheus text
// exposition; ?format=json for the stamped report), /v1/ingest/status.
//
// With -ingest-wal, POST /v1/ingest accepts location reports durably: a
// 200 means the report is fsynced into a crash-replayable write-ahead
// log. A restarted process replays the log and rebuilds its sliding
// windows before /readyz flips ready, and a background loop re-mines the
// windowed data continuously — /v1/mine and /v1/predict serve the latest
// complete generation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"trajpattern/internal/cli"
	"trajpattern/internal/obs/slogx"
	"trajpattern/internal/serve"
)

func main() {
	var (
		in       = flag.String("in", "", "input trajectory file (required)")
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address")
		patterns = flag.String("patterns", "", "preload mined patterns (JSON) so /v1/predict works immediately")
		gridN    = flag.Int("gridn", 12, "grid side (G = gridn²)")
		deltaMul = flag.Float64("delta", 1, "indifferent threshold δ as a multiple of the cell size")
		capacity = flag.Int64("capacity", serve.DefaultCapacity, "admission capacity in weight units (score and predict cost 1, mine 4, clamped to -capacity); negative = unlimited, 0 is refused")
		queue    = flag.Int("queue", serve.DefaultMaxQueue, "admission wait-queue bound; beyond it requests are shed with 429; negative = unbounded, 0 is refused")
		deadline = flag.Duration("deadline", serve.DefaultDeadline, "per-request deadline (queue wait included); also bounds each /v1/mine run and re-mine generation; negative = none, 0 is refused")
		ingWAL   = flag.String("ingest-wal", "", "enable durable streaming ingest (POST /v1/ingest) with the write-ahead log in this directory")
		ingWin   = flag.Int("ingest-window", 0, "per-object sliding-window record cap for ingest (0 = default)")
		grace    = flag.Duration("grace", serve.DefaultGrace, "drain grace for in-flight requests on SIGTERM (must be > 0)")
		trcPath  = flag.String("trace", "", "record request/miner spans and write the journal here at exit")
		metOut   = flag.String("metricsout", "", "write the provenance-stamped metrics report (JSON) here at exit")
		logFlags cli.LogFlags
	)
	logFlags.Register(flag.CommandLine)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "trajserve: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := cli.CheckServeFlags(*gridN, *deltaMul, *ingWin, *capacity, *queue, *deadline, *grace); err != nil {
		fmt.Fprintf(os.Stderr, "trajserve: %v\n", err)
		os.Exit(2)
	}
	logger, err := logFlags.Logger(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trajserve: %v\n", err)
		os.Exit(2)
	}

	ctx, stop := cli.SignalContext(context.Background(), logger, "trajserve")
	defer stop()

	err = serve.Run(ctx, serve.Options{
		Addr:         *addr,
		DataPath:     *in,
		PatternsPath: *patterns,
		Server: serve.Config{
			GridN:        *gridN,
			DeltaMul:     *deltaMul,
			Capacity:     *capacity,
			MaxQueue:     *queue,
			Deadline:     *deadline,
			IngestWALDir: *ingWAL,
			IngestWindow: *ingWin,
			Logger:       logger,
		},
		Grace:      *grace,
		TracePath:  *trcPath,
		MetricsOut: *metOut,
	}, nil)
	if err != nil {
		logger.Error("fatal", slogx.Err(err))
		os.Exit(1)
	}
}

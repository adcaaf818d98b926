package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"trajpattern/internal/cli"
	"trajpattern/internal/core"
	"trajpattern/internal/obs"
	"trajpattern/internal/obs/slogx"
	"trajpattern/internal/trace"
	"trajpattern/internal/traj"
)

// DefaultGrace is how long the drain waits for in-flight requests before
// cancelling them.
const DefaultGrace = 10 * time.Second

// Options configures one Run of the trajserve process.
type Options struct {
	// Addr is the listen address ("127.0.0.1:8080"; ":0" picks a port).
	Addr string
	// DataPath is the trajectory file to serve (required unless Dataset
	// is set directly).
	DataPath string
	// Dataset, when non-nil, is used instead of reading DataPath (tests).
	Dataset traj.Dataset
	// PatternsPath, when non-empty, preloads mined patterns so
	// /v1/predict works before the first /v1/mine.
	PatternsPath string

	// Server carries the service tuning (grid, admission, deadlines).
	// Dataset/Metrics/Tracer/Log fields inside it are overwritten here.
	Server Config

	// Grace bounds stage two of the drain: after the listener closes,
	// in-flight requests get this long to finish before their contexts
	// are cancelled and connections closed. Zero means DefaultGrace.
	Grace time.Duration

	// DebugAddr, when non-empty, serves pprof//metrics//trace/status.
	DebugAddr string
	// TracePath, when non-empty, enables request tracing and writes the
	// journal there at exit.
	TracePath string
	// MetricsOut, when non-empty, writes the provenance-stamped metrics
	// report there at exit.
	MetricsOut string

	// Log receives operator notices. Nil means discard.
	Log io.Writer
	// Logger, when non-nil, replaces the plain Log status lines with
	// structured records and turns on structured request logging (the
	// -log-format=text/json modes; nil is -log-format=plain).
	Logger *slogx.Logger
}

// Run builds the server, listens, and serves until ctx is cancelled,
// then performs the two-stage drain:
//
//  1. Stop admitting: the admission controller flips to draining (readyz
//     → 503, queued waiters shed) and the listener closes, so no new
//     request enters.
//  2. Finish or interrupt: in-flight requests get Grace to complete —
//     mining requests self-interrupt via MaxWallTime and return degraded
//     partials — after which their contexts are cancelled and remaining
//     connections closed.
//
// Observability state (trace journal, metrics report) is flushed after
// the drain, so a SIGTERM'd process still leaves its run records behind.
// A drained exit returns nil; ready (optional) receives the bound
// address once the listener accepts work.
func Run(ctx context.Context, o Options, ready func(addr string)) error {
	logw := o.Log
	if logw == nil {
		logw = io.Discard
	}
	// notice routes one lifecycle event: a structured record when a
	// Logger is configured, else the legacy plain status line.
	notice := func(plain string, msg string, attrs ...slog.Attr) {
		if o.Logger != nil {
			o.Logger.Info(msg, attrs...)
			return
		}
		fmt.Fprintln(logw, plain)
	}

	ds := o.Dataset
	if ds == nil {
		if o.DataPath == "" {
			return errors.New("serve: no dataset: set DataPath or Dataset")
		}
		var err error
		ds, err = traj.ReadFile(o.DataPath)
		if err != nil {
			return err
		}
	}

	cfg := o.Server
	cfg.Dataset = ds
	cfg.Log = logw
	cfg.Logger = o.Logger
	if cfg.Metrics == nil {
		cfg.Metrics = obs.New()
	}
	if o.TracePath != "" && cfg.Tracer == nil {
		cfg.Tracer = trace.New()
	}
	srv, err := NewServer(cfg)
	if err != nil {
		return err
	}

	if o.PatternsPath != "" {
		pats, err := core.LoadPatterns(o.PatternsPath, nil)
		if err != nil {
			return fmt.Errorf("serve: preload patterns: %w", err)
		}
		srv.SetPatterns(pats)
		notice(fmt.Sprintf("trajserve: preloaded %d patterns from %s", len(pats), o.PatternsPath),
			"patterns preloaded", slog.Int("patterns", len(pats)), slog.String("path", o.PatternsPath))
	}

	if o.DebugAddr != "" {
		holder := &cli.MetricsHolder{}
		holder.Set(cfg.Metrics)
		url, stopDebug, err := cli.StartDebugServer(o.DebugAddr, holder, cfg.Tracer)
		if err != nil {
			return err
		}
		defer stopDebug() //nolint:errcheck // best-effort teardown
		notice(fmt.Sprintf("trajserve: debug server at %s", url),
			"debug server up", slog.String("url", url))
	}

	ln, err := net.Listen("tcp", o.Addr)
	if err != nil {
		return fmt.Errorf("serve: listen: %w", err)
	}

	// Request contexts descend from reqCtx, NOT from the signal ctx: the
	// first SIGTERM must stop the listener while letting in-flight work
	// finish, so cancellation of in-flight requests is a separate, later
	// decision (stage two of the drain).
	reqCtx, cancelReqs := context.WithCancelCause(context.Background())
	defer cancelReqs(nil)
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return reqCtx },
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	notice(fmt.Sprintf("trajserve: listening on %s (%d trajectories, grid %dx%d)",
		ln.Addr(), len(ds), srv.grid.NX(), srv.grid.NY()),
		"listening", slog.String("addr", ln.Addr().String()),
		slog.Int("trajectories", len(ds)),
		slog.Int("grid_nx", srv.grid.NX()), slog.Int("grid_ny", srv.grid.NY()))

	// Streaming ingest starts after the listener is up but before the
	// ready callback: a restarted process accepts connections right away
	// (probes see 503 "replaying", not connection-refused) and flips
	// /readyz only once the WAL is replayed and the windows rebuilt.
	if cfg.IngestWALDir != "" {
		if err := srv.StartIngest(); err != nil {
			ln.Close() //nolint:errcheck // listener teardown on startup failure
			<-serveErr
			return err
		}
		st := srv.ingestPipe.Stats()
		notice(fmt.Sprintf("trajserve: ingest ready (replayed %d records, %d objects, wal %s)",
			st.Replayed, st.Objects, cfg.IngestWALDir),
			"ingest ready", slog.Int("replayed", st.Replayed),
			slog.Int("objects", st.Objects), slog.String("wal", cfg.IngestWALDir))
	}
	if ready != nil {
		ready(ln.Addr().String())
	}

	select {
	case err := <-serveErr:
		// The listener died on its own — a bind/accept fault, not a drain.
		if serr := srv.StopIngest(); serr != nil {
			notice(fmt.Sprintf("trajserve: ingest close: %v", serr), "ingest close failed", slogx.Err(serr))
		}
		return fmt.Errorf("serve: listener failed: %w", err)
	case <-ctx.Done():
	}

	// Stage one: stop admitting. Queued waiters fail with 503 now and
	// readyz flips, then the listener closes.
	notice("trajserve: draining — refusing new work, finishing in-flight requests",
		"draining", slog.String("stage", "stop-admitting"))
	srv.Admission().StartDrain()

	grace := o.Grace
	if grace <= 0 {
		grace = DefaultGrace
	}
	graceCtx, cancelGrace := context.WithTimeout(context.Background(), grace)
	defer cancelGrace()
	if err := httpSrv.Shutdown(graceCtx); err != nil {
		// Stage two, forced: grace expired with requests still running.
		// Cancel their contexts — the miner returns degraded partials at
		// the next iteration boundary — and close what remains.
		notice(fmt.Sprintf("trajserve: grace %v expired — interrupting in-flight requests", grace),
			"drain grace expired", slog.Duration("grace", grace))
		cancelReqs(fmt.Errorf("serve: drain grace %v expired", grace))
		if cerr := httpSrv.Close(); cerr != nil {
			notice(fmt.Sprintf("trajserve: close: %v", cerr), "close failed", slogx.Err(cerr))
		}
	}
	<-serveErr // Serve has returned http.ErrServerClosed by now

	// Ingest stops after the HTTP drain: every in-flight /v1/ingest has
	// its acknowledgement by now, the final group commit lands, and the
	// re-mining loop exits before the process does.
	if err := srv.StopIngest(); err != nil {
		notice(fmt.Sprintf("trajserve: ingest close: %v", err), "ingest close failed", slogx.Err(err))
	}

	// Flush observability state so an interrupted run still leaves its
	// records behind (mirrors the CLIs' behaviour on SIGINT).
	if o.TracePath != "" && cfg.Tracer != nil {
		if err := cli.SaveTrace(o.TracePath, cfg.Tracer); err != nil {
			notice(fmt.Sprintf("trajserve: save trace: %v", err), "save trace failed", slogx.Err(err))
		}
	}
	if o.MetricsOut != "" {
		if err := cli.WriteMetricsReport(o.MetricsOut, cfg.Metrics.Snapshot()); err != nil {
			notice(fmt.Sprintf("trajserve: write metrics: %v", err), "write metrics failed", slogx.Err(err))
		}
	}
	notice("trajserve: drained", "drained")
	return nil
}

package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"time"

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
	// DataPath is the trajectory file to serve (required unless
	// Server.Dataset is set).
	DataPath string
	// PatternsPath, when non-empty, preloads mined patterns so
	// /v1/predict works before the first /v1/mine.
	PatternsPath string

	// Server carries the service tuning (grid, admission, deadline) and
	// the operator log, which Run also writes its lifecycle records to.
	// A nil Dataset is read from DataPath; a nil Metrics registry is
	// created.
	Server Config

	// Grace bounds stage two of the drain: after the listener closes,
	// in-flight requests get this long to finish before their contexts
	// are cancelled and connections closed. Zero means DefaultGrace.
	Grace time.Duration

	// TracePath, when non-empty, enables request tracing and writes the
	// journal there at exit.
	TracePath string
	// MetricsOut, when non-empty, writes the provenance-stamped metrics
	// report there at exit.
	MetricsOut string
}

// Run builds the server, listens, and serves until ctx is cancelled,
// then performs the two-stage drain:
//
//  1. Stop admitting: the admission controller flips to draining (readyz
//     → 503, queued waiters shed) and the listener closes, so no new
//     request enters.
//  2. Finish or interrupt: in-flight requests get Grace to complete —
//     mining requests stop at their Deadline and return degraded
//     partials — after which their contexts are cancelled and remaining
//     connections closed.
//
// Observability state (trace journal, metrics report) is flushed after
// the drain, so a SIGTERM'd process still leaves its run records behind.
// A drained exit returns nil; ready (optional) receives the bound
// address once the listener accepts work.
func Run(ctx context.Context, o Options, ready func(addr string)) error {
	cfg := o.Server
	logger := cfg.Logger
	if cfg.Dataset == nil {
		if o.DataPath == "" {
			return errors.New("serve: no dataset: set DataPath or Server.Dataset")
		}
		var err error
		cfg.Dataset, err = traj.ReadFile(o.DataPath)
		if err != nil {
			return err
		}
	}
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
		// Every cell must lie on the server's grid: /v1/predict maps
		// pattern cells to centers, which panics on an off-grid index.
		pats, err := core.LoadPatterns(o.PatternsPath, func(p core.Pattern) error { return p.Validate(srv.grid) })
		if err != nil {
			return fmt.Errorf("serve: preload patterns: %w", err)
		}
		srv.SetPatterns(pats)
		logger.Info("patterns preloaded", slog.Int("patterns", len(pats)), slog.String("path", o.PatternsPath))
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
		ErrorLog:          logger.StdLogger(slog.LevelError),
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logger.Info("listening", slog.String("addr", ln.Addr().String()),
		slog.Int("trajectories", len(cfg.Dataset)),
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
		logger.Info("ingest ready", slog.Int("replayed", st.Replayed),
			slog.Int("objects", st.Objects), slog.String("wal", cfg.IngestWALDir))
	}
	if ready != nil {
		ready(ln.Addr().String())
	}

	select {
	case err := <-serveErr:
		// The listener died on its own — a bind/accept fault, not a drain.
		if serr := srv.StopIngest(); serr != nil {
			logger.Info("ingest close failed", slogx.Err(serr))
		}
		return fmt.Errorf("serve: listener failed: %w", err)
	case <-ctx.Done():
	}

	// Stage one: stop admitting. Queued waiters fail with 503 now and
	// readyz flips, then the listener closes.
	logger.Info("draining", slog.String("stage", "stop-admitting"))
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
		logger.Info("drain grace expired", slog.Duration("grace", grace))
		cancelReqs(fmt.Errorf("serve: drain grace %v expired", grace))
		if cerr := httpSrv.Close(); cerr != nil {
			logger.Info("close failed", slogx.Err(cerr))
		}
	}
	<-serveErr // Serve has returned http.ErrServerClosed by now

	// Ingest stops after the HTTP drain: every in-flight /v1/ingest has
	// its acknowledgement by now, the final group commit lands, and the
	// re-mining loop exits before the process does.
	if err := srv.StopIngest(); err != nil {
		logger.Info("ingest close failed", slogx.Err(err))
	}

	// Flush observability state so an interrupted run still leaves its
	// records behind (mirrors the CLIs' behaviour on SIGINT).
	if err := cfg.Tracer.Save(o.TracePath); err != nil {
		logger.Info("save trace failed", slogx.Err(err))
	}
	if o.MetricsOut != "" {
		if err := obs.NewReport(cfg.Metrics.Snapshot()).WriteFile(o.MetricsOut); err != nil {
			logger.Info("write metrics failed", slogx.Err(err))
		}
	}
	logger.Info("drained")
	return nil
}

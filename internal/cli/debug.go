package cli

import (
	"encoding/json"
	"expvar"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"trajpattern/internal/obs"
	"trajpattern/internal/obs/slogx"
	"trajpattern/internal/trace"
)

// MetricsHolder publishes the obs registry of the currently running stage
// so the debug server can snapshot in-flight runs even when the producer
// swaps registries between stages (trajbench uses one registry per
// experiment). All methods are safe on a nil receiver and for concurrent
// use.
type MetricsHolder struct {
	p atomic.Pointer[obs.Registry]
}

// Set publishes r as the current registry (nil clears it).
func (h *MetricsHolder) Set(r *obs.Registry) {
	if h == nil {
		return
	}
	h.p.Store(r)
}

// Registry returns the currently published registry (possibly nil).
func (h *MetricsHolder) Registry() *obs.Registry {
	if h == nil {
		return nil
	}
	return h.p.Load()
}

// Snapshot snapshots the currently published registry; an empty snapshot
// when none is published.
func (h *MetricsHolder) Snapshot() obs.Snapshot { return h.Registry().Snapshot() }

// StartDebugServer serves runtime introspection for an in-flight run on
// addr (e.g. "localhost:6060", or ":0" to pick a free port):
//
//	/debug/pprof/   the standard Go profiler endpoints
//	/debug/vars     expvar (cmdline, memstats)
//	/metrics        the live obs snapshot, text by default,
//	                ?format=json for the provenance-stamped Report,
//	                ?format=prom for Prometheus text exposition
//	/trace/status   live tracer summary (events buffered, open spans,
//	                per-name counts) as JSON
//
// It returns the server's base URL (useful with ":0") and a stop function.
// The caller owns the lifetime: the server does not outlive the process,
// it exists to observe long runs while they happen. The server's own
// errors go to logger (nil discards them).
func StartDebugServer(addr string, metrics *MetricsHolder, tr *trace.Tracer, logger *slogx.Logger) (baseURL string, stop func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("cli: debug server: %w", err)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Every branch sets an explicit Content-Type: scrapers and curl
		// must never depend on net/http's sniffing, which would label the
		// Prometheus exposition text/plain without its version parameter.
		snap := metrics.Snapshot()
		switch r.URL.Query().Get("format") {
		case "json":
			writeJSON(w, obs.NewReport(snap))
		case "prom":
			w.Header().Set("Content-Type", obs.PromContentType)
			_ = obs.WriteProm(w, obs.NewReport(snap))
		default:
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if text := snap.String(); text != "" {
				fmt.Fprint(w, text)
			} else {
				fmt.Fprintln(w, "(no metrics registry attached, or nothing recorded yet)")
			}
		}
	})
	mux.HandleFunc("/trace/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, tr.Status())
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "trajpattern debug server")
		fmt.Fprintln(w, "  /metrics          live obs snapshot (?format=json for stamped JSON, ?format=prom for Prometheus exposition)")
		fmt.Fprintln(w, "  /trace/status     live tracer summary")
		fmt.Fprintln(w, "  /debug/pprof/     Go profiler endpoints")
		fmt.Fprintln(w, "  /debug/vars       expvar")
	})

	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		ErrorLog:          logger.StdLogger(slog.LevelError),
	}
	go srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return "http://" + ln.Addr().String(), srv.Close, nil
}

// writeJSON writes v as indented JSON with the right content type.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// SaveTrace writes a tracer's records next to each other in both formats:
// the JSONL journal at path and the Chrome trace-event JSON (Perfetto /
// chrome://tracing) at path + ".json". No-op on a nil tracer.
func SaveTrace(path string, tr *trace.Tracer) error {
	if tr == nil || path == "" {
		return nil
	}
	if err := tr.JournalFile(path); err != nil {
		return err
	}
	return tr.WriteChromeTraceFile(path + ".json")
}

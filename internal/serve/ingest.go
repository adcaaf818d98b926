package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"

	"trajpattern/internal/core"
	"trajpattern/internal/geom"
	"trajpattern/internal/ingest"
	"trajpattern/internal/obs/slogx"
	"trajpattern/internal/report"
	"trajpattern/internal/traj"
)

// IngestRequest is one location report submitted to POST /v1/ingest. A
// 200 response is a durability receipt: the report is in the WAL, fsynced,
// and will survive a crash of the process that acknowledged it.
type IngestRequest struct {
	Obj  string  `json:"obj"`
	Time float64 `json:"time"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
}

// IngestResponse acknowledges a durable report.
type IngestResponse struct {
	Durable bool `json:"durable"`
}

// ingestGeneration is one complete re-mining pass over the ingest
// windows. The serving state only ever moves from generation g to g+1
// whole — /v1/mine and /v1/predict never see a half-updated answer.
type ingestGeneration struct {
	Generation      int
	Patterns        []core.ScoredPattern
	Degraded        bool
	InterruptReason string
	Iterations      int
	Candidates      int
	Objects         int
	Records         int
}

// StartIngest opens the ingest pipeline — replaying the WAL and
// rebuilding the sliding windows before anything else can observe the
// server as ready — and starts the incremental re-mining loop. Call
// after NewServer on a server configured with IngestWALDir; Run does
// this between binding the listener and announcing readiness, so a
// restarted process accepts connections immediately but answers
// /readyz 503 "replaying" until its history is rebuilt.
func (s *Server) StartIngest() error {
	if s == nil {
		return errors.New("serve: StartIngest on a nil server")
	}
	if s.cfg.IngestWALDir == "" {
		return errors.New("serve: StartIngest without IngestWALDir")
	}
	if s.ingestPipe != nil {
		return errors.New("serve: ingest already started")
	}
	pipe, err := ingest.Open(ingest.Config{
		WAL: ingest.WALConfig{
			Dir:     s.cfg.IngestWALDir,
			Metrics: s.cfg.Metrics,
			Log:     s.cfg.Logger,
		},
		Limits:  ingest.WindowLimits{MaxRecords: s.cfg.IngestWindow},
		Metrics: s.cfg.Metrics,
		OnApply: func(int) {
			// Nudge, never block: the loop coalesces bursts into one
			// re-mine, and a full nudge channel means one is already due.
			select {
			case s.remineC <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		return fmt.Errorf("serve: open ingest pipeline: %w", err)
	}
	s.ingestPipe = pipe
	st := pipe.Stats()
	if st.TornSkipped > 0 {
		s.cfg.Logger.Warn("ingest replay skipped torn tail",
			slogx.Route(routeIngest))
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.remineStop = cancel
	// The incremental re-mining loop: each nudge from the commit
	// goroutine (coalesced) triggers one bounded mine over the current
	// windows. The service keeps answering from the previous generation
	// the whole time — mine continuously, serve best-so-far.
	go func() {
		defer close(s.remineDone)
		for {
			select {
			case <-ctx.Done():
				return
			case <-s.remineC:
			}
			s.remineBusy.Store(true)
			if err := s.remineOnce(ctx); err != nil && ctx.Err() == nil {
				s.cfg.Logger.Error("re-mine failed", slogx.Err(err))
			}
			s.remineBusy.Store(false)
		}
	}()
	// Replayed history mines before the server reports ready-to-serve
	// generations; an empty WAL leaves the nudge for the first ingest.
	if st.Records > 0 {
		select {
		case s.remineC <- struct{}{}:
		default:
		}
	}
	s.ingestReady.Store(true)
	return nil
}

// StopIngest stops the re-mining loop and closes the pipeline (final
// group commit included). Reports still queued are refused with typed
// errors; in-flight handlers get their acknowledgements first.
func (s *Server) StopIngest() error {
	if s == nil {
		return nil
	}
	if s.ingestPipe == nil {
		return nil
	}
	s.ingestReady.Store(false)
	s.remineStop()
	<-s.remineDone
	return s.ingestPipe.Close()
}

// ingestEnabled reports whether this server was configured for ingest.
func (s *Server) ingestEnabled() bool { return s.cfg.IngestWALDir != "" }

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !s.ingestReady.Load() || s.ingestPipe == nil {
		retryAfterHeader(w)
		s.writeError(w, http.StatusServiceUnavailable, "replaying",
			"ingest is replaying its WAL; retry shortly")
		return
	}
	var req IngestRequest
	if err := readJSON(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	err := s.ingestPipe.Ingest(r.Context(), req.Obj, req.Time, req.X, req.Y)
	if err != nil {
		s.writeIngestError(w, r, err)
		return
	}
	writeJSON(w, IngestResponse{Durable: true})
}

// writeIngestError maps the pipeline's typed refusals onto the wire:
// validation and ordering faults are the client's (400), overload is a
// retryable 429 with backoff, an unavailable pipeline (failed WAL,
// shutdown) is 503, and the caller's own expiry is 503 with the
// documented ambiguity — the report may still commit.
func (s *Server) writeIngestError(w http.ResponseWriter, r *http.Request, err error) {
	var ve *report.ValidationError
	var oe *report.OrderError
	var ove *ingest.OverloadError
	var ue *ingest.UnavailableError
	switch {
	case errors.As(err, &ve):
		s.writeError(w, http.StatusBadRequest, "invalid_report", ve.Error())
	case errors.As(err, &oe):
		s.writeError(w, http.StatusBadRequest, "out_of_order", oe.Error())
	case errors.As(err, &ove):
		s.metrics.shed.Inc()
		retryAfterHeader(w)
		s.writeError(w, http.StatusTooManyRequests, "ingest_overloaded", ove.Error())
	case errors.As(err, &ue):
		retryAfterHeader(w)
		s.writeError(w, http.StatusServiceUnavailable, "ingest_unavailable", ue.Error())
	case r.Context().Err() != nil ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		retryAfterHeader(w)
		s.writeError(w, http.StatusServiceUnavailable, "timeout",
			"deadline before durability was confirmed; the report may or may not have committed")
	default:
		s.writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// ingestStatusBody is the GET /v1/ingest/status answer.
type ingestStatusBody struct {
	Enabled    bool                  `json:"enabled"`
	Ready      bool                  `json:"ready"`
	Stats      *ingest.Stats         `json:"stats,omitempty"`
	Generation int                   `json:"generation"`
	Degraded   bool                  `json:"degraded"`
	Mining     bool                  `json:"mining"`
	Windows    []ingest.ObjectWindow `json:"windows,omitempty"`
}

// handleIngestStatus reports the pipeline and generation state.
// Unguarded like /metrics: it must answer during overload. ?verbose=1
// includes the full window contents — the chaos suite compares them
// byte-for-byte across a crash, and operators diff them across replicas.
func (s *Server) handleIngestStatus(w http.ResponseWriter, r *http.Request) {
	body := ingestStatusBody{Enabled: s.ingestEnabled(), Ready: s.ingestReady.Load()}
	if s.ingestPipe != nil && body.Ready {
		st := s.ingestPipe.Stats()
		body.Stats = &st
		if r.URL.Query().Get("verbose") == "1" {
			body.Windows = s.ingestPipe.WindowSnapshot()
		}
	}
	gen := s.generation()
	body.Generation = gen.Generation
	body.Degraded = gen.Degraded
	body.Mining = s.remineBusy.Load()
	writeJSON(w, body)
}

// generation returns the latest complete re-mining generation (zero
// value before the first completes).
func (s *Server) generation() ingestGeneration {
	s.genMu.Lock()
	defer s.genMu.Unlock()
	return s.gen
}

// remineOnce mines the current windows into the next generation, within
// the server's Deadline. A crash mid-mine needs no checkpoint: WAL replay
// rebuilds the windows and the restarted server's first generation mines
// them.
func (s *Server) remineOnce(ctx context.Context) error {
	snap := s.ingestPipe.WindowSnapshot()
	ds := s.windowsToDataset(snap)
	if len(ds) == 0 {
		return nil
	}
	// The server's grid and δ, not a grid fitted to the windows: a served
	// cell index must mean the same place on /v1/mine, /v1/predict and
	// /v1/score.
	scorer, err := core.NewScorer(ds, core.Config{
		Grid:    s.grid,
		Delta:   s.delta,
		Metrics: s.cfg.Metrics,
		Tracer:  s.cfg.Tracer,
	})
	if err != nil {
		return fmt.Errorf("build scorer over ingest windows: %w", err)
	}
	ctx, cancel := core.WithWallBudget(ctx, s.cfg.Deadline)
	defer cancel()
	res, err := core.Mine(ctx, scorer, core.MinerConfig{
		K:       DefaultIngestMineK,
		Metrics: s.cfg.Metrics,
		Tracer:  s.cfg.Tracer,
	})
	if err != nil {
		return err
	}
	objects, records := len(snap), 0
	for _, ow := range snap {
		records += len(ow.Records)
	}
	s.genMu.Lock()
	s.gen = ingestGeneration{
		Generation:      s.gen.Generation + 1,
		Patterns:        res.Patterns,
		Degraded:        res.Interrupted,
		InterruptReason: res.InterruptReason,
		Iterations:      res.Stats.Iterations,
		Candidates:      res.Stats.Candidates,
		Objects:         objects,
		Records:         records,
	}
	gen := s.gen.Generation
	s.genMu.Unlock()
	if len(res.Patterns) > 0 {
		s.SetPatterns(res.Patterns)
	}
	if c := s.cfg.Metrics.Counter("serve.ingest.generations"); c != nil {
		c.Inc()
	}
	s.cfg.Logger.Info("re-mine complete",
		slogx.Route(routeIngest), slog.Int("generation", gen),
		slog.Int("objects", objects), slog.Int("records", records))
	return nil
}

// windowsToDataset synchronizes each object's windowed reports onto one
// global snapshot schedule (§3.2's superimposition), anchored so the
// last snapshot lands on the newest report in any window. Objects whose
// windows are empty contribute nothing; iteration order is the
// snapshot's sorted order, so the dataset — and therefore the mined
// generation — is a deterministic function of the window state.
func (s *Server) windowsToDataset(snap []ingest.ObjectWindow) traj.Dataset {
	end, any := 0.0, false
	for _, ow := range snap {
		if n := len(ow.Records); n > 0 {
			if t := ow.Records[n-1].Time; !any || t > end {
				end, any = t, true
			}
		}
	}
	if !any {
		return nil
	}
	syncCfg := traj.SyncConfig{
		Start:    end - s.cfg.IngestSyncInterval*float64(s.cfg.IngestSyncCount-1),
		Interval: s.cfg.IngestSyncInterval,
		Count:    s.cfg.IngestSyncCount,
		U:        s.cfg.IngestSyncU,
		C:        s.cfg.IngestSyncC,
	}
	ds := make(traj.Dataset, 0, len(snap))
	for _, ow := range snap {
		if len(ow.Records) == 0 {
			continue
		}
		reports := make([]traj.Report, len(ow.Records))
		for i, rec := range ow.Records {
			reports[i] = traj.Report{Time: rec.Time, Loc: geom.Pt(rec.X, rec.Y)}
		}
		tr, err := traj.Synchronize(reports, syncCfg)
		if err != nil {
			// Config was validated at NewServer; a per-object failure
			// here means an empty report list, which the guard above
			// excludes. Skip defensively rather than poison the batch.
			continue
		}
		ds = append(ds, tr)
	}
	return ds
}

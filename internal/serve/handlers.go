package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"trajpattern/internal/core"
	"trajpattern/internal/geom"
	"trajpattern/internal/obs"
	"trajpattern/internal/obs/slogx"
	"trajpattern/internal/predict"
	"trajpattern/internal/trace"
)

// ScoreRequest asks for the normalized match of each submitted pattern.
type ScoreRequest struct {
	Patterns [][]int `json:"patterns"`
}

// ScoredPatternJSON is one pattern with its NM score.
type ScoredPatternJSON struct {
	Cells []int   `json:"cells"`
	NM    float64 `json:"nm"`
}

// ScoreResponse answers a ScoreRequest, scores in request order.
type ScoreResponse struct {
	Scores []ScoredPatternJSON `json:"scores"`
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	var req ScoreRequest
	if err := readJSON(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if len(req.Patterns) == 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request", "no patterns submitted")
		return
	}
	pats := make([]core.Pattern, len(req.Patterns))
	for i, cells := range req.Patterns {
		if len(cells) == 0 {
			s.writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("pattern %d is empty", i))
			return
		}
		for _, c := range cells {
			if c < 0 || c >= s.grid.NumCells() {
				s.writeError(w, http.StatusBadRequest, "bad_request",
					fmt.Sprintf("pattern %d: cell %d outside grid of %d cells", i, c, s.grid.NumCells()))
				return
			}
		}
		pats[i] = core.Pattern(cells)
	}
	scores, err := s.scorer.ScoreAll(r.Context(), pats)
	if err != nil {
		s.writeScoreError(w, r, err)
		return
	}
	resp := ScoreResponse{Scores: make([]ScoredPatternJSON, len(pats))}
	for i, p := range pats {
		resp.Scores[i] = ScoredPatternJSON{Cells: p, NM: scores[i]}
	}
	writeJSON(w, resp)
}

// writeScoreError distinguishes the three ways ScoreAll fails: the
// caller's deadline or disconnect (503, retryable), a scoring panic
// captured as *core.ScorePanicError (500, a bug report), and anything
// else (500).
func (s *Server) writeScoreError(w http.ResponseWriter, r *http.Request, err error) {
	var pe *core.ScorePanicError
	switch {
	case r.Context().Err() != nil ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		retryAfterHeader(w)
		s.writeError(w, http.StatusServiceUnavailable, "timeout", err.Error())
	case errors.As(err, &pe):
		s.metrics.panics.Inc()
		s.cfg.Logger.Error("scoring panic",
			slogx.RequestID(trace.RequestIDFrom(r.Context())), slogx.Err(pe), slogx.Stack(pe.Stack))
		s.writeError(w, http.StatusInternalServerError, "score_panic", pe.Error())
	default:
		s.writeError(w, http.StatusInternalServerError, "internal", err.Error())
	}
}

// MineRequest asks for a bounded top-k mining run over the server's
// dataset.
type MineRequest struct {
	K      int `json:"k"`
	MinLen int `json:"min_len,omitempty"`
	MaxLen int `json:"max_len,omitempty"`
	// MaxWallMS bounds the run's wall time in milliseconds, inside the
	// route's Deadline, which bounds it anyway. Zero means the Deadline
	// alone; a negative value is refused.
	MaxWallMS int64 `json:"max_wall_ms,omitempty"`
}

// MineResponse carries the mined top-k. Degraded marks a partial answer:
// the request's wall budget or deadline, or the miner's iteration bound,
// stopped the run before the algorithm's own termination test, so
// Patterns is the best-so-far top-k rather than the converged answer —
// served as 200, not an error.
type MineResponse struct {
	Patterns        []ScoredPatternJSON `json:"patterns"`
	Degraded        bool                `json:"degraded"`
	InterruptReason string              `json:"interrupt_reason,omitempty"`
	Iterations      int                 `json:"iterations"`
	Candidates      int                 `json:"candidates"`
	// Generation, when positive, marks an answer served from the
	// streaming-ingest re-mining loop rather than mined on demand.
	Generation int `json:"generation,omitempty"`
}

func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	var req MineRequest
	if err := readJSON(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if req.MaxWallMS < 0 {
		s.writeError(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("max_wall_ms must be >= 0 (0 = the route deadline only), got %d", req.MaxWallMS))
		return
	}
	mcfg := core.MinerConfig{
		K:       req.K,
		MinLen:  req.MinLen,
		MaxLen:  req.MaxLen,
		Metrics: s.cfg.Metrics,
		Tracer:  s.cfg.Tracer,
	}
	if err := mcfg.Validate(); err != nil {
		s.writeMineError(w, r, err)
		return
	}
	// An ingest-enabled server mines its ingest windows continuously and
	// serves best-so-far: /v1/mine answers with at most k of the latest
	// generation's patterns, best first — flagged degraded while a newer
	// generation is still being mined — instead of re-running the search
	// in the request path. The loop answers one problem on one dataset,
	// so a request for another problem is refused, and until the first
	// generation exists the answer is 503 + Retry-After rather than a
	// mine of the -in dataset. With ingest off the on-demand path below
	// applies.
	if s.ingestEnabled() {
		if req.K > DefaultIngestMineK || req.MinLen > 1 || (req.MaxLen != 0 && req.MaxLen != core.DefaultMaxLen) {
			s.writeError(w, http.StatusBadRequest, "ingest_fixed_problem", fmt.Sprintf(
				"this server serves the top %d patterns of length 1 to %d from its ingest re-mining loop; ask for k <= %d with no other min_len or max_len",
				DefaultIngestMineK, core.DefaultMaxLen, DefaultIngestMineK))
			return
		}
		if gen := s.generation(); gen.Generation > 0 {
			mining := s.remineBusy.Load()
			pats := gen.Patterns[:min(req.K, len(gen.Patterns))]
			resp := MineResponse{
				Patterns:        make([]ScoredPatternJSON, len(pats)),
				Degraded:        gen.Degraded || mining,
				InterruptReason: gen.InterruptReason,
				Iterations:      gen.Iterations,
				Candidates:      gen.Candidates,
				Generation:      gen.Generation,
			}
			if mining && resp.InterruptReason == "" {
				resp.InterruptReason = "re-mine in flight; serving previous generation"
			}
			for i, sp := range pats {
				resp.Patterns[i] = ScoredPatternJSON{Cells: sp.Pattern, NM: sp.NM}
			}
			writeJSON(w, resp)
			return
		}
		retryAfterHeader(w)
		s.writeError(w, http.StatusServiceUnavailable, "no_generation",
			"the ingest re-mining loop has not completed a generation yet")
		return
	}
	ctx, cancel := core.WithWallBudget(r.Context(), time.Duration(req.MaxWallMS)*time.Millisecond)
	defer cancel()
	res, err := core.Mine(ctx, s.scorer, mcfg)
	if err != nil {
		s.writeMineError(w, r, err)
		return
	}
	resp := MineResponse{
		Patterns:        make([]ScoredPatternJSON, len(res.Patterns)),
		Degraded:        res.Interrupted,
		InterruptReason: res.InterruptReason,
		Iterations:      res.Stats.Iterations,
		Candidates:      res.Stats.Candidates,
	}
	for i, sp := range res.Patterns {
		resp.Patterns[i] = ScoredPatternJSON{Cells: sp.Pattern, NM: sp.NM}
	}
	if len(res.Patterns) > 0 {
		s.SetPatterns(res.Patterns)
	}
	writeJSON(w, resp)
}

// writeMineError maps a mining failure onto the wire: a *core.ConfigError
// is the caller's fault (400); everything else follows the score-error
// taxonomy (503 on deadline/disconnect, 500 on panic or other faults).
func (s *Server) writeMineError(w http.ResponseWriter, r *http.Request, err error) {
	var cfgErr *core.ConfigError
	if errors.As(err, &cfgErr) {
		s.writeError(w, http.StatusBadRequest, "bad_config", cfgErr.Error())
		return
	}
	s.writeScoreError(w, r, err)
}

// PointJSON is one observed or predicted position.
type PointJSON struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// PredictRequest submits an observed position history, oldest first.
type PredictRequest struct {
	History []PointJSON `json:"history"`
}

// PredictResponse is the predicted next position.
type PredictResponse struct {
	Next PointJSON `json:"next"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req PredictRequest
	if err := readJSON(r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	if len(req.History) < 2 {
		s.writeError(w, http.StatusBadRequest, "bad_request",
			"need at least 2 history points to predict")
		return
	}
	scored := s.Patterns()
	if len(scored) == 0 {
		// 409: the request is well-formed but the server has no patterns
		// yet — mine first (or start with -patterns), then retry.
		s.writeError(w, http.StatusConflict, "no_patterns",
			"no mined patterns installed; POST /v1/mine first")
		return
	}
	pats := make([]core.Pattern, len(scored))
	for i, sp := range scored {
		pats[i] = sp.Pattern
	}
	pp := &predict.PatternPredictor{
		Base:     predict.NewLinear(),
		Patterns: pats,
		Mode:     predict.LocationPatterns,
		Grid:     s.grid,
		Delta:    s.delta,
		Sigma:    s.sigma,
	}
	if err := pp.Validate(); err != nil {
		s.writeError(w, http.StatusInternalServerError, "internal", err.Error())
		return
	}
	for _, p := range req.History {
		pp.Observe(geom.Pt(p.X, p.Y))
	}
	next := pp.Predict()
	writeJSON(w, PredictResponse{Next: PointJSON{X: next.X, Y: next.Y}})
}

// handleMetrics serves the server's whole registry stamped with build
// provenance: Prometheus text exposition by default (scrapers point here
// directly), the JSON report shape with ?format=json. A server built
// without a Metrics registry still answers — the exposition then carries
// only the build_info gauge. Unguarded like /healthz: a scrape must
// succeed precisely when the service is overloaded or draining.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rep := obs.NewReport(s.cfg.Metrics.Snapshot())
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, rep)
		return
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	_ = obs.WriteProm(w, rep)
}

// handleHealthz reports process liveness: if this handler runs at all,
// the answer is yes. It stays 200 during drain — liveness and readiness
// are different questions.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"ok": true})
}

// handleReadyz reports whether the server accepts new work: 503 once
// draining starts, so load balancers stop routing here before the
// listener closes, and 503 while an ingest-enabled server is still
// replaying its WAL — a process that has not rebuilt its history yet
// must not take traffic it would mis-order.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	notReady := func(reason string) {
		retryAfterHeader(w)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]any{"ready": false, "reason": reason})
	}
	if s.admission.Draining() {
		notReady("draining")
		return
	}
	if s.ingestEnabled() && !s.ingestReady.Load() {
		notReady("replaying")
		return
	}
	writeJSON(w, map[string]any{
		"ready":    true,
		"inflight": s.admission.InFlight(),
		"queued":   s.admission.Queued(),
		"capacity": s.admission.Capacity(),
	})
}

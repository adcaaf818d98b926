// Package serve implements trajserve, the long-running HTTP service that
// exposes the TrajPattern miner, scorer and predictor as JSON endpoints.
// The paper's algorithms run batch; this package makes them survivable as
// a service: every route sits behind the guard package's admission
// controller (weighted semaphore + bounded wait queue, typed 429/503
// shedding), carries a per-route deadline that propagates into the
// miner's context plumbing, recovers handler panics into typed 500s, and
// participates in a two-stage SIGTERM drain.
//
// Routes:
//
//	POST /v1/score    score submitted patterns by normalized match
//	POST /v1/mine     bounded top-k mining; partial answers are 200+degraded
//	POST /v1/predict  pattern-assisted next-position prediction
//	POST /v1/ingest   durable streaming ingest (WAL-backed; see ingest.go)
//	GET  /v1/ingest/status  pipeline and re-mining generation state
//	GET  /healthz     process liveness
//	GET  /readyz      admission state (503 while draining or replaying)
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"trajpattern/internal/core"
	"trajpattern/internal/grid"
	"trajpattern/internal/ingest"
	"trajpattern/internal/obs"
	"trajpattern/internal/obs/slogx"
	"trajpattern/internal/serve/guard"
	"trajpattern/internal/trace"
	"trajpattern/internal/traj"
)

// Defaults for Config fields left zero.
const (
	DefaultCapacity = 8
	DefaultMaxQueue = 16
	DefaultDeadline = 30 * time.Second
)

// retryAfter is the backoff hint attached to 429/503 responses; the
// Retry-After header rounds it up to whole seconds.
const retryAfter = 500 * time.Millisecond

// mineWeight is the admission weight of one /v1/mine request. It is
// clamped to a positive Capacity, so a mine request can always be
// admitted.
const mineWeight = 4

// DefaultMaxBodySize bounds every request body.
const DefaultMaxBodySize = 8 << 20 // 8 MiB of JSON is far beyond any sane request

// Config configures a Server.
type Config struct {
	// Dataset is the trajectory corpus the service scores and mines
	// against. Required, non-empty.
	Dataset traj.Dataset
	// GridN is the grid side (G = GridN²). Zero means 12.
	GridN int
	// DeltaMul sets δ as a multiple of the grid cell size (the paper's
	// choice is 1). Zero means 1.
	DeltaMul float64

	// Capacity is the admission controller's total in-flight weight
	// (score and predict cost 1, mine costs 4, clamped to a positive
	// Capacity). Zero means DefaultCapacity; negative means unlimited.
	Capacity int64
	// MaxQueue bounds the admission wait queue. Zero means
	// DefaultMaxQueue; negative means unbounded.
	MaxQueue int

	// Deadline bounds every guarded route's wall time, queue wait
	// included; a /v1/mine request mines under it, and so does each
	// ingest re-mining generation. Zero means DefaultDeadline; negative
	// disables it.
	Deadline time.Duration

	// IngestWALDir, when non-empty, enables durable streaming ingest:
	// POST /v1/ingest appends reports to a segmented write-ahead log in
	// this directory, feeds per-object sliding windows, and triggers
	// incremental re-mining. On restart the WAL is replayed — and the
	// windows rebuilt byte-identically — before /readyz reports ready.
	IngestWALDir string
	// IngestWindow caps each object's sliding window in records. Zero
	// means ingest.DefaultMaxRecords.
	IngestWindow int
	// IngestSyncInterval, IngestSyncCount, IngestSyncU and IngestSyncC
	// define the snapshot schedule the re-mining loop superimposes on
	// the windowed reports (traj.SyncConfig). Zeros mean 1, 16, 1, 2.
	IngestSyncInterval float64
	IngestSyncCount    int
	IngestSyncU        float64
	IngestSyncC        float64

	// Metrics, when non-nil, receives service instrumentation
	// ("serve.*" names) alongside the scorer's and miner's own counters.
	Metrics *obs.Registry
	// Tracer, when non-nil, receives one span per request. Per-request
	// spans buffer in memory for the process lifetime, so this is a
	// debugging mode, not an always-on default.
	Tracer *trace.Tracer
	// Logger is the operator log: one record per request (route,
	// status, request_id, duration), panics with their stack, re-mine
	// failures, WAL replay notices and Run's lifecycle events. Nil
	// discards them.
	Logger *slogx.Logger
}

func (c Config) withDefaults() Config {
	if c.GridN == 0 {
		c.GridN = 12
	}
	// Exact sentinel test, not a numeric comparison: zero means "unset"
	// for this config field.
	if c.DeltaMul == 0 {
		c.DeltaMul = 1
	}
	if c.Capacity == 0 {
		c.Capacity = DefaultCapacity
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = DefaultMaxQueue
	}
	if c.Deadline == 0 {
		c.Deadline = DefaultDeadline
	}
	if c.IngestSyncInterval <= 0 {
		c.IngestSyncInterval = 1
	}
	if c.IngestSyncCount <= 0 {
		c.IngestSyncCount = 16
	}
	if c.IngestSyncU <= 0 {
		c.IngestSyncU = 1
	}
	if c.IngestSyncC <= 0 {
		c.IngestSyncC = 2
	}
	return c
}

// DefaultIngestMineK is the top-k the re-mining loop maintains.
const DefaultIngestMineK = 8

// Server is the trajserve request handler: the scorer and grid are built
// once at construction, every route is wrapped in the guard middleware
// stack, and mined patterns are retained for /v1/predict.
type Server struct {
	cfg       Config
	scorer    *core.Scorer
	grid      *grid.Grid
	delta     float64
	sigma     float64
	admission *guard.Admission
	mux       *http.ServeMux

	mu       sync.RWMutex
	patterns []core.ScoredPattern // latest mined or preloaded patterns

	// Streaming-ingest state (nil/zero unless IngestWALDir is set; see
	// ingest.go). The pipeline exists only between StartIngest and
	// StopIngest; ingestReady gates both /v1/ingest and /readyz.
	ingestPipe  *ingest.Pipeline
	ingestReady atomic.Bool
	remineC     chan struct{}
	remineStop  context.CancelFunc
	remineDone  chan struct{}
	remineBusy  atomic.Bool
	genMu       sync.Mutex
	gen         ingestGeneration

	metrics serveMetrics
	reqSeq  atomic.Int64 // deterministic per-process X-Request-ID sequence
}

type serveMetrics struct {
	requests map[string]*obs.Counter   // per route
	latency  map[string]*obs.Histogram // per route; shed (429) requests are never observed
	statuses map[int]*obs.Counter      // per status class (2, 4, 5)
	shed     *obs.Counter
	drained  *obs.Counter
	panics   *obs.Counter
	inflight *obs.Gauge
	queued   *obs.Gauge
	timer    *obs.Timer
}

func newServeMetrics(r *obs.Registry) serveMetrics {
	if r == nil {
		return serveMetrics{}
	}
	m := serveMetrics{
		requests: map[string]*obs.Counter{},
		latency:  map[string]*obs.Histogram{},
		statuses: map[int]*obs.Counter{},
		shed:     r.Counter("serve.shed"),
		drained:  r.Counter("serve.drained"),
		panics:   r.Counter("serve.panics"),
		inflight: r.Gauge("serve.inflight_weight"),
		queued:   r.Gauge("serve.queued"),
		timer:    r.Timer("serve.request"),
	}
	for _, route := range []string{routeScore, routeMine, routePredict, routeIngest} {
		m.requests[route] = r.Counter("serve.requests" + route)
		m.latency[route] = r.Histogram("serve.latency" + route)
	}
	for _, class := range []int{2, 4, 5} {
		m.statuses[class] = r.Counter(fmt.Sprintf("serve.status.%dxx", class))
	}
	return m
}

const (
	routeScore   = "/v1/score"
	routeMine    = "/v1/mine"
	routePredict = "/v1/predict"
	routeIngest  = "/v1/ingest"
)

// NewServer builds the scorer over cfg.Dataset and assembles the routed,
// guarded handler. Configuration faults surface here as errors (the
// scorer's own validation returns *core.ConfigError), never later at
// request time.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Dataset) == 0 {
		return nil, errors.New("serve: empty dataset")
	}
	if cfg.GridN < 1 {
		return nil, fmt.Errorf("serve: GridN must be >= 1, got %d", cfg.GridN)
	}
	if math.IsNaN(cfg.DeltaMul) || cfg.DeltaMul <= 0 {
		return nil, fmt.Errorf("serve: DeltaMul must be positive and not NaN, got %v", cfg.DeltaMul)
	}
	g := cfg.Dataset.FitGrid(cfg.GridN)
	delta := cfg.DeltaMul * g.CellWidth()
	scorer, err := core.NewScorer(cfg.Dataset, core.Config{
		Grid:    g,
		Delta:   delta,
		Metrics: cfg.Metrics,
		Tracer:  cfg.Tracer,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: build scorer: %w", err)
	}
	sigma := cfg.Dataset.MeanSigma()
	if sigma <= 0 {
		sigma = delta // exact zero sigma would break the predictor's confirmation probability
	}
	s := &Server{
		cfg:       cfg,
		scorer:    scorer,
		grid:      g,
		delta:     delta,
		sigma:     sigma,
		admission: guard.NewAdmission(cfg.Capacity, cfg.MaxQueue, retryAfter),
		mux:       http.NewServeMux(),
		metrics:   newServeMetrics(cfg.Metrics),
	}
	// Queue telemetry lives on the admission controller itself: the depth
	// gauges move the instant the queue does, not once per completed
	// request, so the high-water mark is exact. Nil-registry handles are
	// nil, which the controller tolerates per the obs contract.
	s.admission.Instrument(guard.AdmissionMetrics{
		Depth:    cfg.Metrics.Gauge("serve.queue.depth"),
		DepthMax: cfg.Metrics.Gauge("serve.queue.depth.max"),
		Wait:     cfg.Metrics.Histogram("serve.queue.wait"),
	})
	s.mux.Handle("POST "+routeScore, s.guarded(routeScore, 1, s.handleScore))
	mineWt := int64(mineWeight)
	if cfg.Capacity > 0 {
		mineWt = min(mineWt, cfg.Capacity)
	}
	s.mux.Handle("POST "+routeMine, s.guarded(routeMine, mineWt, s.handleMine))
	s.mux.Handle("POST "+routePredict, s.guarded(routePredict, 1, s.handlePredict))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.ingestEnabled() {
		s.remineC = make(chan struct{}, 1)
		s.remineDone = make(chan struct{})
		s.mux.Handle("POST "+routeIngest, s.guarded(routeIngest, 1, s.handleIngest))
		s.mux.HandleFunc("GET /v1/ingest/status", s.handleIngestStatus)
	}
	return s, nil
}

// Handler returns the fully assembled HTTP handler (nil on nil).
func (s *Server) Handler() http.Handler {
	if s == nil {
		return nil
	}
	return s.mux
}

// Admission exposes the server's admission controller so the drain
// orchestration (and tests) can flip it. A nil server returns a nil
// controller, which admits everything.
func (s *Server) Admission() *guard.Admission {
	if s == nil {
		return nil
	}
	return s.admission
}

// SetPatterns installs patterns for /v1/predict, replacing any previous
// set. Run uses it to preload a persisted pattern file at startup; a
// successful /v1/mine installs its answer the same way.
func (s *Server) SetPatterns(pats []core.ScoredPattern) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.patterns = pats
	s.mu.Unlock()
}

// Patterns returns the currently installed pattern set (nil on nil).
func (s *Server) Patterns() []core.ScoredPattern {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.patterns
}

// maxRequestIDLen caps accepted inbound X-Request-ID values; longer IDs
// are replaced with a generated one rather than echoed back at length.
const maxRequestIDLen = 128

// requestID returns the correlation ID for r: the client's X-Request-ID
// when present and sane, else the server's own deterministic sequence
// ("req-00000001", ...), so tests and single-process logs correlate
// without any randomness.
func (s *Server) requestID(r *http.Request) string {
	if s == nil {
		return ""
	}
	if id := r.Header.Get("X-Request-ID"); id != "" && len(id) <= maxRequestIDLen {
		return id
	}
	return fmt.Sprintf("req-%08d", s.reqSeq.Add(1))
}

// guarded assembles one route's middleware stack, outermost first:
// instrumentation (request-ID correlation, status/latency metrics,
// optional request span, structured request log), panic recovery,
// deadline, admission, then the handler. Admission sits inside the
// deadline so queue wait counts against the request budget and a client
// disconnect abandons the queue slot.
func (s *Server) guarded(route string, weight int64, h http.HandlerFunc) http.Handler {
	admitted := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		release, err := s.admission.Acquire(r.Context(), weight)
		if err != nil {
			s.writeAdmissionError(w, err)
			return
		}
		defer release()
		s.metrics.inflight.Set(s.admission.InFlight())
		h(w, r)
	})
	stack := guard.WithDeadline(route, s.cfg.Deadline, admitted)
	inner := stack
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := s.requestID(r)
		w.Header().Set("X-Request-ID", reqID)
		r = r.WithContext(trace.WithRequestID(r.Context(), reqID))
		recovered := guard.Recover(route, func(pe *guard.PanicError) {
			s.metrics.panics.Inc()
			s.cfg.Logger.Error("panic recovered",
				slogx.Route(route), slogx.RequestID(reqID), slogx.Err(pe), slogx.Stack(pe.Stack))
		}, inner)
		if c := s.metrics.requests[route]; c != nil {
			c.Inc()
		}
		start := time.Now()
		var span *trace.Span
		if s.cfg.Tracer != nil {
			span = s.cfg.Tracer.Local().Span("serve.request",
				trace.Attrs{"route": route, "request_id": reqID})
		}
		sw := guard.NewStatusRecorder(w)
		r.Body = http.MaxBytesReader(sw, r.Body, DefaultMaxBodySize)
		recovered.ServeHTTP(sw, r)
		status := sw.Status()
		if status == 0 {
			// Handler wrote nothing (e.g. deadline fired before any
			// output): close the exchange as a 503 so the client never
			// sees an empty 200.
			s.writeError(sw, http.StatusServiceUnavailable, "timeout",
				"request abandoned before a response was produced")
			status = http.StatusServiceUnavailable
		}
		elapsed := time.Since(start)
		if c := s.metrics.statuses[status/100]; c != nil {
			c.Inc()
		}
		s.metrics.timer.Observe(elapsed)
		// Shed requests never reach the handler; folding their
		// constant-time rejections into the route latency distribution
		// would drag the percentiles toward zero exactly when the server
		// is overloaded.
		if status != http.StatusTooManyRequests {
			if lat := s.metrics.latency[route]; lat != nil {
				lat.ObserveDuration(elapsed)
			}
		}
		s.metrics.queued.Set(int64(s.admission.Queued()))
		span.Attr("status", status).End()
		s.cfg.Logger.Info("request",
			slogx.Route(route), slogx.RequestID(reqID),
			slogx.Status(status), slogx.Duration(elapsed))
	})
}

// errorBody is the JSON error envelope shared by every non-200 response.
type errorBody struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	var body errorBody
	body.Error.Code = code
	body.Error.Message = msg
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

// writeAdmissionError maps the guard's typed errors onto the wire:
// *ShedError → 429 + Retry-After, *DrainError → 503 + Retry-After,
// context expiry while queued → 503.
func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) {
	retryAfterHeader(w)
	var shed *guard.ShedError
	var drain *guard.DrainError
	switch {
	case errors.As(err, &shed):
		s.metrics.shed.Inc()
		s.writeError(w, http.StatusTooManyRequests, "overloaded", shed.Error())
	case errors.As(err, &drain):
		s.metrics.drained.Inc()
		s.writeError(w, http.StatusServiceUnavailable, "draining", drain.Error())
	default:
		s.writeError(w, http.StatusServiceUnavailable, "admission_timeout",
			fmt.Sprintf("gave up waiting for admission: %v", err))
	}
}

func retryAfterHeader(w http.ResponseWriter) {
	secs := int64((retryAfter + time.Second - 1) / time.Second) // ceil: "Retry-After: 0" means hammer away
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// readJSON decodes the request body into v, rejecting unknown fields and
// trailing garbage so a torn or concatenated payload can never half-parse
// into a request.
func readJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

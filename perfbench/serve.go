package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"trajpattern/internal/cli"
	"trajpattern/internal/core"
	"trajpattern/internal/datagen"
	"trajpattern/internal/geom"
	"trajpattern/internal/grid"
	"trajpattern/internal/ingest"
	"trajpattern/internal/obs"
	"trajpattern/internal/predict"
	"trajpattern/internal/serve"
	"trajpattern/internal/trace"
	"trajpattern/internal/traj"
)

// serveInst sizes the serve-ingest phase.
type serveInst struct {
	ReadS, ReadL, Herds, GridN int // the served dataset and its grid side
	Objects, PathLen           int // ingesting objects and the length of their generated paths
	// PathSeed pins the ingesting objects' paths. They set the work of
	// every re-mine generation, and so how much of the time the re-mine
	// loop holds both CPUs against the reads; seed-drawn paths made that,
	// and with it the freshness and read latencies, vary from seed to seed.
	PathSeed uint64
	Prefill  int // reports per object ingested during set-up

	// Nominal steady-phase rates, requests per second. They are not
	// observed user traffic (there is none on record); they are chosen so
	// the run stays steady on a 2-CPU host. Score and predict at 200/s cost
	// about 0.13 of one CPU at their single-request service times, leaving
	// the CPUs to the re-mine loop. Ingest at 10/s keeps the re-mine loop
	// busy part of the time; at 200/s it held both CPUs and every latency
	// moved by half its median from run to run. Status reads are the
	// freshness probe: they observe when each acknowledged report becomes
	// served, at about 5 ms resolution.
	IngestRate, ScoreRate, PredictRate, MineRate, StatusRate float64

	ScorePatterns int // patterns per /v1/score request
	PatternPool   int // distinct patterns the score requests draw from
	History       int // points per /v1/predict history

	Bursts, BurstSize int           // saturation bursts and reports per burst
	LateBound         time.Duration // steady-phase generator lateness p99 above this invalidates the run
}

// ingestWindow keeps every report in the windows, so nothing is pruned
// from the WAL and every acknowledged report must come back on replay.
const ingestWindow = 1 << 20

// remineSync is the snapshot schedule the re-mining loop superimposes on
// the windows: the server is configured with it, and traj.sync_ms times it.
var remineSync = traj.SyncConfig{Interval: 1, Count: 16, U: 1, C: 2}

const (
	routeIngest  = "/v1/ingest"
	routeScore   = "/v1/score"
	routePredict = "/v1/predict"
	routeMine    = "/v1/mine"
	routeStatus  = "/v1/ingest/status"
)

// serveEnv is the running server of one set-up and everything the phase
// needs to drive and check it.
type serveEnv struct {
	in      serveInst
	srv     *serve.Server
	hs      *http.Server
	served  chan error // http.Server.Serve's return
	base    string
	walDir  string
	reg     *obs.Registry // nil unless traced
	clients []*http.Client
	readDS  traj.Dataset
	grid    *grid.Grid // the server's grid, refit the way trajserve fits it
	paths   [][]geom.Point
	next    []int // next report index per object
	acked   []ackRec
	stopped bool
}

type ackRec struct {
	obj string
	t   float64
}

func objName(i int) string { return fmt.Sprintf("zeb-%03d", i) }

// startServe builds the served dataset and the ingesting objects' paths,
// starts trajserve over loopback with durable ingest and waits for /readyz.
func startServe(ctx context.Context, o options, tracer *trace.Tracer, rep int) (*serveEnv, error) {
	in := o.Inst.Serve
	readDS, err := datagen.ZebraDataset(datagen.ZebraConfig{
		NumZebras: in.ReadS, AvgLen: in.ReadL, NumGroups: in.Herds, Seed: o.Seed,
	}, o.Inst.U, o.Inst.C)
	if err != nil {
		return nil, fmt.Errorf("serve-ingest dataset: %w", err)
	}
	paths, err := datagen.Zebras(datagen.ZebraConfig{
		NumZebras: in.Objects, AvgLen: in.PathLen, LenJitter: 0.01, NumGroups: in.Herds, Seed: in.PathSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("ingest paths: %w", err)
	}
	walDir := filepath.Join(o.OutDir, "tmp", fmt.Sprintf("wal-%d-%d", os.Getpid(), rep))
	if err := os.RemoveAll(walDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, err
	}
	// From here on e owns the WAL directory: every error returns e, and
	// the caller's close removes what exists.
	e := &serveEnv{in: in, readDS: readDS, grid: cli.FitGrid(readDS, in.GridN), paths: paths,
		next: make([]int, in.Objects), walDir: walDir}
	if o.Trace {
		e.reg = obs.New()
	}
	srv, err := serve.NewServer(serve.Config{
		Dataset: readDS, GridN: in.GridN,
		IngestWALDir: walDir, IngestWindow: ingestWindow,
		IngestSyncInterval: remineSync.Interval, IngestSyncCount: remineSync.Count,
		IngestSyncU: remineSync.U, IngestSyncC: remineSync.C,
		Metrics: e.reg, Tracer: tracer,
	})
	if err != nil {
		return e, err
	}
	if err := srv.StartIngest(); err != nil {
		return e, err
	}
	e.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return e, err
	}
	e.base = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e.srv.Handler()}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	for i := 0; i < senders(); i++ {
		e.clients = append(e.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	return e, e.waitReady(ctx)
}

// senders is the number of request-issuing goroutines, each with one
// connection: at most the CPU count, and two at most.
func senders() int { return min(runtime.NumCPU(), 2) }

func (e *serveEnv) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		status, _, err := e.do(ctx, e.clients[0], http.MethodGet, "/readyz", nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		time.Sleep(100 * time.Microsecond)
	}
	return errors.New("serve: /readyz never turned 200")
}

// prefill ingests in.Prefill reports per object, closed loop, then waits
// until a re-mined generation exists, after which every route answers from
// mined patterns.
func (e *serveEnv) prefill(ctx context.Context) error {
	var reqs []*request
	for k := 0; k < e.in.Prefill; k++ {
		for obj := range e.paths {
			reqs = append(reqs, e.ingestRequest(obj, 0))
		}
	}
	res := e.send(ctx, split(reqs, len(e.clients)), time.Now(), false)
	for _, r := range res {
		if !r.ok() {
			return fmt.Errorf("prefill ingest: status %d: %v", r.status, r.err)
		}
		e.acked = append(e.acked, ackRec{objName(r.req.obj), r.req.t})
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := e.status(ctx, e.clients[0])
		if err == nil && st.Generation >= 1 {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("serve: no re-mined generation after the prefill")
}

// shutdown stops the HTTP server and the ingest pipeline, waiting for both.
func (e *serveEnv) shutdown() error {
	if e.stopped {
		return nil
	}
	e.stopped = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	if e.hs != nil {
		errs = append(errs, e.hs.Shutdown(ctx))
		if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if e.srv != nil {
		errs = append(errs, e.srv.StopIngest())
	}
	for _, c := range e.clients {
		c.CloseIdleConnections()
	}
	return errors.Join(errs...)
}

func (e *serveEnv) close() error {
	err := e.shutdown()
	return errors.Join(err, os.RemoveAll(e.walDir))
}

// request is one scheduled HTTP request.
type request struct {
	at     time.Duration // due time, from the start of its phase
	method string
	route  string
	body   []byte
	obj    int     // ingest: object index
	t      float64 // ingest: report time
	pats   []int   // score: indices into the pattern pool
}

// outcome is one request's fate. Latency runs from the due time, so time a
// request spent queued behind a slow response on its connection counts
// against the server. ready is when the sender was free to send it: its due
// time, or later if the sender was still busy. sent minus ready is the
// generator's own lateness (timer and scheduling slack), which no server
// caused.
type outcome struct {
	req                    *request
	due, ready, sent, done time.Time
	status                 int
	err                    error
	body                   []byte
	gen                    int       // ingest: generation seen right after the ack
	mining                 bool      // ingest: a re-mine was in flight right after the ack
	probedAt               time.Time // ingest: when that status read returned
}

func (r outcome) ok() bool { return r.err == nil && r.status == http.StatusOK }

func (r outcome) latency() time.Duration { return r.done.Sub(r.due) }

func (r outcome) late() time.Duration { return r.sent.Sub(r.ready) }

func (e *serveEnv) ingestRequest(obj int, at time.Duration) *request {
	k := e.next[obj]
	e.next[obj]++
	p := e.paths[obj][k%len(e.paths[obj])]
	t := float64(k + 1)
	body, _ := json.Marshal(serve.IngestRequest{Obj: objName(obj), Time: t, X: p.X, Y: p.Y})
	return &request{at: at, method: http.MethodPost, route: routeIngest, body: body, obj: obj, t: t}
}

// split deals requests to senders: an object's reports always go to the
// same sender, so they reach the server in time order; other requests
// alternate. Each sender's list stays in due order.
func split(reqs []*request, n int) [][]*request {
	out := make([][]*request, n)
	other := 0
	for _, r := range reqs {
		i := r.obj % n
		if r.route != routeIngest {
			i = other % n
			other++
		}
		out[i] = append(out[i], r)
	}
	for _, l := range out {
		sort.SliceStable(l, func(a, b int) bool { return l[a].at < l[b].at })
	}
	return out
}

// send runs one goroutine per sender over its own connection, each issuing
// its requests at their due times (open loop: a request that is due while
// the previous one is still in flight goes out late, and the wait counts
// in its latency). With probe set, every acknowledged ingest is followed by
// a /v1/ingest/status read, which fixes the generation certain to contain
// the report.
func (e *serveEnv) send(ctx context.Context, lists [][]*request, start time.Time, probe bool) []outcome {
	results := make([][]outcome, len(lists))
	var wg sync.WaitGroup
	for i, list := range lists {
		wg.Add(1)
		go func(i int, list []*request) {
			defer wg.Done()
			c := e.clients[i]
			out := make([]outcome, 0, len(list))
			var free time.Time
			for _, r := range list {
				due := start.Add(r.at)
				ready := due
				if free.After(due) {
					ready = free
				} else if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				o := outcome{req: r, due: due, ready: ready, sent: time.Now()}
				o.status, o.body, o.err = e.do(ctx, c, r.method, r.route, r.body)
				o.done = time.Now()
				if probe && r.route == routeIngest && o.ok() {
					if st, err := e.status(ctx, c); err == nil {
						o.gen, o.mining, o.probedAt = st.Generation, st.Mining, time.Now()
					}
				}
				free = time.Now()
				out = append(out, o)
			}
			results[i] = out
		}(i, list)
	}
	wg.Wait()
	var all []outcome
	for _, r := range results {
		all = append(all, r...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].due.Before(all[b].due) })
	return all
}

func (e *serveEnv) do(ctx context.Context, c *http.Client, method, route string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, e.base+route, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// statusBody is the part of GET /v1/ingest/status the benchmark reads.
type statusBody struct {
	Generation int  `json:"generation"`
	Mining     bool `json:"mining"`
}

func (e *serveEnv) status(ctx context.Context, c *http.Client) (statusBody, error) {
	var st statusBody
	code, b, err := e.do(ctx, c, http.MethodGet, routeStatus, nil)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("status %d", code)
	}
	return st, json.Unmarshal(b, &st)
}

// workloadMix holds the steady phase's schedule and what its checks need.
type workloadMix struct {
	reqs []*request
	pool []core.Pattern
	nm   []float64 // in-process Scorer.NM of each pool pattern
}

// buildMix lays out the steady phase: every route at its nominal rate,
// ingest reports cycling over the objects, score requests drawing from a
// seeded pool of grid walks, predict histories cut from the served
// trajectories.
func (e *serveEnv) buildMix(seed uint64, dur time.Duration) (*workloadMix, error) {
	in := e.in
	rng := rand.New(rand.NewPCG(seed, 0x5e57e))
	m := &workloadMix{}
	for len(m.pool) < in.PatternPool {
		tr := e.readDS[rng.IntN(len(e.readDS))]
		cell := e.grid.IndexOf(tr[rng.IntN(len(tr))].Mean)
		p := core.Pattern{cell}
		for n := 1 + rng.IntN(6); len(p) < n; {
			nb := e.grid.Neighbors(p[len(p)-1], 1)
			p = append(p, nb[rng.IntN(len(nb))])
		}
		m.pool = append(m.pool, p)
	}
	s, err := core.NewScorer(e.readDS, core.Config{Grid: e.grid, Delta: e.grid.CellWidth()})
	if err != nil {
		return nil, err
	}
	for _, p := range m.pool {
		m.nm = append(m.nm, s.NM(p))
	}

	// Arrivals per route are Poisson: independent users, so requests of
	// different routes collide on a connection at random rather than in a
	// pattern the seed's phase offsets would fix.
	every := func(rate float64, f func(at time.Duration)) {
		if rate <= 0 {
			return
		}
		gap := func() time.Duration { return time.Duration(rng.ExpFloat64() / rate * float64(time.Second)) }
		for at := gap(); at < dur; at += gap() {
			f(at)
		}
	}
	obj := 0
	every(in.IngestRate, func(at time.Duration) {
		m.reqs = append(m.reqs, e.ingestRequest(obj%in.Objects, at))
		obj++
	})
	every(in.ScoreRate, func(at time.Duration) {
		var body serve.ScoreRequest
		var idx []int
		for i := 0; i < in.ScorePatterns; i++ {
			k := rng.IntN(len(m.pool))
			idx = append(idx, k)
			body.Patterns = append(body.Patterns, m.pool[k])
		}
		b, _ := json.Marshal(body)
		m.reqs = append(m.reqs, &request{at: at, method: http.MethodPost, route: routeScore, body: b, pats: idx})
	})
	every(in.PredictRate, func(at time.Duration) {
		tr := e.readDS[rng.IntN(len(e.readDS))]
		j := rng.IntN(len(tr) - in.History + 1)
		var body serve.PredictRequest
		for _, pt := range tr[j : j+in.History] {
			body.History = append(body.History, serve.PointJSON{X: pt.Mean.X, Y: pt.Mean.Y})
		}
		b, _ := json.Marshal(body)
		m.reqs = append(m.reqs, &request{at: at, method: http.MethodPost, route: routePredict, body: b})
	})
	every(in.StatusRate, func(at time.Duration) {
		m.reqs = append(m.reqs, &request{at: at, method: http.MethodGet, route: routeStatus})
	})
	every(in.MineRate, func(at time.Duration) {
		m.reqs = append(m.reqs, &request{at: at, method: http.MethodPost, route: routeMine, body: []byte(`{"k":8}`)})
	})
	return m, nil
}

// genObs is one observation of the served generation.
type genObs struct {
	at  time.Time
	gen int
}

// serveIngest runs the serve-ingest phase: the steady open-loop mix, a
// drain until every acknowledged report is served, in traced runs ingest
// saturation, then shutdown and the WAL replay check.
func serveIngest(ctx context.Context, o options, env *env, rep *report, budget time.Duration) error {
	e := env.serve
	in := e.in
	mix, err := e.buildMix(o.Seed, budget)
	if err != nil {
		return err
	}
	runtime.GC()
	phase := rep.spans.begin("serve-ingest.steady", 0, 3000)
	start := time.Now()
	res := e.send(ctx, split(mix.reqs, len(e.clients)), start, true)
	rep.spans.end(phase)

	lat := map[string][]float64{}
	var late []float64
	var gens []genObs
	type ack struct {
		at     time.Time
		target int
	}
	var acks []ack
	var lastMine []core.Pattern
	for i, r := range res {
		rep.Attempted++
		late = append(late, ms(r.late()))
		rep.spans.add("http "+r.req.route, phase, 3001+i, r.sent, r.done.Sub(r.sent))
		if !r.ok() {
			rep.fail("%s: status %d: %v", r.req.route, r.status, r.err)
			lat[r.req.route] = append(lat[r.req.route], math.Inf(1))
			continue
		}
		if err := e.checkResponse(r, mix, &lastMine, &gens); err != nil {
			rep.fail("%s: %v", r.req.route, err)
			lat[r.req.route] = append(lat[r.req.route], math.Inf(1))
			continue
		}
		lat[r.req.route] = append(lat[r.req.route], ms(r.latency()))
		if r.req.route == routeIngest {
			e.acked = append(e.acked, ackRec{objName(r.req.obj), r.req.t})
			if r.probedAt.IsZero() {
				rep.fail("ingest: no status read after the ack")
				continue
			}
			target := r.gen + 1
			if r.mining {
				target++
			}
			gens = append(gens, genObs{r.probedAt, r.gen})
			acks = append(acks, ack{r.done, target})
		}
	}

	// Drain: one more report guarantees a generation starts after the last
	// acknowledged one (a target of generation+2 is otherwise never reached
	// when the in-flight re-mine already held the report); then read the
	// status until the newest target generation is served.
	flush := e.send(ctx, [][]*request{{e.ingestRequest(0, 0)}}, time.Now(), false)[0]
	rep.Attempted++
	if !flush.ok() {
		rep.fail("drain ingest: status %d: %v", flush.status, flush.err)
	} else {
		e.acked = append(e.acked, ackRec{objName(0), flush.req.t})
	}
	maxTarget := 0
	for _, a := range acks {
		maxTarget = max(maxTarget, a.target)
	}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		st, err := e.status(ctx, e.clients[0])
		if err != nil {
			return fmt.Errorf("status during drain: %w", err)
		}
		gens = append(gens, genObs{time.Now(), st.Generation})
		if st.Generation >= maxTarget {
			break
		}
	}
	sort.Slice(gens, func(a, b int) bool { return gens[a].at.Before(gens[b].at) })
	var fresh []float64
	for _, a := range acks {
		i := sort.Search(len(gens), func(i int) bool { return !gens[i].at.Before(a.at) })
		for i < len(gens) && gens[i].gen < a.target {
			i++
		}
		if i == len(gens) {
			rep.fail("fresh: generation %d never served", a.target)
			fresh = append(fresh, math.Inf(1))
			continue
		}
		fresh = append(fresh, ms(gens[i].at.Sub(a.at)))
	}

	rep.E2E["score_p50_ms"] = quantile(lat[routeScore], 0.5)
	rep.E2E["predict_p50_ms"] = quantile(lat[routePredict], 0.5)
	// The read tails are per-layer metrics: they hang on a few dozen
	// requests that met a GC cycle or a re-mine burst, and moved by 0.4
	// of their median from seed to seed.
	rep.Layer["serve.score_p99_ms"] = quantile(lat[routeScore], 0.99)
	rep.Layer["serve.predict_p99_ms"] = quantile(lat[routePredict], 0.99)
	// Ingest acknowledgement latency is a per-layer metric: with the
	// re-mine loop busy about as long as it is idle, its median falls
	// between the two modes and moved by half from seed to seed.
	rep.Layer["ingest.ack_p50_ms"] = quantile(lat[routeIngest], 0.5)
	rep.Layer["ingest.ack_p90_ms"] = quantile(lat[routeIngest], 0.9)
	rep.E2E["fresh_p50_ms"] = quantile(fresh, 0.5)
	rep.E2E["fresh_p90_ms"] = quantile(fresh, 0.9)
	for _, route := range []string{routeScore, routePredict, routeIngest} {
		rep.note("%s: %d requests, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms", route, len(lat[route]),
			quantile(lat[route], 0.5), quantile(lat[route], 0.9), quantile(lat[route], 0.99))
	}
	rep.note("freshness: %d acknowledged reports, p50 %.1f ms, p90 %.1f ms", len(fresh), quantile(fresh, 0.5), quantile(fresh, 0.9))
	lateP99 := quantile(late, 0.99)
	if lateP99 > ms(in.LateBound) {
		rep.Invalid = fmt.Sprintf("open-loop generator ran %.1f ms late at p99, above the %v bound", lateP99, in.LateBound)
	}

	if o.Trace {
		rep.Layer["ingest.max_rps"] = e.saturate(ctx, rep)
		if err := e.serveLayers(ctx, rep, gens, lastMine, lateP99); err != nil {
			return err
		}
	}
	if err := e.shutdown(); err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	return e.checkReplay(rep, o.Trace)
}

// checkResponse checks one successful response: score NMs equal the
// in-process scorer's bit for bit, predictions are finite, mine answers
// come from a generation and carry patterns (which it records, with the
// generation observed).
func (e *serveEnv) checkResponse(r outcome, mix *workloadMix, lastMine *[]core.Pattern, gens *[]genObs) error {
	switch r.req.route {
	case routeScore:
		var resp serve.ScoreResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return err
		}
		return checkScores(resp, r.req.pats, mix)
	case routePredict:
		var resp serve.PredictResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return err
		}
		if !finite(resp.Next.X) || !finite(resp.Next.Y) {
			return fmt.Errorf("prediction (%v, %v) is not finite", resp.Next.X, resp.Next.Y)
		}
	case routeStatus:
		var st statusBody
		if err := json.Unmarshal(r.body, &st); err != nil {
			return err
		}
		*gens = append(*gens, genObs{r.done, st.Generation})
	case routeMine:
		var resp serve.MineResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return err
		}
		if resp.Generation < 1 || len(resp.Patterns) == 0 {
			return fmt.Errorf("answer from generation %d with %d patterns", resp.Generation, len(resp.Patterns))
		}
		*gens = append(*gens, genObs{r.done, resp.Generation})
		*lastMine = (*lastMine)[:0]
		for _, p := range resp.Patterns {
			*lastMine = append(*lastMine, core.Pattern(p.Cells))
		}
	}
	return nil
}

// checkScores compares a /v1/score answer with the in-process NMs of the
// requested pool patterns, bit for bit.
func checkScores(resp serve.ScoreResponse, idx []int, mix *workloadMix) error {
	if len(resp.Scores) != len(idx) {
		return fmt.Errorf("%d scores for %d patterns", len(resp.Scores), len(idx))
	}
	for i, k := range idx {
		if math.Float64bits(resp.Scores[i].NM) != math.Float64bits(mix.nm[k]) {
			return fmt.Errorf("pattern %v: served NM %v, Scorer.NM %v", mix.pool[k], resp.Scores[i].NM, mix.nm[k])
		}
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// saturate measures the highest ingest rate the server sustains: bursts
// of reports issued back to back over every sender's connection (a closed
// loop, so no backlog can build and latency stays bounded by the
// connection count). The rate is the median over bursts of reports
// acknowledged per second.
func (e *serveEnv) saturate(ctx context.Context, rep *report) float64 {
	in := e.in
	var rates []float64
	for b := 0; b < in.Bursts; b++ {
		var reqs []*request
		for i := 0; i < in.BurstSize; i++ {
			reqs = append(reqs, e.ingestRequest(i%in.Objects, 0))
		}
		sp := rep.spans.begin("serve-ingest.saturate", 0, 4000+b)
		start := time.Now()
		res := e.send(ctx, split(reqs, len(e.clients)), start, false)
		elapsed := time.Since(start)
		rep.spans.end(sp)
		var service []float64
		for _, r := range res {
			rep.Attempted++
			if !r.ok() {
				rep.fail("saturated ingest: status %d: %v", r.status, r.err)
				continue
			}
			e.acked = append(e.acked, ackRec{objName(r.req.obj), r.req.t})
			service = append(service, ms(r.done.Sub(r.sent)))
		}
		rate := float64(len(service)) / elapsed.Seconds()
		rep.note("ingest burst %d: %.0f reports/s, service p50 %.2f ms, p99 %.2f ms",
			b, rate, quantile(service, 0.5), quantile(service, 0.99))
		rates = append(rates, rate)
	}
	return median(rates)
}

// checkReplay reopens the run's WAL the way a restarted server does and
// requires every acknowledged report to be in the rebuilt windows.
func (e *serveEnv) checkReplay(rep *report, traced bool) error {
	start := time.Now()
	p, err := ingest.Open(ingest.Config{
		WAL:    ingest.WALConfig{Dir: e.walDir},
		Limits: ingest.WindowLimits{MaxRecords: ingestWindow},
	})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	replay := time.Since(start).Seconds()
	snap := p.WindowSnapshot()
	if err := p.Close(); err != nil {
		return fmt.Errorf("replay close: %w", err)
	}
	missing := missingAcks(e.acked, snap)
	for _, a := range missing {
		rep.fail("acknowledged report %s@%v missing from the replayed WAL", a.obj, a.t)
	}
	if traced {
		rep.Layer["ingest.replay_s"] = replay
		rep.Layer["traj.sync_ms"] = syncWindows(snap)
	}
	return nil
}

// missingAcks returns the acknowledged reports absent from the windows.
func missingAcks(acked []ackRec, snap []ingest.ObjectWindow) []ackRec {
	have := make(map[ackRec]bool)
	for _, ow := range snap {
		for _, r := range ow.Records {
			have[ackRec{ow.Obj, r.Time}] = true
		}
	}
	var out []ackRec
	for _, a := range acked {
		if !have[a] {
			out = append(out, a)
		}
	}
	return out
}

// syncWindows times traj.Synchronize over every window the way the
// re-mining loop superimposes them, median of several passes, in ms.
func syncWindows(snap []ingest.ObjectWindow) float64 {
	end := math.Inf(-1)
	for _, ow := range snap {
		if n := len(ow.Records); n > 0 {
			end = max(end, ow.Records[n-1].Time)
		}
	}
	cfg := remineSync
	cfg.Start = end - cfg.Interval*float64(cfg.Count-1)
	var times []float64
	for pass := 0; pass < 5; pass++ {
		start := time.Now()
		for _, ow := range snap {
			reports := make([]traj.Report, len(ow.Records))
			for i, r := range ow.Records {
				reports[i] = traj.Report{Time: r.Time, Loc: geom.Pt(r.X, r.Y)}
			}
			if _, err := traj.Synchronize(reports, cfg); err != nil {
				return math.NaN()
			}
		}
		times = append(times, ms(time.Since(start)))
	}
	return median(times)
}

// serveLayers reads the server's own instrumentation from
// /metrics?format=json and derives the serve, ingest, re-mine, predict and
// generator metrics.
func (e *serveEnv) serveLayers(ctx context.Context, rep *report, gens []genObs, served []core.Pattern, lateP99 float64) error {
	code, b, err := e.do(ctx, e.clients[0], http.MethodGet, "/metrics?format=json", nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("/metrics: status %d: %v", code, err)
	}
	var mr struct {
		Metrics struct {
			Counters   map[string]int64             `json:"counters"`
			Histograms map[string]obs.HistogramStat `json:"histograms"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(b, &mr); err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	c, h := mr.Metrics.Counters, mr.Metrics.Histograms
	L := rep.Layer
	L["serve.queue_wait_p99_ms"] = 1e3 * histQuantile(h["serve.queue.wait"], 0.99)
	L["serve.score_server_p50_ms"] = 1e3 * histQuantile(h["serve.latency"+routeScore], 0.5)
	L["serve.shed"] = float64(c["serve.shed"])
	L["ingest.commit_p50_ms"] = 1e3 * histQuantile(h["ingest.commit"], 0.5)
	L["ingest.commit_p99_ms"] = 1e3 * histQuantile(h["ingest.commit"], 0.99)
	L["ingest.records_per_batch"] = float64(c["ingest.accepted"]) / float64(c["ingest.batches"])
	L["ingest.shed"] = float64(c["ingest.shed.overload"])
	L["remine.generations"] = float64(c["serve.ingest.generations"])
	L["gen.late_p99_ms"] = lateP99

	// Generation step interval: time between first sightings of
	// consecutive generations during the steady phase.
	var steps []float64
	var seen genObs
	for _, g := range gens {
		if g.gen > seen.gen {
			if g.gen == seen.gen+1 && !seen.at.IsZero() {
				steps = append(steps, ms(g.at.Sub(seen.at)))
			}
			seen = g
		}
	}
	L["remine.generation_ms"] = median(steps)

	// One predictor step as /v1/predict takes it, minus HTTP: 8 observed
	// points and a prediction over the served patterns.
	pp := &predict.PatternPredictor{
		Base: predict.NewLinear(), Patterns: served, Mode: predict.LocationPatterns,
		Grid: e.grid, Delta: e.grid.CellWidth(), Sigma: e.readDS.MeanSigma(),
	}
	if err := pp.Validate(); err != nil {
		return err
	}
	var steps2 []float64
	for i := 0; i < 2000; i++ {
		tr := e.readDS[i%len(e.readDS)]
		j := i % (len(tr) - e.in.History + 1)
		start := time.Now()
		pp.Reset()
		for _, pt := range tr[j : j+e.in.History] {
			pp.Observe(pt.Mean)
		}
		next := pp.Predict()
		steps2 = append(steps2, float64(time.Since(start))/1e3)
		if !finite(next.X) || !finite(next.Y) {
			return fmt.Errorf("predictor returned (%v, %v)", next.X, next.Y)
		}
	}
	L["predict.step_us"] = median(steps2)
	return nil
}

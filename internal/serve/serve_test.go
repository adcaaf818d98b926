package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"trajpattern/internal/cli"
	"trajpattern/internal/core"
	"trajpattern/internal/datagen"
	"trajpattern/internal/obs"
	"trajpattern/internal/obs/slogx"
	"trajpattern/internal/testutil/jsonlog"
	"trajpattern/internal/traj"
)

// testDataset is a tiny corpus with an unmistakable repeated route, so
// mining finds real patterns fast.
func testDataset() traj.Dataset {
	var ds traj.Dataset
	for i := 0; i < 6; i++ {
		off := float64(i) * 0.001
		ds = append(ds, traj.Trajectory{
			traj.P(0.1+off, 0.1, 0.02),
			traj.P(0.3+off, 0.3, 0.02),
			traj.P(0.5+off, 0.5, 0.02),
			traj.P(0.7+off, 0.7, 0.02),
			traj.P(0.9+off, 0.9, 0.02),
		})
	}
	return ds
}

func newTestServer(t *testing.T, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{Dataset: testDataset(), GridN: 6, Metrics: obs.New()}
	if mut != nil {
		mut(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	return v
}

func TestNewServerRejectsBadConfig(t *testing.T) {
	if _, err := NewServer(Config{}); err == nil {
		t.Error("empty dataset accepted")
	}
	// A bad grid dimension must fail at construction, not at request
	// time, via the scorer's typed validation.
	_, err := NewServer(Config{Dataset: testDataset(), GridN: -3})
	if err == nil {
		t.Error("negative grid accepted")
	}
}

func TestScoreEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp := postJSON(t, ts.URL+"/v1/score", ScoreRequest{Patterns: [][]int{{0}, {1, 2}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decode[ScoreResponse](t, resp)
	if len(out.Scores) != 2 {
		t.Fatalf("scores = %d, want 2", len(out.Scores))
	}
	// NM is a normalized measure in [0, 1] up to float rounding.
	if out.Scores[0].NM < -1e-9 || out.Scores[0].NM > 1+1e-9 {
		t.Errorf("NM out of range: %v", out.Scores[0].NM)
	}
}

func TestScoreRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name string
		body string
	}{
		{"empty body", ``},
		{"not json", `{{{`},
		{"no patterns", `{"patterns":[]}`},
		{"empty pattern", `{"patterns":[[]]}`},
		{"cell out of range", `{"patterns":[[999999]]}`},
		{"negative cell", `{"patterns":[[-1]]}`},
		{"unknown field", `{"patternz":[[1]]}`},
		{"trailing garbage", `{"patterns":[[1]]} extra`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/score", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			eb := decode[errorBody](t, resp)
			if eb.Error.Code == "" {
				t.Error("error envelope missing code")
			}
		})
	}
}

func TestMineEndpointAndPredict(t *testing.T) {
	s, ts := newTestServer(t, nil)

	// Predict before any patterns exist: 409, not 500.
	resp := postJSON(t, ts.URL+"/v1/predict", PredictRequest{
		History: []PointJSON{{X: 0.1, Y: 0.1}, {X: 0.3, Y: 0.3}, {X: 0.5, Y: 0.5}},
	})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("predict without patterns: status = %d, want 409", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/mine", MineRequest{K: 5, MaxLen: 4})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("mine status = %d: %s", resp.StatusCode, body)
	}
	mined := decode[MineResponse](t, resp)
	if len(mined.Patterns) == 0 {
		t.Fatal("mine returned no patterns")
	}
	if mined.Degraded {
		t.Errorf("unbounded mine on tiny data reported degraded: %s", mined.InterruptReason)
	}
	if len(s.Patterns()) == 0 {
		t.Fatal("mined patterns not installed for predict")
	}

	resp = postJSON(t, ts.URL+"/v1/predict", PredictRequest{
		History: []PointJSON{{X: 0.1, Y: 0.1}, {X: 0.3, Y: 0.3}, {X: 0.5, Y: 0.5}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status = %d", resp.StatusCode)
	}
	pred := decode[PredictResponse](t, resp)
	// The route moves up-right; any sane prediction continues that way.
	if pred.Next.X <= 0.5 || pred.Next.Y <= 0.5 {
		t.Errorf("prediction %+v does not continue the route", pred.Next)
	}
}

func TestMineRejectsBadConfig(t *testing.T) {
	_, ts := newTestServer(t, nil)
	// A min_len above the default max_len (24) is as bad as one above an
	// explicit max_len. A negative min_len or max_wall_ms is refused, not
	// read as 1 or as no budget.
	for _, tc := range []struct {
		req  MineRequest
		code string
	}{
		{MineRequest{K: -1}, "bad_config"},
		{MineRequest{K: 5, MinLen: core.DefaultMaxLen + 1}, "bad_config"},
		{MineRequest{K: 3, MinLen: -2}, "bad_config"},
		{MineRequest{K: 3, MaxWallMS: -5}, "bad_request"},
	} {
		resp := postJSON(t, ts.URL+"/v1/mine", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: status = %d, want 400", tc.req, resp.StatusCode)
			continue
		}
		eb := decode[errorBody](t, resp)
		if eb.Error.Code != tc.code {
			t.Errorf("%+v: code = %q, want %s", tc.req, eb.Error.Code, tc.code)
		}
	}
}

// TestMineWallTimeDegrades: /v1/mine mines under the route deadline.
// Admission's fast path admits without looking at the context, so a
// nanosecond deadline starts the mine expired, and the answer is a 200
// flagged degraded with the deadline as its reason.
func TestMineWallTimeDegrades(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Deadline = time.Nanosecond
	})
	resp := postJSON(t, ts.URL+"/v1/mine", MineRequest{K: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded mine status = %d, want 200", resp.StatusCode)
	}
	mined := decode[MineResponse](t, resp)
	if !mined.Degraded {
		t.Fatal("nanosecond deadline did not degrade the answer")
	}
	if !strings.Contains(mined.InterruptReason, "deadline") {
		t.Errorf("degraded answer's reason %q does not name the deadline", mined.InterruptReason)
	}
}

func TestHealthAndReady(t *testing.T) {
	s, ts := newTestServer(t, nil)
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, resp.StatusCode)
		}
	}
	s.Admission().StartDrain()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining readyz missing Retry-After")
	}
	// Liveness is a different question: still 200.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining = %d, want 200", resp2.StatusCode)
	}
}

func TestDrainingEndpointsReturn503(t *testing.T) {
	s, ts := newTestServer(t, nil)
	resp := postJSON(t, ts.URL+"/v1/score", ScoreRequest{Patterns: [][]int{{0}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain score = %d", resp.StatusCode)
	}
	s.Admission().StartDrain()
	resp = postJSON(t, ts.URL+"/v1/score", ScoreRequest{Patterns: [][]int{{0}}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining score = %d, want 503", resp.StatusCode)
	}
	eb := decode[errorBody](t, resp)
	if eb.Error.Code != "draining" {
		t.Errorf("code = %q, want draining", eb.Error.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining response missing Retry-After")
	}
}

func TestOverloadSheds429(t *testing.T) {
	// Capacity 1, queue 1: occupy the slot and the queue directly via
	// the admission controller, then the next HTTP request must be shed
	// with 429 + Retry-After.
	s, ts := newTestServer(t, func(c *Config) {
		c.Capacity = 1
		c.MaxQueue = 1
	})
	release, err := s.Admission().Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	queued := make(chan error, 1)
	qctx, qcancel := context.WithCancel(context.Background())
	defer qcancel()
	go func() {
		r, err := s.Admission().Acquire(qctx, 1)
		if err == nil {
			r()
		}
		queued <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Admission().Queued() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	resp := postJSON(t, ts.URL+"/v1/score", ScoreRequest{Patterns: [][]int{{0}}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded score = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	eb := decode[errorBody](t, resp)
	if eb.Error.Code != "overloaded" {
		t.Errorf("code = %q, want overloaded", eb.Error.Code)
	}
	qcancel()
	<-queued
}

func TestPanicIsolation(t *testing.T) {
	// A request that panics the scorer must come back as a typed 500
	// and leave the server serving.
	reg := obs.New()
	var logBuf bytes.Buffer
	logger := slogx.New(slogx.Options{Format: "json", W: &logBuf, OmitTime: true})
	s, err := NewServer(Config{Dataset: testDataset(), GridN: 6, Metrics: reg, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	// Wrap the handler with a route that panics, sharing the server's
	// middleware assembly.
	h := s.guarded("/v1/boom", 1, func(w http.ResponseWriter, r *http.Request) {
		panic("poisoned request")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/boom", strings.NewReader("{}")))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking route = %d, want 500", rec.Code)
	}
	// A scoring-pool panic reaches the wire through writeScoreError; the
	// HTTP routes reject every input that could trigger one, so hand it
	// the typed error directly.
	rec = httptest.NewRecorder()
	s.writeScoreError(rec, httptest.NewRequest(http.MethodPost, "/v1/score", nil),
		&core.ScorePanicError{Index: 1, Value: "poisoned pattern", Stack: "goroutine 7 [running]:"})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("scoring panic = %d, want 500", rec.Code)
	}
	// Every line is one JSON record: the handler panic, its request,
	// then the scoring panic, each panic at error level with its stack.
	recs := jsonlog.Records(t, logBuf.String())
	if len(recs) != 3 {
		t.Fatalf("logged %d records, want 3:\n%s", len(recs), logBuf.String())
	}
	for i, want := range map[int]string{0: "poisoned request", 2: "poisoned pattern"} {
		r := recs[i]
		if r["level"] != "ERROR" || !strings.Contains(fmt.Sprint(r["error"]), want) {
			t.Errorf("record %d = %v, want an error naming %q", i, r, want)
		}
		if stack, _ := r["stack"].(string); !strings.Contains(stack, "goroutine") {
			t.Errorf("record %d carries no stack: %v", i, r)
		}
	}
	snap := reg.Snapshot()
	if snap.Counter("serve.panics") != 2 {
		t.Errorf("serve.panics = %d, want 2", snap.Counter("serve.panics"))
	}
	if snap.Counter("serve.status.5xx") != 1 {
		t.Errorf("serve.status.5xx = %d, want 1", snap.Counter("serve.status.5xx"))
	}
}

func TestMetricsRecorded(t *testing.T) {
	reg := obs.New()
	_, ts := newTestServer(t, func(c *Config) { c.Metrics = reg })
	resp := postJSON(t, ts.URL+"/v1/score", ScoreRequest{Patterns: [][]int{{0}}})
	io.Copy(io.Discard, resp.Body)
	snap := reg.Snapshot()
	if snap.Counter("serve.requests/v1/score") != 1 {
		t.Errorf("request counter = %d, want 1", snap.Counter("serve.requests/v1/score"))
	}
	if snap.Counter("serve.status.2xx") != 1 {
		t.Errorf("2xx counter = %d, want 1", snap.Counter("serve.status.2xx"))
	}
}

// TestMineRoutesSearchAlike pins that every mining route searches an
// instance the same way: the CLI at trajmine's -minlen 1, and /v1/mine
// and a bare core.Mine given only K and MaxLen, resolve the miner's
// defaults in one place, so they return the same top-k, the same NM bits
// and the same amount of work.
func TestMineRoutesSearchAlike(t *testing.T) {
	const gridN, k, maxLen = 8, 6, 4
	ds, err := datagen.ZebraDataset(datagen.ZebraConfig{NumZebras: 24, AvgLen: 16, Seed: 3}, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	g := cli.FitGrid(ds, gridN)
	sc, err := core.NewScorer(ds, core.Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Mine(ctx, sc, core.MinerConfig{K: k, MaxLen: maxLen})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "pats.json")
	var out bytes.Buffer
	if _, err := cli.Mine(ctx, &out, ds, cli.MineOptions{
		K: k, GridN: gridN, MinLen: 1, MaxLen: maxLen, DeltaMul: 1, Measure: "nm", SavePath: path,
	}); err != nil {
		t.Fatal(err)
	}
	cliPats, err := core.LoadPatterns(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	var cliIters, cliCands int
	report := out.String()
	if i := strings.Index(report, "TrajPattern:"); i < 0 {
		t.Fatalf("no miner summary in the CLI report:\n%s", report)
	} else if _, err := fmt.Sscanf(report[i:], "TrajPattern: %d iterations, %d candidates", &cliIters, &cliCands); err != nil {
		t.Fatalf("parse the CLI's miner summary: %v", err)
	}

	_, ts := newTestServer(t, func(c *Config) { c.Dataset = ds; c.GridN = gridN })
	resp := postJSON(t, ts.URL+"/v1/mine", MineRequest{K: k, MaxLen: maxLen})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("/v1/mine status = %d: %s", resp.StatusCode, body)
	}
	mined := decode[MineResponse](t, resp)
	var httpPats []core.ScoredPattern
	for _, p := range mined.Patterns {
		httpPats = append(httpPats, core.ScoredPattern{Pattern: p.Cells, NM: p.NM})
	}

	for _, route := range []struct {
		name         string
		iters, cands int
		pats         []core.ScoredPattern
	}{
		{"cli.Mine", cliIters, cliCands, cliPats},
		{"/v1/mine", mined.Iterations, mined.Candidates, httpPats},
	} {
		if route.iters != want.Stats.Iterations || route.cands != want.Stats.Candidates {
			t.Errorf("%s: %d iterations, %d candidates; core.Mine %d, %d",
				route.name, route.iters, route.cands, want.Stats.Iterations, want.Stats.Candidates)
		}
		if len(route.pats) != len(want.Patterns) {
			t.Fatalf("%s: %d patterns, core.Mine %d", route.name, len(route.pats), len(want.Patterns))
		}
		for i, sp := range route.pats {
			w := want.Patterns[i]
			if sp.Pattern.Key() != w.Pattern.Key() || math.Float64bits(sp.NM) != math.Float64bits(w.NM) {
				t.Errorf("%s rank %d: (%s, %v), core.Mine (%s, %v)",
					route.name, i, sp.Pattern.Key(), sp.NM, w.Pattern.Key(), w.NM)
			}
		}
	}
}

// TestMineWeightClampedToCapacity: the default mine weight 4 exceeds a
// capacity of 2, so without the clamp every /v1/mine would be shed.
func TestMineWeightClampedToCapacity(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Capacity = 2 })
	resp := postJSON(t, ts.URL+"/v1/mine", MineRequest{K: 3, MaxLen: 3})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("mine on a capacity-2 server: status = %d: %s", resp.StatusCode, body)
	}
}

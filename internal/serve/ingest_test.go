package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"trajpattern/internal/core"
	"trajpattern/internal/obs"
	"trajpattern/internal/testutil/leakcheck"
)

// newIngestServer builds an ingest-enabled test server with its pipeline
// started and stopped around the test.
func newIngestServer(t *testing.T, walDir string, mut func(*Config)) (*Server, string) {
	t.Helper()
	s, ts := newTestServer(t, func(cfg *Config) {
		cfg.IngestWALDir = walDir
		cfg.IngestSyncCount = 8
		if mut != nil {
			mut(cfg)
		}
	})
	if err := s.StartIngest(); err != nil {
		t.Fatalf("start ingest: %v", err)
	}
	t.Cleanup(func() {
		if err := s.StopIngest(); err != nil {
			t.Errorf("stop ingest: %v", err)
		}
	})
	return s, ts.URL
}

func ingestReport(t *testing.T, url, obj string, tm, x, y float64) *http.Response {
	t.Helper()
	return postJSON(t, url+"/v1/ingest", IngestRequest{Obj: obj, Time: tm, X: x, Y: y})
}

func TestIngestEndpointDurableAck(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	_, url := newIngestServer(t, t.TempDir(), nil)
	for i := 1; i <= 3; i++ {
		resp := ingestReport(t, url, "zebra-1", float64(i), float64(i)*0.1, 0.5)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d status = %d", i, resp.StatusCode)
		}
		if body := decode[IngestResponse](t, resp); !body.Durable {
			t.Fatalf("ingest %d not acknowledged durable", i)
		}
	}
	resp, err := http.Get(url + "/v1/ingest/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	st := decode[ingestStatusBody](t, resp)
	if !st.Enabled || !st.Ready || st.Stats == nil || st.Stats.LastSeq != 3 || st.Stats.Records != 3 {
		t.Fatalf("status = %+v", st)
	}
}

func TestIngestEndpointTypedRejections(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	_, url := newIngestServer(t, t.TempDir(), nil)
	cases := []struct {
		name   string
		req    IngestRequest
		status int
		code   string
	}{
		{"empty obj", IngestRequest{Obj: "", Time: 1}, http.StatusBadRequest, "invalid_report"},
		{"ok", IngestRequest{Obj: "z", Time: 5, X: 1, Y: 1}, http.StatusOK, ""},
		{"stale time", IngestRequest{Obj: "z", Time: 5, X: 1, Y: 1}, http.StatusBadRequest, "out_of_order"},
		{"other object unaffected", IngestRequest{Obj: "y", Time: 1}, http.StatusOK, ""},
	}
	for _, tc := range cases {
		resp := postJSON(t, url+"/v1/ingest", tc.req)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if tc.code != "" {
			body := decode[errorBody](t, resp)
			if body.Error.Code != tc.code {
				t.Fatalf("%s: code = %q, want %q", tc.name, body.Error.Code, tc.code)
			}
		}
	}
	// A body with unknown fields is rejected before it can half-parse.
	resp, err := http.Post(url+"/v1/ingest", "application/json",
		strings.NewReader(`{"obj":"z","time":6,"x":1,"y":1,"bogus":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field body status = %d, want 400", resp.StatusCode)
	}
}

// TestIngestReplayAcrossRestart: WAL replay is the server's one recovery
// path. A second server over the same WAL dir rebuilds identical windows,
// and its first re-mine generation equals the one the first server served
// over them, keys, NM bits and search work alike. The re-mine loop writes
// nothing beside the WAL segments, and a stray remine.ckpt (an older
// binary wrote one per generation) changes neither replay nor the mine.
func TestIngestReplayAcrossRestart(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	dir := t.TempDir()
	const records = 36
	var before []string
	var want ingestGeneration
	var scorer *core.Scorer
	{
		s, url := newIngestServer(t, dir, nil)
		for i := 0; i < records/3; i++ {
			for obj := 0; obj < 3; obj++ {
				resp := ingestReport(t, url, fmt.Sprintf("obj-%d", obj),
					float64(i), 0.08*float64(i)+0.01*float64(obj), 0.05*float64(i%6))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("ingest status = %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}
		want = waitGeneration(t, s, records)
		if len(want.Patterns) == 0 {
			t.Fatal("the generation over the full windows mined no patterns")
		}
		snap := s.ingestPipe.WindowSnapshot()
		for _, ow := range snap {
			before = append(before, fmt.Sprintf("%+v", ow))
		}
		var err error
		if scorer, err = core.NewScorer(s.windowsToDataset(snap), core.Config{Grid: s.grid, Delta: s.delta}); err != nil {
			t.Fatal(err)
		}
		if err := s.StopIngest(); err != nil {
			t.Fatalf("stop: %v", err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if ok, _ := filepath.Match("wal-*.seg", e.Name()); !ok {
			t.Errorf("WAL dir holds %s beside the log segments", e.Name())
		}
	}

	// restart replays dir into a new server and checks its windows and
	// its first generation against the first server's.
	restart := func(name string) (*Server, string) {
		t.Helper()
		s, url := newIngestServer(t, dir, nil)
		var after []string
		for _, ow := range s.ingestPipe.WindowSnapshot() {
			after = append(after, fmt.Sprintf("%+v", ow))
		}
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: replayed windows differ:\nbefore %v\nafter  %v", name, before, after)
		}
		if st := s.ingestPipe.Stats(); st.Replayed != records {
			t.Fatalf("%s: Replayed = %d, want %d", name, st.Replayed, records)
		}
		got := waitGeneration(t, s, records)
		if got.Generation != 1 || got.Iterations != want.Iterations || got.Candidates != want.Candidates {
			t.Errorf("%s: generation %d took %d iterations, %d candidates; before the restart %d, %d",
				name, got.Generation, got.Iterations, got.Candidates, want.Iterations, want.Candidates)
		}
		if len(got.Patterns) != len(want.Patterns) {
			t.Fatalf("%s: %d patterns, before the restart %d", name, len(got.Patterns), len(want.Patterns))
		}
		for i, w := range want.Patterns {
			if p := got.Patterns[i]; p.Pattern.Key() != w.Pattern.Key() || math.Float64bits(p.NM) != math.Float64bits(w.NM) {
				t.Errorf("%s rank %d: (%s, %v), before the restart (%s, %v)",
					name, i, p.Pattern.Key(), p.NM, w.Pattern.Key(), w.NM)
			}
		}
		return s, url
	}
	s2, _ := restart("restart")
	if err := s2.StopIngest(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	// A mid-run checkpoint of the same windows, as an older binary left
	// one after a crash mid-mine.
	mcfg := core.MinerConfig{K: DefaultIngestMineK, MaxIters: 2, CheckpointPath: filepath.Join(dir, "remine.ckpt")}
	if _, err := core.Mine(context.Background(), scorer, mcfg); err != nil {
		t.Fatal(err)
	}
	_, url3 := restart("restart beside a stray remine.ckpt")
	// Ingest continues where the log left off.
	resp := ingestReport(t, url3, "obj-0", 100, 1, 1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-replay ingest status = %d", resp.StatusCode)
	}
}

func TestReadyzGatesOnIngestReplay(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	s, ts := newTestServer(t, func(cfg *Config) {
		cfg.IngestWALDir = t.TempDir()
	})
	// Before StartIngest the server is listening but not ready: probes
	// see 503 "replaying", never connection-refused.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before replay = %d, want 503", resp.StatusCode)
	}
	body := decode[map[string]any](t, resp)
	resp.Body.Close()
	if body["reason"] != "replaying" {
		t.Fatalf("reason = %v, want replaying", body["reason"])
	}
	// Ingest itself also refuses while replaying.
	ir := ingestReport(t, ts.URL, "z", 1, 0, 0)
	if ir.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest before replay = %d, want 503", ir.StatusCode)
	}
	if err := s.StartIngest(); err != nil {
		t.Fatal(err)
	}
	defer s.StopIngest() //nolint:errcheck // test teardown
	resp2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("readyz after replay = %d, want 200", resp2.StatusCode)
	}
}

func TestMineServesLatestGeneration(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	reg := obs.New()
	s, url := newIngestServer(t, t.TempDir(), func(cfg *Config) {
		cfg.Metrics = reg
	})
	feedTwoObjects(t, url)
	waitGeneration(t, s, 1)
	resp := postJSON(t, url+"/v1/mine", MineRequest{K: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mine status = %d", resp.StatusCode)
	}
	mr := decode[MineResponse](t, resp)
	if mr.Generation < 1 {
		t.Fatalf("mine served generation %d, want >= 1 (from the re-mine loop)", mr.Generation)
	}
	// Predict serves the generation's patterns without an explicit mine.
	pr := postJSON(t, url+"/v1/predict", PredictRequest{History: []PointJSON{{0.1, 0.1}, {0.2, 0.2}}})
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("predict status = %d (generation patterns not installed?)", pr.StatusCode)
	}
	if reg.Snapshot().Counters["serve.ingest.generations"] == 0 {
		t.Fatal("generation counter never incremented")
	}
}

// TestMineOnGenerationValidatesAndCutsToK checks that /v1/mine on an
// ingest server rejects a bad request as the on-demand path does, before
// serving a generation, and serves at most k of the generation's
// patterns, best first.
func TestMineOnGenerationValidatesAndCutsToK(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	s, url := newIngestServer(t, t.TempDir(), nil)
	feedTwoObjects(t, url)
	gen := waitGeneration(t, s, 24)
	for _, req := range []MineRequest{{K: -1}, {K: 0}, {K: 3, MinLen: 5, MaxLen: 2}} {
		resp := postJSON(t, url+"/v1/mine", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400", req, resp.StatusCode)
		} else if eb := decode[errorBody](t, resp); eb.Error.Code != "bad_config" {
			t.Errorf("%+v: code %q, want bad_config", req, eb.Error.Code)
		}
		resp.Body.Close()
	}
	if len(gen.Patterns) <= 3 {
		t.Fatalf("generation holds %d patterns, want more than 3", len(gen.Patterns))
	}
	resp := postJSON(t, url+"/v1/mine", MineRequest{K: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mine status = %d", resp.StatusCode)
	}
	mr := decode[MineResponse](t, resp)
	resp.Body.Close()
	if len(mr.Patterns) != 3 {
		t.Fatalf("k=3 served %d patterns", len(mr.Patterns))
	}
	for i, p := range mr.Patterns {
		w := gen.Patterns[i]
		if core.Pattern(p.Cells).Key() != w.Pattern.Key() || math.Float64bits(p.NM) != math.Float64bits(w.NM) {
			t.Errorf("rank %d: (%v, %v), generation has (%s, %v)", i, p.Cells, p.NM, w.Pattern.Key(), w.NM)
		}
	}
}

// TestMineOnIngestServerRefusesOtherProblems checks that /v1/mine on an
// ingest server answers only the problem its re-mining loop solves (top
// DefaultIngestMineK, every length up to DefaultMaxLen): other k, min_len
// and max_len values get 400 ingest_fixed_problem, before the first
// generation and after it. The loop's own problem gets 503 no_generation
// with Retry-After until the first generation exists, never a mine of the
// server's -in dataset, and 200 after it.
func TestMineOnIngestServerRefusesOtherProblems(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	s, url := newIngestServer(t, t.TempDir(), nil)
	check := func(when string, want int) {
		t.Helper()
		for _, req := range []MineRequest{
			{K: DefaultIngestMineK + 1},
			{K: DefaultIngestMineK, MinLen: 3},
			{K: 2, MinLen: 2},
			{K: DefaultIngestMineK, MaxLen: 5},
		} {
			resp := postJSON(t, url+"/v1/mine", req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s, %+v: status %d, want 400", when, req, resp.StatusCode)
			} else if eb := decode[errorBody](t, resp); eb.Error.Code != "ingest_fixed_problem" {
				t.Errorf("%s, %+v: code %q, want ingest_fixed_problem", when, req, eb.Error.Code)
			}
		}
		for _, req := range []MineRequest{
			{K: DefaultIngestMineK},
			{K: 1, MinLen: 1, MaxLen: core.DefaultMaxLen},
		} {
			resp := postJSON(t, url+"/v1/mine", req)
			if resp.StatusCode != want {
				t.Errorf("%s, %+v: status %d, want %d", when, req, resp.StatusCode, want)
			} else if want == http.StatusServiceUnavailable {
				if resp.Header.Get("Retry-After") == "" {
					t.Errorf("%s, %+v: 503 without Retry-After", when, req)
				}
				if eb := decode[errorBody](t, resp); eb.Error.Code != "no_generation" {
					t.Errorf("%s, %+v: code %q, want no_generation", when, req, eb.Error.Code)
				}
			}
		}
	}
	check("before the first generation", http.StatusServiceUnavailable)
	feedTwoObjects(t, url)
	waitGeneration(t, s, 24)
	check("after a generation", http.StatusOK)
}

// TestGenerationMinesOnServerGrid checks that each generation is mined on
// the server's own grid and δ: every served pattern's NM equals
// Scorer.NM over the same windows on that grid, bit for bit. The ingested
// reports span a wider box than the served dataset, so a grid fitted to
// the windows would differ.
func TestGenerationMinesOnServerGrid(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	s, url := newIngestServer(t, t.TempDir(), nil)
	feedTwoObjects(t, url)
	gen := waitGeneration(t, s, 24)
	if len(gen.Patterns) == 0 {
		t.Fatal("the generation mined no patterns")
	}
	sc, err := core.NewScorer(s.windowsToDataset(s.ingestPipe.WindowSnapshot()), core.Config{Grid: s.grid, Delta: s.delta})
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range gen.Patterns {
		if want := sc.NM(sp.Pattern); math.Float64bits(sp.NM) != math.Float64bits(want) {
			t.Errorf("rank %d %s: served NM %v, Scorer.NM on the server grid %v", i, sp.Pattern.Key(), sp.NM, want)
		}
	}
}

// feedTwoObjects ingests 12 reports for each of two objects, enough
// history for a generation to mine.
func feedTwoObjects(t *testing.T, url string) {
	t.Helper()
	for i := 0; i < 12; i++ {
		for obj := 0; obj < 2; obj++ {
			resp := ingestReport(t, url, fmt.Sprintf("obj-%d", obj),
				float64(i), 0.1*float64(i), 0.1*float64(i))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest status = %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
	}
}

// waitGeneration polls until the asynchronous re-mine loop has served a
// generation over at least the given number of window records, and
// returns it.
func waitGeneration(t *testing.T, s *Server, records int) ingestGeneration {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if gen := s.generation(); gen.Generation >= 1 && gen.Records >= records {
			return gen
		}
		if time.Now().After(deadline) {
			t.Fatalf("no re-mine generation over %d records completed within 10s", records)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

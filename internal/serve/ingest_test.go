package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"trajpattern/internal/cli"
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

func TestIngestReplayAcrossRestart(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	dir := t.TempDir()
	var before []string
	{
		s, url := newIngestServer(t, dir, nil)
		for obj := 0; obj < 3; obj++ {
			for i := 0; i < 5; i++ {
				resp := ingestReport(t, url, fmt.Sprintf("obj-%d", obj), float64(i), float64(i), float64(obj))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("ingest status = %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}
		for _, ow := range s.ingestPipe.WindowSnapshot() {
			before = append(before, fmt.Sprintf("%+v", ow))
		}
		if err := s.StopIngest(); err != nil {
			t.Fatalf("stop: %v", err)
		}
	}
	// A second server over the same WAL dir replays to identical windows.
	s2, url2 := newIngestServer(t, dir, nil)
	var after []string
	for _, ow := range s2.ingestPipe.WindowSnapshot() {
		after = append(after, fmt.Sprintf("%+v", ow))
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("replayed windows differ:\nbefore %v\nafter  %v", before, after)
	}
	if st := s2.ingestPipe.Stats(); st.Replayed != 15 {
		t.Fatalf("Replayed = %d, want 15", st.Replayed)
	}
	// Ingest continues where the log left off.
	resp := ingestReport(t, url2, "obj-0", 100, 1, 1)
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
		cfg.IngestMineK = 4
	})
	// Feed two objects enough history for a generation to mine.
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
	waitGeneration(t, s)
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

// waitGeneration polls until the asynchronous re-mine loop has served a
// generation, and returns it.
func waitGeneration(t *testing.T, s *Server) ingestGeneration {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if gen := s.generation(); gen.Generation >= 1 {
			return gen
		}
		if time.Now().After(deadline) {
			t.Fatal("no re-mine generation completed within 10s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRemineResumesCheckpointAfterRestart: a crash mid-mine leaves
// <wal>/remine.ckpt behind for the restarted server's first re-mine. A
// checkpoint of the same windows resumes (no seed is scored again); one
// taken for another problem is deleted and the windows are mined fresh.
// Either way the generation equals a clean restart's, keys and NM bits,
// and the file is gone once the generation is served.
func TestRemineResumesCheckpointAfterRestart(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "remine.ckpt")
	mut := func(reg *obs.Registry) func(*Config) {
		return func(cfg *Config) { cfg.Metrics, cfg.IngestMineK = reg, 4 }
	}
	s, url := newIngestServer(t, dir, mut(obs.New()))
	for i := 0; i < 12; i++ {
		for obj := 0; obj < 3; obj++ {
			resp := ingestReport(t, url, fmt.Sprintf("obj-%d", obj),
				float64(i), 0.08*float64(i)+0.01*float64(obj), 0.05*float64(i%6))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest status = %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
	}
	if err := s.StopIngest(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	os.Remove(ckPath) //nolint:errcheck // whatever this loop left is not under test

	// restart replays dir into a new server, takes its first generation
	// and its miner.seeds count, and stops it.
	restart := func(t *testing.T) (*Server, ingestGeneration, int64) {
		t.Helper()
		reg := obs.New()
		s, _ := newIngestServer(t, dir, mut(reg))
		gen := waitGeneration(t, s)
		if _, err := os.Stat(ckPath); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("remine.ckpt still present after the generation (stat err %v)", err)
		}
		if err := s.StopIngest(); err != nil {
			t.Fatalf("stop: %v", err)
		}
		return s, gen, reg.Snapshot().Counters["miner.seeds"]
	}
	clean, want, seeds := restart(t)
	if seeds == 0 || len(want.Patterns) == 0 {
		t.Fatalf("clean restart: %d seeds, %d patterns", seeds, len(want.Patterns))
	}
	// plant cuts the re-mine loop's problem (its windows, grid and δ, top
	// k) short after two iterations, leaving a mid-run checkpoint.
	ds := clean.windowsToDataset(clean.ingestPipe.WindowSnapshot())
	g := cli.FitGrid(ds, clean.cfg.GridN)
	scorer, err := core.NewScorer(ds, core.Config{Grid: g, Delta: clean.cfg.DeltaMul * g.CellWidth()})
	if err != nil {
		t.Fatal(err)
	}
	plant := func(t *testing.T, k int) {
		t.Helper()
		mcfg := core.MinerConfig{K: k, MaxIters: 2, CheckpointPath: ckPath}
		if _, err := core.Mine(context.Background(), scorer, mcfg); err != nil {
			t.Fatal(err)
		}
		if ck, err := core.LoadCheckpoint(ckPath); err != nil || ck.Iteration >= want.Iterations {
			t.Fatalf("no mid-run checkpoint planted (err %v; clean run: %d iterations)", err, want.Iterations)
		}
	}
	for _, tc := range []struct {
		name    string
		k       int
		resumed bool
	}{
		{"other-problem", clean.cfg.IngestMineK + 1, false},
		{"same-windows", clean.cfg.IngestMineK, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plant(t, tc.k)
			_, got, seeds := restart(t)
			if resumed := seeds == 0; resumed != tc.resumed {
				t.Errorf("miner.seeds = %d: resumed = %t, want %t", seeds, resumed, tc.resumed)
			}
			if len(got.Patterns) != len(want.Patterns) {
				t.Fatalf("%d patterns, clean restart %d", len(got.Patterns), len(want.Patterns))
			}
			for i, w := range want.Patterns {
				if p := got.Patterns[i]; p.Pattern.Key() != w.Pattern.Key() || math.Float64bits(p.NM) != math.Float64bits(w.NM) {
					t.Errorf("rank %d: (%s, %v) != clean restart's (%s, %v)", i, p.Pattern.Key(), p.NM, w.Pattern.Key(), w.NM)
				}
			}
		})
	}
}

package chaos

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"trajpattern/internal/datagen"
	"trajpattern/internal/ingest"
	"trajpattern/internal/obs/slogx"
	"trajpattern/internal/serve"
)

// TestMain doubles as the server binary: the scenarios launch this very
// test executable with INGESTCHAOS_CHILD=1 and the process becomes a
// trajserve instance with durable ingest enabled. The harness then
// SIGKILLs it like a real crash — no clean shutdown path runs.
func TestMain(m *testing.M) {
	if os.Getenv(envChild) == "1" {
		os.Exit(childMain())
	}
	os.Exit(m.Run())
}

const (
	envChild  = "INGESTCHAOS_CHILD"
	envWAL    = "INGESTCHAOS_WAL"    // ingest WAL directory (shared across restarts)
	envWindow = "INGESTCHAOS_WINDOW" // per-object window record cap
)

// childMain runs the real serve stack — listener, admission, ingest
// pipeline, re-mine loop — over a seeded dataset, printing the bound
// address on stdout. It serves until killed; the harness never asks it
// to exit cleanly.
func childMain() int {
	ds, err := datagen.ZebraDataset(datagen.ZebraConfig{
		NumZebras: 6, NumGroups: 2, AvgLen: 12, Seed: 7,
	}, 0.01, 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos child: dataset: %v\n", err)
		return 1
	}
	window, err := strconv.Atoi(os.Getenv(envWindow))
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos child: bad %s=%q: %v\n", envWindow, os.Getenv(envWindow), err)
		return 2
	}
	err = serve.Run(context.Background(), serve.Options{
		Addr: "127.0.0.1:0",
		Server: serve.Config{
			Dataset:         ds,
			GridN:           8,
			IngestWALDir:    os.Getenv(envWAL),
			IngestWindow:    window,
			IngestSyncCount: 8,
			Logger:          slogx.New(slogx.Options{Format: "json", W: os.Stderr}),
		},
	}, func(addr string) { fmt.Printf("ADDR=%s\n", addr) })
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos child: %v\n", err)
		return 1
	}
	return 0
}

// child is one running server process under chaos.
type child struct {
	t    *testing.T
	cmd  *exec.Cmd
	addr string
	dead sync.Once
}

// startChild launches a server over the WAL dir and blocks until it has
// both printed its address and flipped /readyz — i.e. until WAL replay
// finished. The process is SIGKILLed at test end if a scenario has not
// already killed it.
func startChild(t *testing.T, walDir string, window int) *child {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		envChild+"=1",
		envWAL+"="+walDir,
		fmt.Sprintf("%s=%d", envWindow, window),
	)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &child{t: t, cmd: cmd}
	t.Cleanup(c.kill)

	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "ADDR="); ok {
			c.addr = a
			break
		}
	}
	if c.addr == "" {
		c.kill()
		t.Fatalf("child exited without printing an address (scan err %v)", sc.Err())
	}
	go io.Copy(io.Discard, stdout) //nolint:errcheck // drain until the process dies
	c.waitReady()
	return c
}

// kill delivers the crash: SIGKILL, no drain, no ingest Close. Idempotent
// so scenarios can kill explicitly and cleanup stays a no-op.
func (c *child) kill() {
	c.dead.Do(func() {
		c.cmd.Process.Kill() //nolint:errcheck // the process may already be gone
		c.cmd.Wait()         //nolint:errcheck // exit status of a killed child is noise
		// The kernel closed the child's sockets with it; drop our side so
		// dead keep-alive connections never outlive the scenario.
		http.DefaultClient.CloseIdleConnections()
	})
}

// waitReady polls /readyz until the child reports ready — replay done,
// windows rebuilt — failing the test if that takes over 30s.
func (c *child) waitReady() {
	c.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + c.addr + "/readyz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("child %s never became ready", c.addr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// ingestRecord POSTs one report to /v1/ingest and returns the HTTP
// status, or an error when the connection itself died (killed child).
func (c *child) ingestRecord(r ingest.Record) (int, error) {
	body, err := json.Marshal(serve.IngestRequest{Obj: r.Obj, Time: r.Time, X: r.X, Y: r.Y})
	if err != nil {
		return 0, err
	}
	resp, err := http.Post("http://"+c.addr+"/v1/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
	resp.Body.Close()
	return resp.StatusCode, nil
}

// mustIngest is ingestRecord for records that must be acknowledged.
func (c *child) mustIngest(r ingest.Record) {
	c.t.Helper()
	code, err := c.ingestRecord(r)
	if err != nil || code != http.StatusOK {
		c.t.Fatalf("ingest %+v: status %d, err %v", r, code, err)
	}
}

// statusBody mirrors the /v1/ingest/status response shape.
type statusBody struct {
	Enabled    bool                  `json:"enabled"`
	Ready      bool                  `json:"ready"`
	Stats      *ingest.Stats         `json:"stats"`
	Generation int                   `json:"generation"`
	Degraded   bool                  `json:"degraded"`
	Mining     bool                  `json:"mining"`
	Windows    []ingest.ObjectWindow `json:"windows"`
}

// status fetches /v1/ingest/status?verbose=1 (windows included).
func (c *child) status() statusBody {
	c.t.Helper()
	resp, err := http.Get("http://" + c.addr + "/v1/ingest/status?verbose=1")
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statusBody
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		c.t.Fatalf("decode status: %v", err)
	}
	return st
}

// waitGeneration polls until the re-mine loop has published at least one
// complete generation.
func (c *child) waitGeneration() {
	c.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for c.status().Generation < 1 {
		if time.Now().After(deadline) {
			c.t.Fatal("no re-mine generation completed within 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// minePatterns POSTs /v1/mine and returns the raw patterns JSON — raw so
// scenarios can assert byte-identity across a crash and restart.
func (c *child) minePatterns() json.RawMessage {
	c.t.Helper()
	resp, err := http.Post("http://"+c.addr+"/v1/mine", "application/json",
		strings.NewReader(`{"k":4}`))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("mine status = %d", resp.StatusCode)
	}
	var body map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		c.t.Fatalf("decode mine response: %v", err)
	}
	return body["patterns"]
}

package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"trajpattern/internal/obs"
	"trajpattern/internal/serve/chaos"
	"trajpattern/internal/stat"
	"trajpattern/internal/testutil/leakcheck"
)

// TestSoakOverloadedServer is the package's central robustness claim: N
// concurrent HTTP clients hammering a server with far less admission
// capacity, through a fault-injecting transport that drops, stalls and
// tears responses, observe only clean outcomes — 200s whose whole body
// decodes, typed 429/503 shedding, or transport faults the chaos layer
// itself injected. No request hangs, nothing half-parses, and after the
// drain no goroutines are left behind.
func TestSoakOverloadedServer(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	leak := leakcheck.Take()

	reg := obs.New()
	s, err := NewServer(Config{
		Dataset:  testDataset(),
		GridN:    6,
		Capacity: 4,
		MaxQueue: 4,
		Deadline: 5 * time.Second,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	const (
		clients  = 16
		requests = 25
	)
	var (
		mu         sync.Mutex
		statusSeen = map[int]int{}
		faults     int // transport faults the chaos layer injected
		ok         int
	)
	// exchange makes one request and returns its status once the whole
	// body has arrived; a 200's body must decode as a ScoreResponse.
	exchange := func(httpc *http.Client, body string) (int, error) {
		resp, err := httpc.Post(ts.URL+"/v1/score", "application/json", strings.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, err
		}
		if resp.StatusCode == http.StatusOK {
			var sr ScoreResponse
			if err := json.Unmarshal(data, &sr); err != nil {
				return 0, fmt.Errorf("200 body does not decode: %w: %q", err, data)
			}
		}
		return resp.StatusCode, nil
	}
	record := func(status int, err error) error {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case errors.Is(err, chaos.ErrInjectedDisconnect):
			faults++
			return nil
		case err != nil:
			return err
		}
		statusSeen[status]++
		switch status {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			return fmt.Errorf("forbidden status %d", status)
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			httpc := &http.Client{
				Transport: &chaos.Transport{
					PDisconnect: 0.10,
					PStall:      0.10,
					Stall:       10 * time.Millisecond,
					PTornBody:   0.10,
					TornBytes:   16,
					RNG:         stat.NewRNG(uint64(1000 + id)),
				},
				Timeout: 10 * time.Second,
			}
			for r := 0; r < requests; r++ {
				body := fmt.Sprintf(`{"patterns":[[%d],[%d,%d]]}`, r%36, (r+1)%36, (r+2)%36)
				if err := record(exchange(httpc, body)); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if ok == 0 {
		t.Fatal("soak produced zero successful requests — nothing was actually exercised")
	}
	t.Logf("soak outcomes: statuses=%v injected transport faults=%d", statusSeen, faults)

	// Drain: every subsequent request must be a clean 503.
	s.Admission().StartDrain()
	resp, err := http.Post(ts.URL+"/v1/score", "application/json",
		nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status = %d, want 503", resp.StatusCode)
	}
	if s.Admission().InFlight() != 0 {
		t.Errorf("in-flight weight after soak = %d, want 0", s.Admission().InFlight())
	}

	ts.CloseClientConnections()
	ts.Close()
	http.DefaultClient.CloseIdleConnections()

	// Goroutine-leak check: after the server is gone, every goroutine the
	// test spawned must be gone too. leakcheck polls with a deadline —
	// lingering net/http conns take a moment to unwind — and names each
	// survivor by stack instead of reporting a bare count delta.
	if leaked := leak.Wait(10 * time.Second); len(leaked) > 0 {
		for _, g := range leaked {
			t.Errorf("goroutine leaked after soak:\n%s", g.Stack)
		}
	}

	snap := reg.Snapshot()
	if snap.Counter("serve.requests/v1/score") == 0 {
		t.Error("no requests recorded in metrics")
	}
}

// TestSoakMetricsConformance scrapes /metrics continuously while
// concurrent clients load the server, validating every response against
// the strict Prometheus text-format checker: the scrape contract must
// hold mid-flight — half-written families or broken escaping under
// concurrent updates would fail here, not in a monitoring stack.
func TestSoakMetricsConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	defer leakcheck.Check(t)()
	reg := obs.New()
	s, err := NewServer(Config{
		Dataset:  testDataset(),
		GridN:    6,
		Capacity: 2,
		MaxQueue: 2,
		Deadline: 5 * time.Second,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer http.DefaultClient.CloseIdleConnections()

	const (
		clients  = 8
		requests = 20
	)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				body := fmt.Sprintf(`{"patterns":[[%d],[%d,%d]]}`, r%36, (r+1)%36, (r+2)%36)
				resp, err := http.Post(ts.URL+"/v1/score", "application/json", strings.NewReader(body))
				if err != nil {
					continue // outcome mix is TestSoakOverloadedServer's business
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for reuse
				resp.Body.Close()
			}
		}(i)
	}
	loadDone := make(chan struct{})
	go func() { wg.Wait(); close(loadDone) }()

	scrapes, finals := 0, 0
	for finals < 1 {
		select {
		case <-loadDone:
			// One more scrape after the load stops, so the validated set
			// includes the settled end state as well as mid-flight ones.
			finals++
		default:
		}
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
			t.Fatalf("scrape %d Content-Type = %q, want %q", scrapes, ct, obs.PromContentType)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if verr := obs.ValidateProm(bytes.NewReader(body)); verr != nil {
			t.Fatalf("scrape %d is not valid Prometheus exposition: %v\n%s", scrapes, verr, body)
		}
		scrapes++
		if finals > 0 {
			// The settled exposition must carry the request-to-shard
			// telemetry families this PR promises scrapers.
			for _, want := range []string{
				"serve_requests_v1_score",
				"serve_latency_v1_score_bucket",
				"serve_queue_wait_count",
				"serve_queue_depth_max",
				"trajpattern_build_info",
			} {
				if !strings.Contains(string(body), want) {
					t.Errorf("final scrape missing %s:\n%s", want, body)
				}
			}
		}
	}
	t.Logf("validated %d scrapes under load", scrapes)
}

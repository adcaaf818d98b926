package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"trajpattern/internal/cli"
	"trajpattern/internal/core"
	"trajpattern/internal/testutil/leakcheck"
)

// TestRunSigtermDrain is the trajserve shutdown contract end to end: a
// request is held in flight (its body deliberately incomplete), SIGTERM
// arrives, the listener refuses new connections while the in-flight
// request is allowed to finish and receives its full 200, Run returns
// nil (exit 0), and no goroutines are left behind.
func TestRunSigtermDrain(t *testing.T) {
	leak := leakcheck.Take()

	ctx, stop := cli.SignalContext(context.Background(), nil, "trajserve-test")
	defer stop()

	ready := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- Run(ctx, Options{
			Addr:   "127.0.0.1:0",
			Server: Config{Dataset: testDataset(), GridN: 6},
			Grace:  10 * time.Second,
		}, func(addr string) { ready <- addr })
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-runErr:
		t.Fatalf("Run exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	// Liveness before the storm.
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	// Hold a request in flight: send the headers and half the JSON body,
	// then stall. Once admitted, the handler blocks reading the rest.
	body := `{"patterns":[[1,2]]}`
	half := len(body) / 2
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/score HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(body), body[:half])
	// Sent bytes are not yet an admitted request, and SIGTERM before
	// admission would refuse it as draining. /readyz is not
	// admission-guarded, so wait there until the request is in flight.
	admitted := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		var ready struct {
			InFlight int64 `json:"inflight"`
		}
		err = json.NewDecoder(resp.Body).Decode(&ready)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ready.InFlight == 1 {
			admitted = true
			break
		}
	}
	if !admitted {
		t.Fatal("held request never became in flight")
	}

	// SIGTERM: stage one of the drain must close the listener while the
	// held request stays alive.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	refused := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err != nil {
			refused = true
			break
		}
		// Accepted: either the listener has not closed yet, or the OS
		// queued the connection before close. Probe with a request.
		c.Close()
		time.Sleep(20 * time.Millisecond)
	}
	if !refused {
		t.Fatal("listener still accepting connections after SIGTERM")
	}
	select {
	case err := <-runErr:
		t.Fatalf("Run returned %v with a request still in flight", err)
	default:
	}

	// Complete the held request: it must finish with a full, valid 200.
	if _, err := io.WriteString(conn, body[half:]); err != nil {
		t.Fatalf("finishing in-flight body: %v", err)
	}
	br := bufio.NewReader(conn)
	httpResp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("in-flight response: %v", err)
	}
	payload, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if err != nil {
		t.Fatalf("in-flight body: %v", err)
	}
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200: %s", httpResp.StatusCode, payload)
	}
	if !strings.Contains(string(payload), `"scores"`) {
		t.Fatalf("in-flight response torn or wrong: %s", payload)
	}
	conn.Close()

	// With the last request done, Run must come home clean: exit 0.
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run = %v, want nil after graceful drain", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Run did not return after the drain finished")
	}

	stop()
	http.DefaultClient.CloseIdleConnections()
	if leaked := leak.Wait(10 * time.Second); len(leaked) > 0 {
		for _, g := range leaked {
			t.Errorf("goroutine leaked after drain:\n%s", g.Stack)
		}
	}
}

// TestRunGraceExpiryInterrupts proves stage two: when in-flight work
// outlives the grace, its context is cancelled and Run still returns
// cleanly instead of hanging forever on a wedged request.
func TestRunGraceExpiryInterrupts(t *testing.T) {
	defer leakcheck.Check(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ready := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- Run(ctx, Options{
			Addr:   "127.0.0.1:0",
			Server: Config{Dataset: testDataset(), GridN: 6},
			Grace:  200 * time.Millisecond,
		}, func(addr string) { ready <- addr })
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-runErr:
		t.Fatalf("Run exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	// Wedge a request: headers sent, body never completed, client never
	// going to finish it.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/score HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: 1000\r\n\r\n{")

	time.Sleep(50 * time.Millisecond) // let the handler be admitted
	cancel()                          // the "SIGTERM"

	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run = %v, want nil after forced drain", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Run hung on a wedged request despite grace expiry")
	}
}

// TestRunRejectsBadOptions covers the startup failure paths: they must
// fail fast with errors, not serve broken state.
func TestRunRejectsBadOptions(t *testing.T) {
	if err := Run(context.Background(), Options{Addr: "127.0.0.1:0"}, nil); err == nil {
		t.Error("no dataset accepted")
	}
	if err := Run(context.Background(), Options{
		Addr:     "127.0.0.1:0",
		DataPath: "/nonexistent/nope.jsonl",
	}, nil); err == nil {
		t.Error("missing data file accepted")
	}
	if err := Run(context.Background(), Options{
		Addr:         "127.0.0.1:0",
		PatternsPath: "/nonexistent/pats.json",
		Server:       Config{Dataset: testDataset()},
	}, nil); err == nil {
		t.Error("missing patterns file accepted")
	}
	// A pattern file with a cell off the server's 6×6 grid. The context
	// is already cancelled, so a Run that accepted the file would drain at
	// once and return nil.
	pats := filepath.Join(t.TempDir(), "pats.json")
	if err := core.SavePatterns(pats, []core.ScoredPattern{{Pattern: core.Pattern{0, 36}, NM: -1}}); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Run(cancelled, Options{
		Addr:         "127.0.0.1:0",
		PatternsPath: pats,
		Server:       Config{Dataset: testDataset(), GridN: 6},
	}, nil); err == nil || !strings.Contains(err.Error(), "cell 36") {
		t.Errorf("off-grid pattern file: Run = %v, want an error naming cell 36", err)
	}
	if err := Run(context.Background(), Options{
		Addr:   "not-an-address:-1",
		Server: Config{Dataset: testDataset()},
	}, nil); err == nil {
		t.Error("bad listen address accepted")
	}
}

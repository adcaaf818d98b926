//go:build unix

package cli

import (
	"bytes"
	"context"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"trajpattern/internal/obs/slogx"
)

// bufLogger returns a JSON logger writing to buf.
func bufLogger(buf *bytes.Buffer) *slogx.Logger {
	return slogx.New(slogx.Options{Format: "json", W: buf, OmitTime: true})
}

// raise sends sig to this process and fails the test on error.
func raise(t *testing.T, sig syscall.Signal) {
	t.Helper()
	if err := syscall.Kill(syscall.Getpid(), sig); err != nil {
		t.Fatalf("kill: %v", err)
	}
}

func TestSignalContextFirstSignalCancels(t *testing.T) {
	var buf bytes.Buffer
	ctx, stop := SignalContext(context.Background(), bufLogger(&buf), "testtool")
	defer stop()

	raise(t, syscall.SIGTERM)
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("context not cancelled after SIGTERM")
	}
	if cause := context.Cause(ctx); cause == nil || !strings.Contains(cause.Error(), "terminated") {
		t.Errorf("cause = %v, want a signal description", cause)
	}
	if !strings.Contains(buf.String(), "draining") {
		t.Errorf("notice %q does not mention draining", buf.String())
	}
}

func TestSignalContextSecondSignalAborts(t *testing.T) {
	exited := make(chan int, 1)
	exitFn = func(code int) {
		exited <- code
		select {} // the real os.Exit never returns; park the goroutine
	}
	defer func() { exitFn = os.Exit }()

	var buf bytes.Buffer
	ctx, stop := SignalContext(context.Background(), bufLogger(&buf), "testtool")
	defer stop()

	raise(t, syscall.SIGTERM)
	<-ctx.Done()
	raise(t, syscall.SIGTERM)
	select {
	case code := <-exited:
		if code != 130 {
			t.Errorf("exit code = %d, want 130", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second signal did not abort")
	}
	if !strings.Contains(buf.String(), "aborting") {
		t.Errorf("notice %q does not mention aborting", buf.String())
	}
}

func TestSignalContextStopReleasesHandler(t *testing.T) {
	ctx, stop := SignalContext(context.Background(), nil, "testtool")
	stop()
	stop() // idempotent
	// After stop the context is released (cancelled with a nil cause →
	// context.Canceled), not left dangling.
	select {
	case <-ctx.Done():
	case <-time.After(time.Second):
		t.Fatal("stop did not release the context")
	}
}

package cli

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"trajpattern/internal/obs/slogx"
)

// exitFn is swapped by tests so the second-signal abort path can be
// exercised without killing the test process.
var exitFn = os.Exit

// SignalContext returns a child of parent implementing the CLIs'
// two-stage shutdown on SIGINT/SIGTERM. The first signal cancels the
// returned context — long-running stages (Mine, RunBench)
// then drain gracefully and their callers flush partial results and
// trace journals. A second signal aborts the process immediately with
// the conventional exit code 130.
//
// logger receives the drain and abort records (nil discards them); name
// labels them. The returned stop function releases the signal handler
// and must be deferred so a finished command stops intercepting ^C.
func SignalContext(parent context.Context, logger *slogx.Logger, name string) (context.Context, func()) {
	ctx, cancel := context.WithCancelCause(parent)
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case sig := <-ch:
			logger.Info("signal received — draining",
				slog.String("cmd", name), slog.String("signal", sig.String()))
			cancel(fmt.Errorf("%v received", sig))
		case <-done:
			return
		}
		select {
		case sig := <-ch:
			logger.Error("second signal — aborting",
				slog.String("cmd", name), slog.String("signal", sig.String()))
			exitFn(130)
		case <-done:
		}
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			signal.Stop(ch)
			close(done)
			cancel(nil)
		})
	}
	return ctx, stop
}

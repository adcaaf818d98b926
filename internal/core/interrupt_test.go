package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestScoreAllPanicIsolated(t *testing.T) {
	s := testScorer(t, randomDataset(3, 4, 10, 0.1), 4)
	// NM panics on the empty pattern; the pool must surface that as a
	// typed error for the smallest offending index, not crash or wedge.
	patterns := []Pattern{{0}, {}, {1, 2}, {}}
	_, err := s.ScoreAll(context.Background(), patterns)
	if err == nil {
		t.Fatal("panic in NM not surfaced")
	}
	var pe *ScorePanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not a *ScorePanicError: %v", err, err)
	}
	if pe.Index != 1 {
		t.Errorf("panic index = %d, want 1 (the smallest offender)", pe.Index)
	}
	if pe.Stack == "" {
		t.Error("panic error carries no stack trace")
	}
	if !strings.Contains(pe.Error(), "panicked") {
		t.Errorf("error %q does not say the worker panicked", pe)
	}
	// The pool must stay usable after a panic.
	if _, err := s.ScoreAll(context.Background(), []Pattern{{0}}); err != nil {
		t.Errorf("scorer unusable after a panic: %v", err)
	}
}

func TestScoreAllCancelled(t *testing.T) {
	s := testScorer(t, randomDataset(3, 4, 10, 0.1), 4)
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(fmt.Errorf("operator gave up"))
	_, err := s.ScoreAll(ctx, []Pattern{{0}, {1}})
	if err == nil {
		t.Fatal("cancelled context not surfaced")
	}
	var pe *ScorePanicError
	if errors.As(err, &pe) {
		t.Fatalf("cancellation misreported as a panic: %v", err)
	}
	if !strings.Contains(err.Error(), "operator gave up") {
		t.Errorf("error %q does not carry the cancellation cause", err)
	}
	if got := s.InstalledCells(); got != 0 {
		t.Errorf("cancelled batch built %d cell vectors, want 0", got)
	}
}

// TestMinePreCancelled checks the earliest interrupt point: a context
// cancelled before seeding yields an empty interrupted result, not an
// error.
func TestMinePreCancelled(t *testing.T) {
	s := testScorer(t, randomDataset(3, 4, 10, 0.1), 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Mine(ctx, s, MinerConfig{K: 3})
	if err != nil {
		t.Fatalf("pre-cancelled Mine errored: %v", err)
	}
	if !res.Interrupted || res.InterruptReason == "" {
		t.Errorf("pre-cancelled Mine not flagged interrupted: %+v", res)
	}
	if len(res.Patterns) != 0 {
		t.Errorf("pre-cancelled Mine returned %d patterns, want 0", len(res.Patterns))
	}
}

// TestMineCancelMidRun interrupts a run from its own progress callback —
// with scoring workers active — and checks that Mine drains cleanly and
// returns a valid best-so-far answer. Run under -race this also proves
// the worker pool shuts down without leaking or racing.
func TestMineCancelMidRun(t *testing.T) {
	data := randomDataset(7, 8, 20, 0.1)
	s := testScorer(t, data, 5)
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	cfg := MinerConfig{K: 5, MaxLen: 6, OnProgress: func(p Progress) {
		if p.Iteration == 1 {
			cancel(fmt.Errorf("test cancel after iteration %d", p.Iteration))
		}
	}}
	res, err := Mine(ctx, s, cfg)
	if err != nil {
		t.Fatalf("cancelled Mine errored: %v", err)
	}
	if !res.Interrupted {
		t.Fatal("cancelled Mine not flagged interrupted")
	}
	if !strings.Contains(res.InterruptReason, "test cancel") {
		t.Errorf("reason %q does not carry the cancellation cause", res.InterruptReason)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("interrupted run returned no best-so-far patterns")
	}
	// The partial answer must be internally consistent: correctly ordered
	// and scored (each NM matches an independent evaluation).
	for i, sp := range res.Patterns {
		if nm := s.NM(sp.Pattern); nm != sp.NM {
			t.Errorf("pattern %d NM %v, independent evaluation %v", i, sp.NM, nm)
		}
		if i > 0 && sp.NM > res.Patterns[i-1].NM {
			t.Errorf("patterns out of order at %d", i)
		}
	}
}

// TestMineMaxWallTime: a wall budget is a context deadline with a cause,
// as trajmine's -maxwall sets it through WithWallBudget. A budget already
// spent stops the run before seeding, and the cause is the reported
// reason.
func TestMineMaxWallTime(t *testing.T) {
	s := testScorer(t, randomDataset(7, 8, 20, 0.1), 5)
	ctx, cancel := WithWallBudget(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	res, err := Mine(ctx, s, MinerConfig{K: 5, MaxLen: 6})
	if err != nil {
		t.Fatalf("wall-time-bounded Mine errored: %v", err)
	}
	if !res.Interrupted || res.InterruptReason != "max wall time 1ns elapsed" {
		t.Errorf("wall-time bound not reported: %+v", res)
	}
	if len(res.Patterns) != 0 {
		t.Errorf("expired Mine returned %d patterns, want 0", len(res.Patterns))
	}
}

// TestMineMaxIters: a run the MaxIters bound stops is reported as
// interrupted, with the bound as its reason, like any other early stop.
func TestMineMaxIters(t *testing.T) {
	s := testScorer(t, randomDataset(7, 8, 20, 0.1), 5)
	res, err := Mine(context.Background(), s, MinerConfig{K: 5, MaxLen: 6, MaxIters: 1})
	if err != nil {
		t.Fatalf("MaxIters-bounded Mine errored: %v", err)
	}
	if !res.Interrupted || res.InterruptReason != "max iterations 1 reached" {
		t.Errorf("MaxIters stop reported as Interrupted %t, reason %q; want true, %q",
			res.Interrupted, res.InterruptReason, "max iterations 1 reached")
	}
	if res.Stats.Iterations != 1 || len(res.Patterns) != 5 {
		t.Errorf("MaxIters 1 ran %d iterations for %d patterns, want 1 and 5",
			res.Stats.Iterations, len(res.Patterns))
	}
}

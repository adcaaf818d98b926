package cli

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"trajpattern/internal/core"
)

func TestGenerateKinds(t *testing.T) {
	for _, kind := range []string{"zebra", "tpr", "posture"} {
		ds, err := Generate(GenOptions{Kind: kind, N: 8, Len: 20, U: 0.02, C: 2, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if len(ds) != 8 {
			t.Errorf("%s: %d trajectories", kind, len(ds))
		}
		if err := ds.Validate(); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
}

func TestGenerateBus(t *testing.T) {
	ds, err := Generate(GenOptions{Kind: "bus", U: 0.01, C: 2, Scale: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 {
		t.Fatal("empty bus dataset")
	}
	if len(ds[0]) != 100 {
		t.Errorf("velocity length = %d", len(ds[0]))
	}
}

func TestGenerateUnknownKind(t *testing.T) {
	if _, err := Generate(GenOptions{Kind: "nope"}); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestFlagValuesRefused: a value the generators, the miners or the server
// config would read as "unset" (or clamp, or refuse without naming it) is
// refused with the flag's name, and the commands exit 2 on it.
func TestFlagValuesRefused(t *testing.T) {
	for flag, o := range map[string]GenOptions{
		"-kind":  {Kind: "nope", N: 8, Len: 20, U: 0.02, C: 2},
		"-n":     {Kind: "zebra", N: 0, Len: 20, U: 0.02, C: 2},
		"-len":   {Kind: "zebra", N: 8, Len: 0, U: 0.02, C: 2},
		"-u":     {Kind: "bus", U: 0, C: 2, Scale: 0.2},
		"-c":     {Kind: "bus", U: 0.01, C: 0, Scale: 0.2},
		"-scale": {Kind: "bus", U: 0.01, C: 2, Scale: 0},
	} {
		_, err := Generate(o)
		if err == nil || !strings.Contains(err.Error(), flag+": ") || ExitCode(err) != 2 {
			t.Errorf("Generate(%+v): err = %v (exit %d), want a %s refusal, exit 2", o, err, ExitCode(err), flag)
		}
	}
	const capacity, queue, deadline, grace = int64(8), 16, 30 * time.Second, 10 * time.Second
	for _, tc := range []struct {
		flag     string
		gridN    int
		deltaMul float64
		window   int
		capacity int64
		queue    int
		deadline time.Duration
		grace    time.Duration
	}{
		{"-gridn", 0, 1, 0, capacity, queue, deadline, grace},
		{"-delta", 12, 0, 0, capacity, queue, deadline, grace},
		{"-ingest-window", 12, 1, -5, capacity, queue, deadline, grace},
		{"-capacity", 12, 1, 0, 0, queue, deadline, grace},
		{"-queue", 12, 1, 0, capacity, 0, deadline, grace},
		{"-deadline", 12, 1, 0, capacity, queue, 0, grace},
		{"-grace", 12, 1, 0, capacity, queue, deadline, 0},
		{"-grace", 12, 1, 0, capacity, queue, deadline, -time.Second},
	} {
		err := CheckServeFlags(tc.gridN, tc.deltaMul, tc.window, tc.capacity, tc.queue, tc.deadline, tc.grace)
		if err == nil || !strings.Contains(err.Error(), tc.flag+": ") || ExitCode(err) != 2 {
			t.Errorf("CheckServeFlags(%+v): err = %v, want a %s refusal, exit 2", tc, err, tc.flag)
		}
	}
	if err := CheckServeFlags(12, 1, 0, capacity, queue, deadline, grace); err != nil {
		t.Errorf("trajserve's defaults refused: %v", err)
	}
	// A negative -capacity, -queue or -deadline means unlimited,
	// unbounded and no deadline.
	if err := CheckServeFlags(12, 1, 0, -1, -1, -time.Second, grace); err != nil {
		t.Errorf("trajserve's negative -capacity, -queue and -deadline refused: %v", err)
	}
	var buf bytes.Buffer
	if _, err := RunBench(context.Background(), &buf, BenchOptions{Experiments: []string{"nope"}, Scale: 0.15}); err == nil || !strings.Contains(err.Error(), "-exp: ") || ExitCode(err) != 2 {
		t.Errorf("trajbench -exp nope: err = %v (exit %d), want a -exp refusal, exit 2", err, ExitCode(err))
	}

	// trajmine's values are refused before the grid is fitted, so a
	// refused run prints nothing.
	ds, err := Generate(GenOptions{Kind: "zebra", N: 4, Len: 15, U: 0.02, C: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, flag string
		edit       func(*MineOptions)
	}{
		{"-k 0", "-k", func(o *MineOptions) { o.K = 0 }},
		{"-minlen 0", "-minlen", func(o *MineOptions) { o.MinLen = 0 }},
		{"-maxlen 0", "-maxlen", func(o *MineOptions) { o.MaxLen = 0 }},
		{"-minlen 9 -maxlen 8", "-maxlen", func(o *MineOptions) { o.MinLen, o.MaxLen = 9, 8 }},
		{"-maxiters -1", "-maxiters", func(o *MineOptions) { o.MaxIters = -1 }},
		{"-maxwall -1s", "-maxwall", func(o *MineOptions) { o.MaxWallTime = -time.Second }},
		{"-measure bogus", "-measure", func(o *MineOptions) { o.Measure = "bogus" }},
		{"-resume without -checkpoint", "-resume", func(o *MineOptions) { o.Resume = true }},
		{"-measure pb -checkpoint", "-checkpoint", func(o *MineOptions) { o.Measure, o.CheckpointPath = "pb", "ck" }},
		{"-measure match -resume", "-resume", func(o *MineOptions) { o.Measure, o.Resume = "match", true }},
		{"-measure pb -maxwall 1s", "-maxwall", func(o *MineOptions) { o.Measure, o.MaxWallTime = "pb", time.Second }},
		{"-measure match -maxiters 1", "-maxiters", func(o *MineOptions) { o.Measure, o.MaxIters = "match", 1 }},
		{"-measure pb -progress", "-progress", func(o *MineOptions) { o.Measure, o.OnProgress = "pb", func(core.Progress) {} }},
	} {
		o := MineOptions{K: 3, GridN: 4, MinLen: 1, MaxLen: 3, DeltaMul: 1, Measure: "nm"}
		tc.edit(&o)
		buf.Reset()
		_, err := Mine(context.Background(), &buf, ds, o)
		if err == nil || !strings.Contains(err.Error(), tc.flag+": ") || ExitCode(err) != 2 {
			t.Errorf("trajmine %s: err = %v (exit %d), want a %s refusal, exit 2", tc.name, err, ExitCode(err), tc.flag)
		}
		if buf.Len() != 0 {
			t.Errorf("trajmine %s: refused run wrote %q", tc.name, buf.String())
		}
	}
	// -maxiters 0 is the documented default, not a refusal.
	if _, err := Mine(context.Background(), &buf, ds, MineOptions{K: 3, GridN: 4, MinLen: 1, MaxLen: 3, DeltaMul: 1, Measure: "nm", MaxIters: 0}); err != nil {
		t.Errorf("trajmine -maxiters 0: %v", err)
	}
	if code := ExitCode(errors.New("disk full")); code != 1 {
		t.Errorf("ExitCode of a run failure = %d, want 1", code)
	}
}

func TestFitGrid(t *testing.T) {
	ds, err := Generate(GenOptions{Kind: "tpr", N: 5, Len: 20, U: 0.02, C: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := FitGrid(ds, 8)
	if g.NumCells() != 64 {
		t.Errorf("cells = %d", g.NumCells())
	}
	for _, tr := range ds {
		for _, p := range tr {
			if !g.Bounds().Contains(p.Mean) {
				t.Fatalf("grid does not cover %v", p.Mean)
			}
		}
	}
	// Square even for skewed data (up to float rounding of min/max
	// corners derived from center ± side/2).
	if d := g.Bounds().Width() - g.Bounds().Height(); d > 1e-12 || d < -1e-12 {
		t.Errorf("grid not square: %v vs %v", g.Bounds().Width(), g.Bounds().Height())
	}
}

func TestMineAllMeasures(t *testing.T) {
	ds, err := Generate(GenOptions{Kind: "zebra", N: 10, Len: 25, U: 0.02, C: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, measure := range []string{"nm", "pb", "match"} {
		var buf bytes.Buffer
		pats, err := Mine(context.Background(), &buf, ds, MineOptions{
			K: 4, GridN: 8, MinLen: 1, MaxLen: 3, DeltaMul: 1,
			Measure: measure, Groups: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", measure, err)
		}
		if len(pats) != 4 {
			t.Errorf("%s: %d patterns", measure, len(pats))
		}
		out := buf.String()
		if !strings.Contains(out, "dataset:") {
			t.Errorf("%s: missing header:\n%s", measure, out)
		}
		if !strings.Contains(out, "pattern groups") {
			t.Errorf("%s: missing groups section", measure)
		}
	}
}

func TestMineViz(t *testing.T) {
	ds, err := Generate(GenOptions{Kind: "zebra", N: 6, Len: 20, U: 0.02, C: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Mine(context.Background(), &buf, ds, MineOptions{
		K: 3, GridN: 8, MinLen: 1, MaxLen: 3, DeltaMul: 1,
		Measure: "nm", Viz: true,
	}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "data density") || !strings.Contains(out, "best pattern") {
		t.Errorf("viz sections missing:\n%s", out)
	}
}

func TestMineErrors(t *testing.T) {
	ds, err := Generate(GenOptions{Kind: "zebra", N: 4, Len: 15, U: 0.02, C: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Mine(context.Background(), &buf, nil, MineOptions{K: 1, GridN: 4, MaxLen: 2, DeltaMul: 1, Measure: "nm"}); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := Mine(context.Background(), &buf, ds, MineOptions{K: 1, GridN: 4, MaxLen: 2, DeltaMul: 1, Measure: "bogus"}); err == nil {
		t.Error("bogus measure accepted")
	}
	if _, err := Mine(context.Background(), &buf, ds, MineOptions{K: 0, GridN: 4, MaxLen: 2, DeltaMul: 1, Measure: "nm"}); err == nil {
		t.Error("K=0 accepted")
	}
	// A grid side below 1 is refused before the grid is fitted (which
	// panics on it), for every measure, and a bad δ multiple by its own
	// value rather than the δ derived from it.
	for _, gridN := range []int{0, -3} {
		for _, measure := range []string{"nm", "pb", "match"} {
			_, err := Mine(context.Background(), &buf, ds, MineOptions{K: 1, GridN: gridN, MinLen: 1, MaxLen: 2, DeltaMul: 1, Measure: measure})
			if want := fmt.Sprintf("grid side GridN must be >= 1, got %d", gridN); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("-measure %s with GridN %d: err = %v, want %q", measure, gridN, err, want)
			}
		}
	}
	for _, d := range []float64{-1, 0, math.NaN(), math.Inf(1)} {
		_, err := Mine(context.Background(), &buf, ds, MineOptions{K: 1, GridN: 4, MinLen: 1, MaxLen: 2, DeltaMul: d, Measure: "nm"})
		if want := fmt.Sprintf("DeltaMul (δ in cell widths) must be finite and > 0, got %v", d); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("DeltaMul %v: err = %v, want %q", d, err, want)
		}
	}
	// The run bounds and checkpoints belong to the NM miner; the baselines
	// refuse each of them rather than ignore it.
	nmOnly := map[string]MineOptions{
		"CheckpointPath": {CheckpointPath: filepath.Join(t.TempDir(), "ck")},
		"Resume":         {Resume: true},
		"MaxWallTime":    {MaxWallTime: time.Second},
		"MaxIters":       {MaxIters: 1},
		"OnProgress":     {OnProgress: func(core.Progress) {}},
	}
	for _, measure := range []string{"pb", "match"} {
		for name, o := range nmOnly {
			o.K, o.GridN, o.MinLen, o.MaxLen, o.DeltaMul, o.Measure = 1, 4, 1, 2, 1, measure
			if _, err := Mine(context.Background(), &buf, ds, o); err == nil || !strings.Contains(err.Error(), "nm measure only") {
				t.Errorf("-measure %s with %s: err = %v, want the nm-only refusal", measure, name, err)
			}
		}
	}
}

func TestMineSavePatterns(t *testing.T) {
	ds, err := Generate(GenOptions{Kind: "zebra", N: 6, Len: 20, U: 0.02, C: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/pats.json"
	var buf bytes.Buffer
	if _, err := Mine(context.Background(), &buf, ds, MineOptions{
		K: 3, GridN: 8, MinLen: 1, MaxLen: 3, DeltaMul: 1,
		Measure: "nm", SavePath: path,
	}); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadPatterns(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 3 {
		t.Errorf("loaded %d patterns", len(loaded))
	}
}

// TestMineResume covers -resume through core.LoadResume: a missing
// checkpoint starts fresh, a saved one resumes, and a checkpoint of
// another problem or a corrupt file fails the run.
func TestMineResume(t *testing.T) {
	ds, err := Generate(GenOptions{Kind: "zebra", N: 6, Len: 20, U: 0.02, C: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	mine := func(k, maxIters int) (string, error) {
		var buf bytes.Buffer
		_, err := Mine(context.Background(), &buf, ds, MineOptions{
			K: k, GridN: 8, MinLen: 1, MaxLen: 3, DeltaMul: 1, Measure: "nm",
			MaxIters: maxIters, CheckpointPath: ckpt, Resume: true,
		})
		return buf.String(), err
	}
	if out, err := mine(3, 2); err != nil || !strings.Contains(out, "starting fresh") {
		t.Fatalf("resume without a checkpoint: %v\n%s", err, out)
	}
	if out, err := mine(3, 0); err != nil || !strings.Contains(out, "resuming from") {
		t.Fatalf("resume from a checkpoint: %v\n%s", err, out)
	}
	var fpErr *core.FingerprintMismatchError
	if _, err := mine(4, 0); !errors.As(err, &fpErr) {
		t.Errorf("resume of another problem's checkpoint: err = %v, want a fingerprint mismatch", err)
	}
	if err := os.WriteFile(ckpt, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := mine(3, 0); err == nil {
		t.Error("resume from a corrupt checkpoint succeeded")
	}
}

// TestMineInterruptNotice: both run bounds end an nm run early, and the
// report names which one: -maxiters through the miner, -maxwall through
// a deadline on the context.
func TestMineInterruptNotice(t *testing.T) {
	ds, err := Generate(GenOptions{Kind: "zebra", N: 6, Len: 20, U: 0.02, C: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		opts MineOptions
		want string
	}{
		{MineOptions{MaxIters: 1}, "interrupted (max iterations 1 reached)"},
		{MineOptions{MaxWallTime: time.Nanosecond}, "interrupted (max wall time 1ns elapsed)"},
	} {
		o := tc.opts
		o.K, o.GridN, o.MinLen, o.MaxLen, o.DeltaMul, o.Measure = 3, 8, 1, 3, 1, "nm"
		var buf bytes.Buffer
		if _, err := Mine(context.Background(), &buf, ds, o); err != nil {
			t.Fatalf("%+v: %v", tc.opts, err)
		}
		if !strings.Contains(buf.String(), tc.want) {
			t.Errorf("%+v: report lacks %q:\n%s", tc.opts, tc.want, buf.String())
		}
	}
	var buf bytes.Buffer
	if _, err := Mine(context.Background(), &buf, ds, MineOptions{
		K: 3, GridN: 8, MinLen: 1, MaxLen: 3, DeltaMul: 1, Measure: "nm", MaxWallTime: -time.Second,
	}); err == nil {
		t.Error("negative wall budget accepted")
	}
}

func TestLogFlagsFormats(t *testing.T) {
	for format, ok := range map[string]bool{"text": true, "json": true, " JSON ": true, "plain": false, "": false} {
		f := LogFlags{Format: format, Level: "info"}
		logger, err := f.Logger(io.Discard)
		if (err == nil) != ok || (logger != nil) != ok {
			t.Errorf("-log-format %q: logger %v, err %v; want accepted = %t", format, logger, err, ok)
		}
	}
}

// TestLogFlagsLevels: -log-level takes only the levels that change the
// output. Nothing logs below info, so debug is refused like a typo.
func TestLogFlagsLevels(t *testing.T) {
	for level, ok := range map[string]bool{"info": true, "warn": true, " ERROR ": true, "debug": false, "eror": false, "": false} {
		f := LogFlags{Format: "text", Level: level}
		logger, err := f.Logger(io.Discard)
		if (err == nil) != ok || (logger != nil) != ok {
			t.Errorf("-log-level %q: logger %v, err %v; want accepted = %t", level, logger, err, ok)
		}
	}
}

// Package cli implements the logic behind the trajgen and trajmine
// command-line tools, factored out of the main packages so it can be
// tested directly: dataset generation dispatch, grid fitting, mining
// dispatch across the three measures, and report formatting.
package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"trajpattern/internal/baseline"
	"trajpattern/internal/core"
	"trajpattern/internal/datagen"
	"trajpattern/internal/exp"
	"trajpattern/internal/grid"
	"trajpattern/internal/obs"
	"trajpattern/internal/trace"
	"trajpattern/internal/traj"
	"trajpattern/internal/viz"
)

// GenOptions parameterizes dataset generation (the trajgen tool).
type GenOptions struct {
	Kind  string  // "zebra", "tpr", "posture" or "bus"
	N     int     // trajectories (zebra/tpr/posture)
	Len   int     // average trajectory length
	U     float64 // tolerable uncertainty distance
	C     float64 // confidence constant
	Scale float64 // bus pipeline scale
	Seed  uint64
}

// Generate builds the requested dataset. It refuses, as flag errors, the
// values the generators would read as "unset" (a zero count, length,
// scale, U or c) or refuse without naming the flag.
func Generate(o GenOptions) (traj.Dataset, error) {
	switch {
	case !(o.U > 0):
		return nil, flagErrorf("u", "tolerable uncertainty U must be > 0, got %v", o.U)
	case !(o.C > 0):
		return nil, flagErrorf("c", "confidence constant c must be > 0, got %v", o.C)
	case o.Kind == "bus":
		if !(o.Scale > 0 && o.Scale <= 1) {
			return nil, flagErrorf("scale", "bus dataset scale must be in (0,1], got %v", o.Scale)
		}
	case o.N < 1:
		return nil, flagErrorf("n", "number of trajectories must be >= 1, got %d", o.N)
	case o.Len < 2:
		return nil, flagErrorf("len", "trajectory length must be >= 2, got %d", o.Len)
	}
	switch o.Kind {
	case "zebra":
		return datagen.ZebraDataset(datagen.ZebraConfig{
			NumZebras: o.N, AvgLen: o.Len, Seed: o.Seed,
		}, o.U, o.C)
	case "tpr":
		return datagen.TPRDataset(datagen.TPRConfig{
			NumObjects: o.N, Length: o.Len, Seed: o.Seed,
		}, o.U, o.C)
	case "posture":
		return datagen.PostureDataset(datagen.PostureConfig{
			NumSubjects: o.N, Length: o.Len, Seed: o.Seed,
		}, o.U, o.C)
	case "bus":
		data, err := exp.MakeBusData(exp.BusOptions{Scale: o.Scale, U: o.U, C: o.C, Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		return data.Velocities, nil
	default:
		return nil, flagErrorf("kind", "unknown kind %q (want zebra, tpr, posture or bus)", o.Kind)
	}
}

// MineOptions parameterizes a mining run (the trajmine tool).
type MineOptions struct {
	K        int
	GridN    int
	MinLen   int
	MaxLen   int
	DeltaMul float64 // δ as a multiple of the grid cell size
	Measure  string  // "nm", "pb" or "match"
	Groups   bool    // cluster the result into pattern groups
	Viz      bool    // render ASCII maps
	SavePath string  // when set, persist the scored patterns as JSON
	Metrics  bool    // collect and print an obs metrics snapshot

	// MetricsOut, when non-empty, writes the provenance-stamped metrics
	// report (obs.Report JSON) to this path.
	MetricsOut string
	// Tracer, when non-nil, records structured spans and events of the run
	// (the caller writes the journal; see trace.Tracer.Save).
	Tracer *trace.Tracer
	// OnProgress, when non-nil, receives the miner's per-iteration state
	// (ProgressLine under -progress). NM measure only: the pb and match
	// measures refuse a non-nil OnProgress.
	OnProgress func(core.Progress)

	// MaxIters bounds the miner's grow iterations (0 = miner default).
	// NM measure only.
	MaxIters int
	// MaxWallTime, when > 0, bounds the run's wall-clock duration through
	// ctx: when it elapses, the batch in flight is cancelled and the miner
	// reports the last completed boundary's top-k as an interrupted
	// result. NM only.
	MaxWallTime time.Duration
	// CheckpointPath, when non-empty, makes the miner write crash-safe
	// checkpoints there (see core.MinerConfig.CheckpointPath). NM only.
	CheckpointPath string
	// Resume restores miner state from CheckpointPath before mining. A
	// missing checkpoint file starts a fresh run (so a crash-looped
	// service can always pass -resume).
	Resume bool
}

// flagError is a command-line value a tool refuses. ExitCode maps it to
// 2, the status the flag package exits with on a malformed value.
type flagError string

func (e flagError) Error() string { return string(e) }

// flagErrorf reports the value of flag -name as refused.
func flagErrorf(name, format string, args ...any) error {
	return flagError("cli: -" + name + ": " + fmt.Sprintf(format, args...))
}

// ExitCode is the process status for a tool's failure err: 2 for a
// refused flag value, 1 for anything else.
func ExitCode(err error) int {
	var fe flagError
	if errors.As(err, &fe) {
		return 2
	}
	return 1
}

// checkGrid refuses a grid side below 1 and a δ multiple that is not
// finite and positive: the -gridn and -delta values of trajmine and
// trajserve, which a zero would otherwise turn into a default.
func checkGrid(gridN int, deltaMul float64) error {
	if gridN < 1 {
		return flagErrorf("gridn", "grid side GridN must be >= 1, got %d", gridN)
	}
	if !(deltaMul > 0) || math.IsInf(deltaMul, 1) {
		return flagErrorf("delta", "DeltaMul (δ in cell widths) must be finite and > 0, got %v", deltaMul)
	}
	return nil
}

// CheckServeFlags refuses the trajserve values that serve.Config or
// serve.Run would read as "unset" or clamp to a default: a zero grid side,
// δ, -capacity, -queue or -deadline, a -grace that is not positive, and a
// negative -ingest-window. A negative -capacity, -queue or -deadline keeps
// serve.Config's meaning: unlimited, unbounded, no deadline.
func CheckServeFlags(gridN int, deltaMul float64, ingestWindow int, capacity int64, queue int, deadline, grace time.Duration) error {
	if err := checkGrid(gridN, deltaMul); err != nil {
		return err
	}
	switch {
	case ingestWindow < 0:
		return flagErrorf("ingest-window", "per-object record cap must be >= 0 (0 = the default), got %d", ingestWindow)
	case capacity == 0:
		return flagErrorf("capacity", "admission capacity must not be 0 (negative = unlimited)")
	case queue == 0:
		return flagErrorf("queue", "wait-queue bound must not be 0 (negative = unbounded)")
	case deadline == 0:
		return flagErrorf("deadline", "request deadline must not be 0 (negative = none)")
	case grace <= 0:
		return flagErrorf("grace", "drain grace must be > 0, got %v", grace)
	}
	return nil
}

// FitGrid is ds.FitGrid, under the name the perfbench module calls.
func FitGrid(ds traj.Dataset, n int) *grid.Grid { return ds.FitGrid(n) }

// checkMine refuses the trajmine values that the miners would refuse
// without naming the flag, or read as "unset" and replace: a measure
// other than nm, pb and match, k below 1, a length bound below 1 or
// crossing the other, a negative -maxiters or -maxwall, -resume without
// -checkpoint, and the nm-only options given to pb or match. -maxiters 0
// is the documented default.
func checkMine(o MineOptions) error {
	switch {
	case o.Measure != "nm" && o.Measure != "pb" && o.Measure != "match":
		return flagErrorf("measure", "unknown measure %q (want nm, pb or match)", o.Measure)
	case o.K < 1:
		return flagErrorf("k", "number of patterns must be >= 1, got %d", o.K)
	case o.MinLen < 1:
		return flagErrorf("minlen", "minimum pattern length must be >= 1, got %d", o.MinLen)
	case o.MaxLen < o.MinLen:
		return flagErrorf("maxlen", "maximum pattern length must be >= -minlen %d, got %d", o.MinLen, o.MaxLen)
	case o.MaxIters < 0:
		return flagErrorf("maxiters", "iteration bound must be >= 0 (0 = the default), got %d", o.MaxIters)
	case o.MaxWallTime < 0:
		return flagErrorf("maxwall", "wall-clock budget must be >= 0, got %v", o.MaxWallTime)
	}
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"checkpoint", o.CheckpointPath != ""},
		{"resume", o.Resume},
		{"maxwall", o.MaxWallTime != 0},
		{"maxiters", o.MaxIters != 0},
		{"progress", o.OnProgress != nil},
	} {
		if f.set && o.Measure != "nm" {
			return flagErrorf(f.name, "supported for the nm measure only, not %q", o.Measure)
		}
	}
	if o.Resume && o.CheckpointPath == "" {
		return flagErrorf("resume", "requires -checkpoint")
	}
	return nil
}

// Mine runs the requested miner over the dataset and writes a human
// readable report to w. It returns the mined patterns for further use.
//
// Cancelling ctx interrupts an NM run gracefully: the report is written
// for the best-so-far top-k (flagged as interrupted) and partial results
// are still saved. The pb/match baselines do not support interruption.
func Mine(ctx context.Context, w io.Writer, ds traj.Dataset, o MineOptions) ([]core.Pattern, error) {
	if len(ds) == 0 {
		return nil, fmt.Errorf("cli: empty dataset")
	}
	if err := checkMine(o); err != nil {
		return nil, err
	}
	if err := checkGrid(o.GridN, o.DeltaMul); err != nil {
		return nil, err
	}
	g := ds.FitGrid(o.GridN)
	var reg *obs.Registry // nil unless -metrics: the nil registry is free
	if o.Metrics || o.MetricsOut != "" {
		reg = obs.New()
	}
	s, err := core.NewScorer(ds, core.Config{
		Grid: g, Delta: o.DeltaMul * g.CellWidth(), Metrics: reg, Tracer: o.Tracer,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "dataset: %d trajectories, avg length %.1f, grid %d×%d over %v\n",
		ds.NumTrajectories(), ds.AvgLength(), g.NX(), g.NY(), g.Bounds())

	var patterns []core.Pattern
	var scored []core.ScoredPattern
	switch o.Measure {
	case "nm":
		mcfg := core.MinerConfig{
			K: o.K, MinLen: o.MinLen, MaxLen: o.MaxLen,
			MaxIters: o.MaxIters, CheckpointPath: o.CheckpointPath,
			Metrics: reg, Tracer: o.Tracer, OnProgress: o.OnProgress,
		}
		if o.Resume {
			ck, err := core.LoadResume(o.CheckpointPath)
			if err != nil {
				return nil, err
			}
			if ck == nil {
				fmt.Fprintf(w, "no checkpoint at %s; starting fresh\n", o.CheckpointPath)
			} else {
				fmt.Fprintf(w, "resuming from %s (iteration %d, |Q| %d)\n",
					o.CheckpointPath, ck.Iteration, len(ck.Q))
			}
			mcfg.Resume = ck
		}
		ctx, cancel := core.WithWallBudget(ctx, o.MaxWallTime)
		defer cancel()
		res, err := core.Mine(ctx, s, mcfg)
		if err != nil {
			return nil, err
		}
		if res.Interrupted {
			fmt.Fprintf(w, "interrupted (%s): reporting best-so-far results\n", res.InterruptReason)
		}
		fmt.Fprintf(w, "TrajPattern: %d iterations, %d candidates, max |Q| %d, pruned %d\n",
			res.Stats.Iterations, res.Stats.Candidates, res.Stats.MaxQ, res.Stats.Pruned)
		for i, sp := range res.Patterns {
			fmt.Fprintf(w, "%3d. NM=%-10.4f len=%d  %s\n", i+1, sp.NM, len(sp.Pattern), sp.Pattern.Format(g))
			patterns = append(patterns, sp.Pattern)
		}
		scored = res.Patterns
	case "pb":
		res, err := baseline.MinePB(s, baseline.PBConfig{K: o.K, MinLen: o.MinLen, MaxLen: o.MaxLen})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "PB: %d prefixes expanded, %d pruned\n",
			res.Stats.PrefixesExpanded, res.Stats.PrefixesPruned)
		for i, sp := range res.Patterns {
			fmt.Fprintf(w, "%3d. NM=%-10.4f len=%d  %s\n", i+1, sp.NM, len(sp.Pattern), sp.Pattern.Format(g))
			patterns = append(patterns, sp.Pattern)
		}
		scored = res.Patterns
	case "match":
		res, err := baseline.MineMatch(s, baseline.MatchConfig{K: o.K, MinLen: o.MinLen, MaxLen: o.MaxLen})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "match miner: %d levels, %d candidates\n", res.Stats.Levels, res.Stats.Candidates)
		for i, sm := range res.Patterns {
			fmt.Fprintf(w, "%3d. match=%-10.4f len=%d  %s\n", i+1, sm.Match, len(sm.Pattern), sm.Pattern.Format(g))
			patterns = append(patterns, sm.Pattern)
			scored = append(scored, core.ScoredPattern{Pattern: sm.Pattern, NM: sm.Match})
		}
	}

	if o.SavePath != "" {
		if err := core.SavePatterns(o.SavePath, scored); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "saved %d patterns to %s\n", len(scored), o.SavePath)
	}

	if reg != nil {
		snap := reg.Snapshot()
		if o.Metrics {
			fmt.Fprintf(w, "\nmetrics:\n%s", snap)
		}
		if o.MetricsOut != "" {
			if err := obs.NewReport(snap).WriteFile(o.MetricsOut); err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "wrote metrics report to %s\n", o.MetricsOut)
		}
	}

	if o.Viz && len(patterns) > 0 {
		fmt.Fprintln(w)
		fmt.Fprint(w, viz.Density(ds, g, "data density (mean locations):"))
		fmt.Fprintln(w)
		fmt.Fprint(w, viz.PatternPath(patterns[0], g, "best pattern (a→b→c…):"))
	}

	if o.Groups && len(patterns) > 0 {
		gamma := core.DefaultGamma(ds.MeanSigma())
		gs, err := core.DiscoverGroups(patterns, g, gamma, o.Tracer)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "\npattern groups (γ = 3σ̄ = %.4g): %d groups for %d patterns\n",
			gamma, len(gs), len(patterns))
		for i, grp := range gs {
			fmt.Fprintf(w, "group %d (%d members, length %d):\n", i+1, grp.Len(), grp.PatternLen())
			for _, m := range grp.Members {
				fmt.Fprintf(w, "   %s\n", m.Format(g))
			}
		}
	}
	return patterns, nil
}

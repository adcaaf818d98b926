package cli

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"trajpattern/internal/core"
	"trajpattern/internal/exp"
	"trajpattern/internal/faultio"
	"trajpattern/internal/obs"
	"trajpattern/internal/trace"
)

// BenchSchema versions the bench.json layout; bump on incompatible change.
const BenchSchema = 1

// DefaultBenchTolerance is trajbench's default -check drift tolerance,
// in percent.
const DefaultBenchTolerance = 15

// benchExperiments is the canonical experiment order of the trajbench tool.
var benchExperiments = []string{
	"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9",
	"a1", "a2", "a4", "a5", "a6",
}

// BenchOptions parameterizes a trajbench run.
type BenchOptions struct {
	// Experiments selects experiment ids; nil or ["all"] runs everything.
	Experiments []string
	// Scale shrinks the workloads, as in the individual experiments: a
	// value in (0,1], with no zero default.
	Scale float64
	// Seed is the shared random seed.
	Seed uint64
	// ShowMetrics prints each experiment's obs snapshot after its table.
	ShowMetrics bool
	// JSONPath, when non-empty, writes the machine-readable BenchResult
	// (bench.json) there.
	JSONPath string
	// CheckPath, when non-empty, loads a baseline BenchResult from this
	// file and fails the run when the current results drift beyond TolPct.
	CheckPath string
	// TolPct is the allowed drift percentage for CheckPath comparisons.
	// Zero demands exact counters; a negative value is refused.
	TolPct float64

	// Tracer, when non-nil, records spans and events across every
	// instrumented experiment (the caller writes the files; see
	// trace.Tracer.Save).
	Tracer *trace.Tracer
	// Progress, when non-nil, receives per-iteration miner state from the
	// sweep experiments (ProgressLine under -progress).
	Progress func(core.Progress)
}

// ExperimentResult is one experiment's entry in bench.json.
type ExperimentResult struct {
	// NS is the experiment's wall time in nanoseconds.
	NS int64 `json:"ns"`
	// Allocs/Bytes are the heap allocation count and volume during the
	// experiment (runtime.MemStats deltas; indicative, not gated).
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
	// Work holds the obs counters (candidates, prunes, NM evaluations, …)
	// that the -check gate compares. Every counter is deterministic for a
	// fixed scale and seed, whatever the worker count.
	Work map[string]int64 `json:"work,omitempty"`
	// Metrics is the full obs snapshot, with the gauges and timers the
	// gate does not compare.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// BenchResult is the machine-readable output of one trajbench run
// (bench.json), comparable across commits via RunBench's check mode.
type BenchResult struct {
	Schema int `json:"schema"`
	// Provenance stamps the build and host that produced the run (commit,
	// Go version, GOOS/GOARCH, GOMAXPROCS), so drift flagged against a
	// baseline is attributable to a code change versus an environment one.
	Provenance  obs.Provenance               `json:"provenance"`
	Scale       float64                      `json:"scale"`
	Seed        uint64                       `json:"seed"`
	Experiments map[string]*ExperimentResult `json:"experiments"`
}

// RunBench executes the selected experiments, printing each table (or
// the experiment's failure) to w, and returns the machine-readable
// result. Per BenchOptions it also prints obs snapshots, writes
// bench.json, and compares against a baseline, printing each regression
// to w and returning a non-nil error if any experiment or the
// regression check failed — the error the trajbench command turns into
// a non-zero exit.
//
// Cancelling ctx stops the run at the next experiment boundary; an
// experiment cut short mid-run is discarded (its timings would be
// bogus), completed experiments are still written to bench.json, and the
// returned error names the interruption.
func RunBench(ctx context.Context, w io.Writer, o BenchOptions) (*BenchResult, error) {
	selected, err := selectExperiments(o.Experiments)
	if err != nil {
		return nil, err
	}
	if !(o.Scale > 0 && o.Scale <= 1) {
		return nil, flagErrorf("scale", "workload scale must be in (0,1], got %v", o.Scale)
	}
	if !(o.TolPct >= 0) {
		return nil, flagErrorf("tol", "drift tolerance must be >= 0 percent, got %v", o.TolPct)
	}

	result := &BenchResult{
		Schema:      BenchSchema,
		Provenance:  obs.CollectProvenance(),
		Scale:       o.Scale,
		Seed:        o.Seed,
		Experiments: make(map[string]*ExperimentResult),
	}

	var failures []string
	for _, id := range benchExperiments {
		if !selected[id] {
			continue
		}
		reg := obs.New()
		bus := exp.BusOptions{Scale: o.Scale, Seed: o.Seed}
		sweep := exp.SweepOptions{
			Scale: o.Scale, Seed: o.Seed,
			Metrics: reg, Tracer: o.Tracer, Progress: o.Progress,
		}

		if err := ctx.Err(); err != nil {
			failures = append(failures, fmt.Sprintf("interrupted before %s (%v)", id, context.Cause(ctx)))
			break
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		out, err := runExperiment(ctx, id, bus, sweep)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)

		if ctx.Err() != nil {
			// The experiment ran against a cancelled context: its miner
			// runs degraded to partial answers and its timings measure an
			// aborted workload, so the entry is dropped rather than
			// recorded as a bogus data point.
			failures = append(failures, fmt.Sprintf("%s: interrupted (%v)", id, context.Cause(ctx)))
			break
		}
		if err != nil {
			fmt.Fprintf(w, "%s failed: %v\n\n", id, err)
			failures = append(failures, fmt.Sprintf("%s: %v", id, err))
			continue
		}
		fmt.Fprintln(w, out.String())
		fmt.Fprintf(w, "(%s completed in %.1fs)\n\n", id, elapsed.Seconds())

		snap := reg.Snapshot()
		er := &ExperimentResult{
			NS:     elapsed.Nanoseconds(),
			Allocs: after.Mallocs - before.Mallocs,
			Bytes:  after.TotalAlloc - before.TotalAlloc,
			Work:   snap.Counters,
		}
		if len(snap.Counters)+len(snap.Gauges)+len(snap.Timers) > 0 {
			er.Metrics = &snap
			if o.ShowMetrics {
				fmt.Fprintf(w, "%s metrics:\n%s\n", id, snap)
			}
		}
		result.Experiments[id] = er
	}

	if o.JSONPath != "" {
		if err := writeBenchJSON(o.JSONPath, result); err != nil {
			return result, err
		}
		fmt.Fprintf(w, "wrote %s\n", o.JSONPath)
	}

	if o.CheckPath != "" {
		baseline, err := LoadBenchResult(o.CheckPath)
		if err != nil {
			return result, err
		}
		regressions := CheckRegression(baseline, result, o.TolPct)
		if len(regressions) > 0 {
			for _, r := range regressions {
				fmt.Fprintf(w, "regression: %s\n", r)
			}
			failures = append(failures, fmt.Sprintf(
				"%d regression(s) beyond %.4g%% against %s", len(regressions), o.TolPct, o.CheckPath))
		} else {
			fmt.Fprintf(w, "check against %s passed (tolerance %.4g%%)\n", o.CheckPath, o.TolPct)
		}
	}

	if len(failures) > 0 {
		return result, fmt.Errorf("trajbench: %s", strings.Join(failures, "; "))
	}
	return result, nil
}

// selectExperiments resolves the -exp selection, rejecting unknown ids so
// a typo in a CI command fails loudly instead of silently running nothing.
func selectExperiments(ids []string) (map[string]bool, error) {
	known := make(map[string]bool, len(benchExperiments))
	for _, id := range benchExperiments {
		known[id] = true
	}
	selected := map[string]bool{}
	if len(ids) == 0 {
		ids = []string{"all"}
	}
	for _, raw := range ids {
		id := strings.TrimSpace(strings.ToLower(raw))
		if id == "all" {
			for _, k := range benchExperiments {
				selected[k] = true
			}
			continue
		}
		if !known[id] {
			return nil, flagErrorf("exp", "unknown experiment %q (want %s or all)",
				id, strings.Join(benchExperiments, ", "))
		}
		selected[id] = true
	}
	return selected, nil
}

// runExperiment dispatches one experiment id.
func runExperiment(ctx context.Context, id string, bus exp.BusOptions, sweep exp.SweepOptions) (fmt.Stringer, error) {
	switch id {
	case "e1":
		r, err := exp.RunE1(ctx, exp.E1Options{Bus: bus})
		if err != nil {
			return nil, err
		}
		return r.Table, nil
	case "e2":
		r, err := exp.RunE2(ctx, exp.E2Options{Bus: bus})
		if err != nil {
			return nil, err
		}
		return r.Table, nil
	case "e3":
		return derefSeries(exp.RunE3(ctx, sweep))
	case "e4":
		return derefSeries(exp.RunE4(ctx, sweep))
	case "e5":
		return derefSeries(exp.RunE5(ctx, sweep))
	case "e6":
		return derefSeries(exp.RunE6(ctx, sweep))
	case "e7":
		return derefSeries(exp.RunE7(ctx, sweep))
	case "e8":
		r, err := exp.RunE8(ctx, exp.E8Options{Seed: sweep.Seed})
		if err != nil {
			return nil, err
		}
		return r.Table, nil
	case "e9":
		r, err := exp.RunE9(ctx, exp.E9Options{Bus: bus})
		if err != nil {
			return nil, err
		}
		return r.Table, nil
	case "a1":
		return derefTable(exp.RunA1(ctx, sweep))
	case "a2":
		return derefTable(exp.RunA2(ctx, sweep))
	case "a4":
		return derefTable(exp.RunA4(ctx, sweep))
	case "a5":
		return derefTable(exp.RunA5(ctx, sweep))
	case "a6":
		return derefTable(exp.RunA6(ctx, sweep))
	default:
		return nil, fmt.Errorf("cli: unknown experiment %q", id)
	}
}

func derefSeries(s *exp.Series, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	return *s, nil
}

func derefTable(t *exp.Table, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	return *t, nil
}

// writeBenchJSON writes r as indented JSON, atomically (temp file +
// fsync + rename) so an interrupted run never leaves a torn bench.json.
func writeBenchJSON(path string, r *BenchResult) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("cli: marshal bench result: %w", err)
	}
	if err := faultio.WriteFileAtomic(nil, path, func(w io.Writer) error {
		_, werr := w.Write(append(data, '\n'))
		return werr
	}); err != nil {
		return fmt.Errorf("cli: write bench result: %w", err)
	}
	return nil
}

// LoadBenchResult reads a bench.json written by RunBench.
func LoadBenchResult(path string) (*BenchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cli: read baseline: %w", err)
	}
	var r BenchResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("cli: parse baseline %s: %w", path, err)
	}
	if r.Schema != BenchSchema {
		return nil, fmt.Errorf("cli: baseline %s has schema %d, want %d (regenerate with -json)",
			path, r.Schema, BenchSchema)
	}
	return &r, nil
}

// CheckRegression compares the current run against a baseline and returns
// one description per violation. Work counters are deterministic for a
// fixed scale and seed, so they are compared two-sided: any drift beyond
// tolPct — more work (a perf regression) or less (a silently shrunken
// workload) — is flagged, as is a counter that disappeared. Wall time is
// not compared: it depends on the machine.
func CheckRegression(baseline, current *BenchResult, tolPct float64) []string {
	var out []string
	if baseline.Scale != current.Scale || baseline.Seed != current.Seed {
		return []string{fmt.Sprintf(
			"baseline was produced at scale=%v seed=%d, current run is scale=%v seed=%d — incomparable",
			baseline.Scale, baseline.Seed, current.Scale, current.Seed)}
	}
	ids := make([]string, 0, len(baseline.Experiments))
	for id := range baseline.Experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		base := baseline.Experiments[id]
		cur, ok := current.Experiments[id]
		if !ok {
			continue // not part of this run (e.g. -exp subset)
		}
		keys := make([]string, 0, len(base.Work))
		for k := range base.Work {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			bv := base.Work[k]
			cv, ok := cur.Work[k]
			if !ok {
				out = append(out, fmt.Sprintf("%s: counter %s missing (baseline %d)", id, k, bv))
				continue
			}
			if bv == 0 {
				if cv != 0 {
					out = append(out, fmt.Sprintf("%s: %s = %d, baseline 0", id, k, cv))
				}
				continue
			}
			drift := 100 * (float64(cv) - float64(bv)) / float64(bv)
			if drift > tolPct || drift < -tolPct {
				out = append(out, fmt.Sprintf("%s: %s = %d vs baseline %d (%+.1f%%, tolerance ±%.4g%%)",
					id, k, cv, bv, drift, tolPct))
			}
		}
	}
	return out
}

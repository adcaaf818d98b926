// Command perfbench is the repository benchmark. Every run covers the three
// ways the system is used, as phases of one process:
//
//   - mine-cold: an analyst's cold top-k mining run (core.NewScorer, cell
//     build, core.Mine).
//   - fig4-pb: one point of the paper's Figure 4, TrajPattern against the
//     PB baseline on fresh scorers.
//   - serve-ingest: an in-process trajserve over loopback HTTP with durable
//     ingest, driven open loop by a seeded Poisson mix of /v1/ingest,
//     /v1/score, /v1/predict, /v1/mine and /v1/ingest/status.
//
// The mine-cold and fig4-pb ops alternate in one closed loop with one
// caller; traced runs also saturate the server with back-to-back ingest.
//
// The workload picks the grid size of every phase's instance (see
// workloads). With -trace 0 the run prints the end-to-end metrics; with
// -trace 1 it attaches an obs.Registry and a trace.Tracer through the
// program's public config hooks, times its own calls into each layer, and
// prints the per-layer metrics. The last line of standard output is one JSON
// object; the lines before it are a human-readable table. The run exits 1
// when any correctness check fails.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload default --seed 1 --seconds 50 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"trajpattern/internal/obs"
)

// workload is one point on the grid-size axis G of the paper's Figure 4(d)
// (experiment E6): the grid side of each phase's instance. "default" is the
// paper's default instance; "coarse" takes every grid one step down E6's
// sweep (sides 6, 9, 12, 18), which shrinks the cell build and PB's
// candidate set and changes what TrajPattern's pruning has to do.
type workload struct {
	Name                            string
	MineGridN, FigGridN, ServeGridN int
}

var workloads = map[string]workload{
	"default": {Name: "default", MineGridN: 16, FigGridN: 12, ServeGridN: 12},
	"coarse":  {Name: "coarse", MineGridN: 12, FigGridN: 9, ServeGridN: 9},
}

// metricDef is one named metric. The lists below must match BENCHMARK.json
// (a test checks this).
type metricDef struct {
	Name, Unit, Better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"mine_s", "s", "lower"},
	{"mine_alloc_mb", "MB", "lower"},
	{"fig4_s", "s", "lower"},
	{"score_p50_ms", "ms", "lower"},
	{"predict_p50_ms", "ms", "lower"},
	{"fresh_p50_ms", "ms", "lower"},
	{"fresh_p90_ms", "ms", "lower"},
}

var perLayer = []metricDef{
	{"scorer.cellbuild_s", "s", "lower"},
	{"scorer.probs", "count", "lower"},
	{"scorer.ns_per_prob", "ns", "lower"},
	{"scorer.batch_s", "s", "lower"},
	{"scorer.nm_evals", "count", "lower"},
	{"scorer.ns_per_nm", "ns", "lower"},
	{"scorer.cache_hits", "count", "higher"},
	{"miner.self_s", "s", "lower"},
	{"miner.iterations", "count", "lower"},
	{"miner.candidates_fresh", "count", "lower"},
	{"miner.readmitted", "count", "lower"},
	{"miner.pruned", "count", "higher"},
	{"miner.q_peak", "count", "lower"},
	{"pb.s", "s", "lower"},
	{"tp.s", "s", "lower"},
	{"pb.nm_evals", "count", "lower"},
	{"pb.prefixes_expanded", "count", "lower"},
	{"pb.prefixes_pruned", "count", "higher"},
	{"pb.ns_per_traj_eval", "ns", "lower"},
	{"shard.mine2_s", "s", "lower"},
	{"shard.nm_evals2", "count", "lower"},
	{"serve.queue_wait_p99_ms", "ms", "lower"},
	{"serve.score_server_p50_ms", "ms", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.score_p99_ms", "ms", "lower"},
	{"serve.predict_p99_ms", "ms", "lower"},
	{"predict.step_us", "us", "lower"},
	{"ingest.commit_p50_ms", "ms", "lower"},
	{"ingest.commit_p99_ms", "ms", "lower"},
	{"ingest.records_per_batch", "records/batch", "higher"},
	{"ingest.shed", "count", "lower"},
	{"ingest.replay_s", "s", "lower"},
	{"ingest.max_rps", "reports/s", "higher"},
	{"ingest.ack_p50_ms", "ms", "lower"},
	{"ingest.ack_p90_ms", "ms", "lower"},
	{"remine.generations", "count", "higher"},
	{"remine.generation_ms", "ms", "lower"},
	{"traj.sync_ms", "ms", "lower"},
	{"gen.late_p99_ms", "ms", "lower"},
	{"mine.residual_s", "s", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// options configures one run.
type options struct {
	Workload workload
	Seed     uint64
	Seconds  float64
	Trace    bool
	Inst     instance
	OutDir   string // where the run's record and spans are written; "" writes nothing
}

// report accumulates one run's outcome.
type report struct {
	E2E       map[string]float64
	Layer     map[string]float64
	Attempted int
	Failed    int
	Problems  []string
	Notes     []string // human-readable detail printed with the table
	Invalid   string   // non-empty when the run's own measurement was unsound
	spans     *recorder
}

// fail counts one failed operation or check and keeps its reason.
func (r *report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return r.Failed == 0 && r.Invalid == "" }

// run executes one benchmark run: set-up, the closed loop of mine-cold and
// fig4-pb ops, then the serve-ingest phase, each given its share of
// o.Seconds.
func run(ctx context.Context, o options) (*report, error) {
	rep := &report{E2E: map[string]float64{}, Layer: map[string]float64{}}
	if o.Trace {
		rep.spans = newRecorder()
	}
	budget := func(share float64) time.Duration {
		return time.Duration(share * o.Seconds * float64(time.Second))
	}
	env, err := setup(ctx, o)
	if err != nil {
		return nil, err
	}
	err = phases(ctx, o, env, rep, budget)
	if cerr := env.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return rep, nil
}

func phases(ctx context.Context, o options, env *env, rep *report, budget func(float64) time.Duration) error {
	if err := closedLoop(ctx, o, env, rep, budget(o.Inst.LoopShare)); err != nil {
		return err
	}
	if o.Trace {
		if err := shardMine(ctx, o, env, rep); err != nil {
			return err
		}
	}
	return serveIngest(ctx, o, env, rep, budget(o.Inst.ServeShare))
}

// setup builds every phase's inputs and brings the server up to /readyz,
// timed; the server stays up for the run and, outside the timed region,
// takes the prefill. A few set-ups thrown away first pay the fresh
// process's heap growth and page faults.
func setup(ctx context.Context, o options) (*env, error) {
	s := &setupSampler{o: o}
	if err := s.sample(ctx, 3); err != nil {
		return nil, err
	}
	s.times = nil
	runtime.GC()
	start := time.Now()
	e, err := newEnv(ctx, o, s.next())
	if err != nil {
		e.close()
		return nil, err
	}
	s.times = append(s.times, time.Since(start).Seconds())
	e.setups = s
	if err := e.serve.prefill(ctx); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// setupSampler times throwaway set-ups; setup_s is their median. One set-up
// takes about 13 ms, so the closed loop takes a few between its ops: the
// sample then spans the same stretch of the host's load as mine_s and
// fig4_s do, where a burst of load over a couple of seconds moved a
// sample taken all at the start by a quarter.
type setupSampler struct {
	o     options
	n     int
	times []float64
}

func (s *setupSampler) next() int {
	s.n++
	return s.n
}

func (s *setupSampler) sample(ctx context.Context, count int) error {
	for i := 0; i < count; i++ {
		runtime.GC()
		start := time.Now()
		e, err := newEnv(ctx, s.o, s.next())
		took := time.Since(start).Seconds()
		if cerr := e.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		s.times = append(s.times, took)
	}
	return nil
}

func main() {
	name := flag.String("workload", "", "workload name: default or coarse")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 50, "measured time of one run, shared among the phases")
	traced := flag.Int("trace", 0, "1 attaches metrics and tracing and prints the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the run record and spans")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload default|coarse, -trace 0|1 and -seconds > 0\n")
		os.Exit(2)
	}
	o := options{Workload: wl, Seed: *seed, Seconds: *seconds, Trace: *traced == 1,
		Inst: fullInstance(wl), OutDir: *out}
	ctx := context.Background()
	rep, err := run(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, o, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the full run record written under OutDir: the result plus
// provenance, the seed, error_rate, failure reasons and the spans.
type record struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Provenance obs.Provenance `json:"provenance"`
	ErrorRate  float64        `json:"error_rate"`
	Problems   []string       `json:"problems,omitempty"`
	Invalid    string         `json:"invalid,omitempty"`
	Result     result         `json:"result"`
	Spans      []*span        `json:"spans,omitempty"`
}

// emit prints the human-readable table and, last, the JSON result line,
// and writes the run record. A metric the run could not measure is
// reported as a failure rather than omitted.
func emit(w io.Writer, o options, rep *report) error {
	defs, vals := endToEnd, rep.E2E
	if o.Trace {
		defs, vals = perLayer, rep.Layer
	}
	res := result{Attempted: rep.Attempted, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			rep.fail("metric %s not measured (%v)", d.Name, v)
			continue
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	res.Failed, res.Correct = rep.Failed, rep.correct()
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	errRate := float64(rep.Failed) / float64(res.Attempted)

	prov := obs.CollectProvenance()
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%t go=%s nproc=%d gomaxprocs=%d commit=%q\n",
		o.Workload.Name, o.Seed, o.Seconds, o.Trace, prov.GoVersion, prov.NumCPU, prov.GOMAXPROCS, prov.GitCommit)
	for _, d := range defs {
		if m, ok := res.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "%-28s %14.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "%-28s %14.6g ratio (%d failed of %d attempted)\n", "error_rate", errRate, res.Failed, res.Attempted)
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "# FAILED: %s\n", p)
	}
	if rep.Invalid != "" {
		fmt.Fprintf(w, "# INVALID RUN: %s\n", rep.Invalid)
	}

	if o.OutDir != "" {
		rec := record{Workload: o.Workload.Name, Seed: o.Seed, Seconds: o.Seconds, Trace: o.Trace,
			Provenance: prov, ErrorRate: errRate, Problems: rep.Problems, Invalid: rep.Invalid, Result: res}
		if rep.spans != nil {
			rec.Spans = rep.spans.spans
		}
		if err := writeJSONFile(filepath.Join(o.OutDir, "results",
			fmt.Sprintf("%s-seed%d-trace%d.json", o.Workload.Name, o.Seed, btoi(o.Trace))), rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Package trajpattern is the public API of the TrajPattern library, a
// from-scratch Go reproduction of "TrajPattern: Mining Sequential Patterns
// from Imprecise Trajectories of Mobile Objects" (Yang & Hu, EDBT 2006).
//
// The library mines the top-k sequential patterns — by the paper's
// normalized match (NM) measure — from sets of imprecise trajectories,
// where every snapshot of a trajectory is a 2-D normal distribution over
// the object's true location rather than an exact point.
//
// # Quick start
//
//	ds := trajpattern.Dataset{ /* trajectories of (mean, sigma) points */ }
//	g := trajpattern.NewSquareGrid(16)
//	scorer, err := trajpattern.NewScorer(ds, trajpattern.ScorerConfig{
//		Grid:  g,
//		Delta: g.CellWidth(),
//	})
//	if err != nil { ... }
//	res, err := trajpattern.Mine(ctx, scorer, trajpattern.MinerConfig{K: 10})
//	if err != nil { ... }
//	groups, err := trajpattern.DiscoverGroups(patternsOf(res), g,
//		trajpattern.DefaultGamma(ds.MeanSigma()))
//
// The facade re-exports the implementation packages under internal/: the
// trajectory data model (internal/traj), the space grid (internal/grid),
// the scorer and miner (internal/core), the location-reporting simulation
// (internal/report), the prediction models of the Figure 3 experiment
// (internal/predict), the baselines (internal/baseline) and the dataset
// generators (internal/datagen). See DESIGN.md for the full system
// inventory and EXPERIMENTS.md for the reproduced evaluation.
package trajpattern

import (
	"context"

	"trajpattern/internal/baseline"
	"trajpattern/internal/classify"
	"trajpattern/internal/core"
	"trajpattern/internal/datagen"
	"trajpattern/internal/geom"
	"trajpattern/internal/grid"
	"trajpattern/internal/obs"
	"trajpattern/internal/predict"
	"trajpattern/internal/report"
	"trajpattern/internal/stat"
	"trajpattern/internal/trace"
	"trajpattern/internal/traj"
)

// Geometry.
type (
	// Point is a 2-D location or velocity.
	Point = geom.Point
	// Rect is an axis-aligned rectangle.
	Rect = geom.Rect
	// Grid discretizes space into cells; cell centers are pattern positions.
	Grid = grid.Grid
	// Cell is an integer grid coordinate.
	Cell = grid.Cell
)

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// NewRect returns the rectangle spanned by two corners.
func NewRect(a, b Point) Rect { return geom.NewRect(a, b) }

// UnitSquare is the [0,1]² mining space used by the examples.
func UnitSquare() Rect { return geom.UnitSquare() }

// NewGrid partitions bounds into nx × ny cells.
func NewGrid(bounds Rect, nx, ny int) *Grid { return grid.New(bounds, nx, ny) }

// NewSquareGrid partitions the unit square into n × n cells.
func NewSquareGrid(n int) *Grid { return grid.NewSquare(n) }

// Trajectory data model.
type (
	// TrajPoint is one snapshot: true location ~ N(Mean, Sigma²·I).
	TrajPoint = traj.Point
	// Trajectory is a per-snapshot sequence of imprecise locations.
	Trajectory = traj.Trajectory
	// Dataset is a set of trajectories, the mining input.
	Dataset = traj.Dataset
	// Report is one asynchronous location fix (time, location).
	Report = traj.Report
	// SyncConfig describes snapshot synchronization (§3.2).
	SyncConfig = traj.SyncConfig
)

// TrajP builds a TrajPoint from coordinates and standard deviation.
func TrajP(x, y, sigma float64) TrajPoint { return traj.P(x, y, sigma) }

// Synchronize interpolates asynchronous reports onto a snapshot schedule.
func Synchronize(reports []Report, cfg SyncConfig) (Trajectory, error) {
	return traj.Synchronize(reports, cfg)
}

// ReadDatasetFile loads a JSON-lines dataset file.
func ReadDatasetFile(path string) (Dataset, error) { return traj.ReadFile(path) }

// WriteDatasetFile stores a dataset as JSON lines.
func WriteDatasetFile(path string, d Dataset) error { return traj.WriteFile(path, d) }

// Core pattern mining.
type (
	// Pattern is a sequence of grid cell indices.
	Pattern = core.Pattern
	// ScoredPattern pairs a pattern with its NM value.
	ScoredPattern = core.ScoredPattern
	// Scorer evaluates match/NM measures over a dataset.
	Scorer = core.Scorer
	// ScorerConfig parameterizes scoring (grid, δ, probability mode).
	ScorerConfig = core.Config
	// ProbMode selects box or disk Prob(l,σ,p,δ).
	ProbMode = core.ProbMode
	// MinerConfig parameterizes the TrajPattern algorithm.
	MinerConfig = core.MinerConfig
	// MineResult is the miner output (top-k patterns plus statistics).
	MineResult = core.Result
	// MinerStats summarizes the work a Mine call performed.
	MinerStats = core.MinerStats
	// Group is a pattern group: pairwise-similar equal-length patterns.
	Group = core.Group
	// WildPattern is a pattern with "don't care" positions (§5).
	WildPattern = core.WildPattern
	// ScoredWildPattern pairs a wild pattern with its NM value.
	ScoredWildPattern = core.ScoredWildPattern
)

// Probability modes for ScorerConfig.Mode.
const (
	ProbBox  = core.ProbBox
	ProbDisk = core.ProbDisk
)

// Wildcard is the "don't care" cell value in a WildPattern.
const Wildcard = core.Wildcard

// NewScorer indexes a dataset for match/NM evaluation.
func NewScorer(d Dataset, cfg ScorerConfig) (*Scorer, error) { return core.NewScorer(d, cfg) }

// Mine runs the TrajPattern algorithm: top-k patterns by NM. ctx is the
// run's wall-clock bound: cancelling it, or a deadline on it, interrupts
// the run gracefully, as does reaching MinerConfig.MaxIters. The result
// then carries the best-so-far top-k with MineResult.Interrupted set
// rather than an error. See MinerConfig.CheckpointPath and
// MinerConfig.Resume for crash-safe checkpointing of long runs.
func Mine(ctx context.Context, s *Scorer, cfg MinerConfig) (*MineResult, error) {
	return core.Mine(ctx, s, cfg)
}

// MineWithWildcards runs Mine and then the Section 5 wildcard refinement:
// up to maxRun "*" symbols are inserted wherever that improves a mined
// pattern's NM, and the refined set is re-ranked.
func MineWithWildcards(ctx context.Context, s *Scorer, cfg MinerConfig, maxRun int) ([]ScoredWildPattern, *MineResult, error) {
	return core.MineWithWildcards(ctx, s, cfg, maxRun)
}

// DiscoverGroups clusters patterns into pattern groups (§4.2).
func DiscoverGroups(patterns []Pattern, g *Grid, gamma float64) ([]Group, error) {
	return core.DiscoverGroups(patterns, g, gamma, nil)
}

// Similar reports whether two equal-length patterns are within gamma at
// every snapshot (Definition 1).
func Similar(a, b Pattern, g *Grid, gamma float64) bool { return core.Similar(a, b, g, gamma) }

// Observability. Attach a registry via ScorerConfig.Metrics and
// MinerConfig.Metrics to collect miner/scorer instrumentation; leaving the
// fields nil keeps the hot paths free of collection cost.
type (
	// MetricsRegistry collects atomic counters, gauges and phase timers.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry. String
	// renders it as deterministic text; encoding/json marshals it with
	// sorted keys.
	MetricsSnapshot = obs.Snapshot
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.New() }

// Tracing. Attach a tracer via ScorerConfig.Tracer and MinerConfig.Tracer
// to record structured spans (miner iterations, scorer batches) and typed
// events (candidates admitted, pruned, readmitted); a nil tracer keeps the
// hot paths at a single pointer check. Export the records as a JSONL
// journal (Tracer.Journal), a Chrome trace-event file loadable in
// Perfetto (Tracer.WriteChromeTrace), or both files at once (Tracer.Save).
type (
	// Tracer buffers structured spans and events of a mining run.
	Tracer = trace.Tracer
	// TraceEvent is one journal record (span or instant event).
	TraceEvent = trace.Event
	// TraceAttrs carries the key/value payload of a span or event.
	TraceAttrs = trace.Attrs
)

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return trace.New() }

// Provenance identifies the build and host that produced a run.
type Provenance = obs.Provenance

// CollectProvenance captures the current build and host identity.
func CollectProvenance() Provenance { return obs.CollectProvenance() }

// SavePatterns persists scored patterns as JSON.
func SavePatterns(path string, patterns []ScoredPattern) error {
	return core.SavePatterns(path, patterns)
}

// LoadPatterns reads scored patterns saved by SavePatterns. The optional
// validate callback can reject patterns (e.g. against a grid).
func LoadPatterns(path string, validate func(Pattern) error) ([]ScoredPattern, error) {
	return core.LoadPatterns(path, validate)
}

// DefaultGamma is the paper's recommended group distance γ = 3σ̄.
func DefaultGamma(sigmaBar float64) float64 { return core.DefaultGamma(sigmaBar) }

// Baselines.
type (
	// PBConfig parameterizes the projection-based NM miner.
	PBConfig = baseline.PBConfig
	// PBResult is MinePB's output.
	PBResult = baseline.PBResult
	// MatchConfig parameterizes the top-k match miner of [14].
	MatchConfig = baseline.MatchConfig
	// MatchResult is MineMatch's output.
	MatchResult = baseline.MatchResult
	// ScoredMatch pairs a pattern with its match value.
	ScoredMatch = baseline.ScoredMatch
)

// MinePB mines top-k NM patterns with the projection-based baseline.
func MinePB(s *Scorer, cfg PBConfig) (*PBResult, error) { return baseline.MinePB(s, cfg) }

// MineMatch mines top-k patterns under the match measure of [14].
func MineMatch(s *Scorer, cfg MatchConfig) (*MatchResult, error) {
	return baseline.MineMatch(s, cfg)
}

// Location reporting simulation (§3.1).
type (
	// ReportConfig parameterizes the reporting scheme (U, C, loss).
	ReportConfig = report.Config
	// ReportResult is one device's simulation outcome.
	ReportResult = report.Result
)

// SimulateReporting runs the device/server reporting protocol for one path.
func SimulateReporting(times []float64, path []Point, cfg ReportConfig, rng *RNG) (ReportResult, error) {
	return report.Simulate(times, path, cfg, rng)
}

// BuildReportedDataset runs the reporting protocol over many paths and
// synchronizes the received reports into an imprecise dataset.
func BuildReportedDataset(times []float64, paths [][]Point, cfg ReportConfig, start, interval float64, count int, rng *RNG) (Dataset, []ReportResult, error) {
	return report.BuildDataset(times, paths, cfg, start, interval, count, rng)
}

// Prediction models (Figure 3).
type (
	// Predictor is a one-step-ahead location predictor.
	Predictor = predict.Predictor
	// PatternPredictor overlays mined patterns on a base predictor.
	PatternPredictor = predict.PatternPredictor
	// PatternMode selects velocity or location pattern semantics.
	PatternMode = predict.PatternMode
	// Evaluation summarizes mis-prediction counting.
	Evaluation = predict.Evaluation
)

// Pattern modes for PatternPredictor.Mode.
const (
	VelocityPatterns = predict.VelocityPatterns
	LocationPatterns = predict.LocationPatterns
)

// NewLinearPredictor returns the linear model LM of [12].
func NewLinearPredictor() Predictor { return predict.NewLinear() }

// NewKalmanPredictor returns the linear Kalman filter LKF of [2].
func NewKalmanPredictor(q, r float64) Predictor { return predict.NewKalman(q, r) }

// NewRMFPredictor returns the recursive motion function RMF of [11].
func NewRMFPredictor(order, window int) Predictor { return predict.NewRMF(order, window) }

// EvaluatePredictor counts mis-predictions of p on the paths with
// tolerance u.
func EvaluatePredictor(p Predictor, paths [][]Point, u float64) (Evaluation, error) {
	return predict.Evaluate(p, paths, u)
}

// Reduction is the relative mis-prediction reduction plotted in Figure 3.
func Reduction(base, enhanced Evaluation) float64 { return predict.Reduction(base, enhanced) }

// Data generators.
type (
	// BusConfig parameterizes the §6.1-style bus simulator.
	BusConfig = datagen.BusConfig
	// BusTrace is one bus-day trace.
	BusTrace = datagen.BusTrace
	// ZebraConfig parameterizes the §6.2 ZebraNet-style generator.
	ZebraConfig = datagen.ZebraConfig
	// TPRConfig parameterizes the [9]-style uniform workload.
	TPRConfig = datagen.TPRConfig
	// PostureConfig parameterizes the human-posture dataset simulator.
	PostureConfig = datagen.PostureConfig
)

// GenerateBuses simulates the bus fleet and returns all traces.
func GenerateBuses(cfg BusConfig) ([]BusTrace, error) { return datagen.Buses(cfg) }

// GenerateZebraDataset generates a ZebraNet-style imprecise dataset.
func GenerateZebraDataset(cfg ZebraConfig, u, c float64) (Dataset, error) {
	return datagen.ZebraDataset(cfg, u, c)
}

// GenerateTPRDataset generates a uniform-workload imprecise dataset.
func GenerateTPRDataset(cfg TPRConfig, u, c float64) (Dataset, error) {
	return datagen.TPRDataset(cfg, u, c)
}

// GeneratePostureDataset generates a human-posture imprecise dataset (the
// paper's second real data set, simulated).
func GeneratePostureDataset(cfg PostureConfig, u, c float64) (Dataset, error) {
	return datagen.PostureDataset(cfg, u, c)
}

// Classification (the introduction's classifier use case).
type (
	// Classifier scores trajectories against per-class pattern sets.
	Classifier = classify.Classifier
	// ClassifierConfig parameterizes classifier training.
	ClassifierConfig = classify.Config
)

// TrainClassifier mines a top-k pattern set per labeled class. ctx
// cancellation interrupts the per-class mining runs gracefully; the
// classifier is then trained on each class's best-so-far patterns.
func TrainClassifier(ctx context.Context, classes map[string]Dataset, cfg ClassifierConfig) (*Classifier, error) {
	return classify.Train(ctx, classes, cfg)
}

// BoxProb is the paper's Prob(l, σ, p, δ) under the default box
// interpretation: the probability that a location distributed N(l, σ²I₂)
// lies within the axis-aligned square of half-width δ around p.
func BoxProb(l Point, sigma float64, p Point, delta float64) float64 {
	return stat.BoxProb2D(l.X, l.Y, sigma, p.X, p.Y, delta)
}

// DiskProb is Prob(l, σ, p, δ) under the disk interpretation: the
// probability that the location lies within Euclidean distance δ of p.
func DiskProb(l Point, sigma float64, p Point, delta float64) float64 {
	return stat.DiskProb2D(l.X, l.Y, sigma, p.X, p.Y, delta)
}

// RNG is the deterministic random generator used across the library.
type RNG = stat.RNG

// NewRNG returns a seeded deterministic generator.
func NewRNG(seed uint64) *RNG { return stat.NewRNG(seed) }

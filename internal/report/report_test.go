package report

import (
	"math"
	"testing"

	"trajpattern/internal/geom"
	"trajpattern/internal/stat"
	"trajpattern/internal/traj"
)

func cfg() Config { return Config{U: 0.5, C: 2, LossProb: 0} }

func times(n int) []float64 {
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = float64(i)
	}
	return ts
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{U: 0, C: 2},
		{U: 1, C: 0},
		{U: 1, C: 2, LossProb: -0.1},
		{U: 1, C: 2, LossProb: 1},
	}
	path := []geom.Point{geom.Pt(0, 0)}
	for i, c := range bad {
		if _, err := Simulate(times(1), path, c, nil); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestInputValidation(t *testing.T) {
	if _, err := Simulate(nil, nil, cfg(), nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Simulate(times(2), []geom.Point{geom.Pt(0, 0)}, cfg(), nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Simulate([]float64{0, 0}, []geom.Point{{}, {}}, cfg(), nil); err == nil {
		t.Error("non-increasing times accepted")
	}
}

func TestLinearMotionStaysSilent(t *testing.T) {
	// After the server learns the velocity from the first forced report,
	// perfectly linear motion never needs another report.
	n := 50
	path := make([]geom.Point, n)
	for i := range path {
		path[i] = geom.Pt(float64(i)*0.6, 0) // step 0.6 > U forces one report
	}
	res, err := Simulate(times(n), path, cfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Initial fix + one report when the unknown velocity first exceeds U;
	// from then on prediction is exact.
	if len(res.Received) != 2 {
		t.Errorf("received %d reports, want 2 (init + one velocity fix)", len(res.Received))
	}
}

func TestStationaryObjectReportsOnce(t *testing.T) {
	n := 20
	path := make([]geom.Point, n)
	for i := range path {
		path[i] = geom.Pt(1, 1)
	}
	res, err := Simulate(times(n), path, cfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Received) != 1 || res.Sent != 1 {
		t.Errorf("stationary object sent %d, received %d", res.Sent, len(res.Received))
	}
}

func TestDeviationTriggersReport(t *testing.T) {
	// An abrupt jump beyond U must produce a report.
	path := []geom.Point{geom.Pt(0, 0), geom.Pt(0, 0), geom.Pt(2, 2)}
	res, err := Simulate(times(3), path, cfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Received) != 2 {
		t.Fatalf("received = %d, want 2", len(res.Received))
	}
	if got := res.Received[1]; got.Time != 2 || got.Loc != geom.Pt(2, 2) {
		t.Errorf("jump report = %+v", got)
	}
}

func TestPredictionErrorBoundedWithoutLoss(t *testing.T) {
	// Invariant of the protocol: with a lossless channel, the server's
	// prediction error at every observation instant is at most U (it is
	// corrected the moment it would exceed U).
	rng := stat.NewRNG(11)
	n := 200
	path := make([]geom.Point, n)
	pos := geom.Pt(0.5, 0.5)
	for i := range path {
		pos = pos.Add(geom.Pt(rng.Normal(0, 0.2), rng.Normal(0, 0.2)))
		path[i] = pos
	}
	c := cfg()
	res, err := Simulate(times(n), path, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		pred := traj.PredictAt(res.Received, float64(i))
		// At a report instant the prediction list already contains the
		// exact fix, so the error is 0; otherwise it stayed <= U.
		if pred.Dist(path[i]) > c.U+1e-12 {
			t.Fatalf("prediction error %v > U at t=%d", pred.Dist(path[i]), i)
		}
	}
	if res.Lost != 0 {
		t.Errorf("lossless channel lost %d", res.Lost)
	}
}

func TestMessageLoss(t *testing.T) {
	// A high-loss channel on a jittery path loses some reports, and lost
	// reports never appear in Received.
	rng := stat.NewRNG(13)
	n := 300
	path := make([]geom.Point, n)
	for i := range path {
		// Zig-zag guaranteeing frequent reports.
		path[i] = geom.Pt(float64(i%2)*2, float64(i))
	}
	c := Config{U: 0.5, C: 2, LossProb: 0.5}
	res, err := Simulate(times(n), path, c, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Lost == 0 {
		t.Error("expected losses on a 50% channel")
	}
	if res.Sent != len(res.Received)+res.Lost {
		t.Errorf("accounting: sent %d != received %d + lost %d", res.Sent, len(res.Received), res.Lost)
	}
}

func TestBuildDataset(t *testing.T) {
	n := 30
	paths := [][]geom.Point{make([]geom.Point, n), make([]geom.Point, n)}
	for i := 0; i < n; i++ {
		paths[0][i] = geom.Pt(float64(i)*0.1, 0)
		paths[1][i] = geom.Pt(0, float64(i)*0.1)
	}
	ds, results, err := BuildDataset(times(n), paths, cfg(), 0, 1, n, stat.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 || len(results) != 2 {
		t.Fatalf("dataset shape %d/%d", len(ds), len(results))
	}
	for _, tr := range ds {
		if len(tr) != n {
			t.Errorf("trajectory length %d, want %d", len(tr), n)
		}
		for _, p := range tr {
			if p.Sigma != cfg().U/cfg().C {
				t.Errorf("sigma = %v, want U/C", p.Sigma)
			}
			if !p.Mean.IsFinite() {
				t.Error("non-finite mean")
			}
		}
	}
	// Interpolated means stay close to the true path for smooth motion.
	for d, tr := range ds {
		for i, p := range tr {
			if p.Mean.Dist(paths[d][i]) > cfg().U+1e-9 {
				t.Errorf("device %d snapshot %d error %v > U", d, i, p.Mean.Dist(paths[d][i]))
			}
		}
	}
}

func TestBuildDatasetPropagatesErrors(t *testing.T) {
	if _, _, err := BuildDataset(times(2), [][]geom.Point{{geom.Pt(0, 0)}}, cfg(), 0, 1, 2, nil); err == nil {
		t.Error("mismatched path length accepted")
	}
}

func TestSimulateDeterministicWithSeed(t *testing.T) {
	n := 100
	path := make([]geom.Point, n)
	for i := range path {
		path[i] = geom.Pt(math.Sin(float64(i)), math.Cos(float64(i)))
	}
	c := Config{U: 0.3, C: 2, LossProb: 0.3}
	a, err := Simulate(times(n), path, c, stat.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(times(n), path, c, stat.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Received) != len(b.Received) || a.Lost != b.Lost {
		t.Error("same seed produced different simulations")
	}
}

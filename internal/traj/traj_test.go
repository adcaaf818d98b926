package traj

import (
	"math"
	"testing"
	"testing/quick"

	"trajpattern/internal/geom"
)

func TestToVelocity(t *testing.T) {
	loc := Trajectory{
		P(0, 0, 0.1),
		P(1, 0, 0.2),
		P(1, 2, 0.2),
	}
	v := loc.ToVelocity()
	if len(v) != 2 {
		t.Fatalf("velocity length = %d", len(v))
	}
	if v[0].Mean != geom.Pt(1, 0) || v[1].Mean != geom.Pt(0, 2) {
		t.Errorf("velocity means = %v, %v", v[0].Mean, v[1].Mean)
	}
	// σ' = sqrt(σᵢ² + σᵢ₊₁²).
	want := math.Hypot(0.1, 0.2)
	if math.Abs(v[0].Sigma-want) > 1e-15 {
		t.Errorf("velocity sigma = %v, want %v", v[0].Sigma, want)
	}
	// Too-short trajectories.
	if (Trajectory{P(0, 0, 1)}).ToVelocity() != nil {
		t.Error("single-point velocity should be nil")
	}
	if Trajectory(nil).ToVelocity() != nil {
		t.Error("empty velocity should be nil")
	}
}

func TestValidate(t *testing.T) {
	good := Trajectory{P(0, 0, 0.1)}
	if err := good.Validate(); err != nil {
		t.Errorf("valid trajectory rejected: %v", err)
	}
	bad := Trajectory{P(math.NaN(), 0, 0.1)}
	if bad.Validate() == nil {
		t.Error("NaN mean accepted")
	}
	neg := Trajectory{P(0, 0, -0.1)}
	if neg.Validate() == nil {
		t.Error("negative sigma accepted")
	}
	d := Dataset{good, neg}
	if d.Validate() == nil {
		t.Error("dataset with bad trajectory accepted")
	}
}

func TestDatasetStats(t *testing.T) {
	d := Dataset{
		{P(0, 0, 0.1), P(1, 0, 0.1)},
		{P(0, 1, 0.3), P(2, 2, 0.3), P(3, 3, 0.3), P(4, 4, 0.3)},
	}
	if d.NumTrajectories() != 2 {
		t.Error("NumTrajectories wrong")
	}
	if d.TotalSnapshots() != 6 {
		t.Error("TotalSnapshots wrong")
	}
	if d.AvgLength() != 3 {
		t.Errorf("AvgLength = %v", d.AvgLength())
	}
	want := (0.1*2 + 0.3*4) / 6
	if math.Abs(d.MeanSigma()-want) > 1e-15 {
		t.Errorf("MeanSigma = %v, want %v", d.MeanSigma(), want)
	}
	b := d.Bounds()
	if b.Min != geom.Pt(0, 0) || b.Max != geom.Pt(4, 4) {
		t.Errorf("Bounds = %v", b)
	}
	if (Dataset{}).AvgLength() != 0 || (Dataset{}).MeanSigma() != 0 {
		t.Error("empty dataset stats should be 0")
	}
}

func TestDatasetToVelocity(t *testing.T) {
	d := Dataset{
		{P(0, 0, 0.1), P(1, 0, 0.1), P(2, 0, 0.1)},
		{P(5, 5, 0.1)}, // too short: dropped
	}
	v := d.ToVelocity()
	if len(v) != 1 || len(v[0]) != 2 {
		t.Fatalf("velocity dataset shape wrong: %v", v)
	}
}

// Property: velocity transform is exact on means — summing velocity means
// reconstructs location differences.
func TestQuickVelocityReconstruction(t *testing.T) {
	f := func(coords []float64) bool {
		var tr Trajectory
		for i := 0; i+1 < len(coords); i += 2 {
			x, y := coords[i], coords[i+1]
			if math.IsNaN(x) || math.IsNaN(y) || math.Abs(x) > 1e12 || math.Abs(y) > 1e12 {
				return true
			}
			tr = append(tr, P(x, y, 0.1))
		}
		if len(tr) < 2 {
			return true
		}
		v := tr.ToVelocity()
		pos := tr[0].Mean
		for i, vel := range v {
			pos = pos.Add(vel.Mean)
			if pos.Dist(tr[i+1].Mean) > 1e-6*(1+math.Hypot(pos.X, pos.Y)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: velocity sigmas are always at least as large as each
// contributing location sigma (uncertainty only grows under differencing).
func TestQuickVelocitySigmaGrowth(t *testing.T) {
	f := func(sigmas []float64) bool {
		var tr Trajectory
		for _, s := range sigmas {
			if math.IsNaN(s) || math.IsInf(s, 0) {
				return true
			}
			tr = append(tr, P(0, 0, math.Abs(s)))
		}
		if len(tr) < 2 {
			return true
		}
		v := tr.ToVelocity()
		for i, p := range v {
			if p.Sigma+1e-12 < tr[i].Sigma || p.Sigma+1e-12 < tr[i+1].Sigma {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

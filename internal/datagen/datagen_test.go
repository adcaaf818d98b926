package datagen

import (
	"math"
	"testing"

	"trajpattern/internal/geom"
)

func TestBusesDefaultsShape(t *testing.T) {
	traces, err := Buses(BusConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 5 routes × 10 buses × 10 days = 500 traces, each 101 readings.
	if len(traces) != 500 {
		t.Fatalf("traces = %d, want 500", len(traces))
	}
	for _, tr := range traces {
		if len(tr.Path) != 101 {
			t.Fatalf("trace length = %d, want 101", len(tr.Path))
		}
	}
}

func TestBusesStayNearUnitSquare(t *testing.T) {
	traces, err := Buses(BusConfig{Routes: 2, BusesPerRoute: 2, Days: 2, Minutes: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	box := geom.UnitSquare().Expand(0.05) // GPS noise may spill slightly
	for _, tr := range traces {
		for _, p := range tr.Path {
			if !box.Contains(p) {
				t.Fatalf("bus left the area: %v", p)
			}
		}
	}
}

func TestBusesSameRouteSharesGeometry(t *testing.T) {
	// Two buses on one route cover overlapping space; buses on different
	// routes generally do not share centers. Check that the bounding
	// boxes of same-route traces overlap strongly.
	traces, err := Buses(BusConfig{Routes: 2, BusesPerRoute: 2, Days: 1, Minutes: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	byRoute := make(map[int][]BusTrace)
	for _, tr := range traces {
		byRoute[tr.Route] = append(byRoute[tr.Route], tr)
	}
	for r, ts := range byRoute {
		if len(ts) < 2 {
			continue
		}
		a := geom.BoundingRect(ts[0].Path)
		b := geom.BoundingRect(ts[1].Path)
		if a.Min.X > b.Max.X || b.Min.X > a.Max.X || a.Min.Y > b.Max.Y || b.Min.Y > a.Max.Y {
			t.Errorf("route %d buses do not overlap: %v vs %v", r, a, b)
		}
	}
}

func TestBusesDeterministic(t *testing.T) {
	cfg := BusConfig{Routes: 1, BusesPerRoute: 1, Days: 1, Minutes: 20, Seed: 4}
	a, err := Buses(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Buses(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a[0].Path {
		if a[0].Path[i] != b[0].Path[i] {
			t.Fatal("bus generation not deterministic")
		}
	}
}

func TestBusConfigValidation(t *testing.T) {
	if _, err := Buses(BusConfig{Routes: -1}); err == nil {
		t.Error("negative routes accepted")
	}
}

func TestZebrasShape(t *testing.T) {
	cfg := ZebraConfig{NumZebras: 20, NumGroups: 4, AvgLen: 50, Seed: 5}
	paths, err := Zebras(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 20 {
		t.Fatalf("paths = %d", len(paths))
	}
	var totalLen int
	for _, p := range paths {
		if len(p) < 2 {
			t.Fatalf("trajectory too short: %d", len(p))
		}
		totalLen += len(p)
	}
	avg := float64(totalLen) / 20
	if math.Abs(avg-50) > 15 {
		t.Errorf("average length = %v, want ≈50", avg)
	}
}

func TestZebrasGroupCohesion(t *testing.T) {
	// Without leavers, zebras in the same group stay close at every
	// snapshot.
	cfg := ZebraConfig{
		NumZebras: 8, NumGroups: 2, AvgLen: 40, LenJitter: 0.01,
		LeaveProb: 1e-12, IndivNoise: 0.005, Seed: 6,
	}
	paths, err := Zebras(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Zebras 0 and 2 share group 0 (round-robin assignment).
	a, b := paths[0], paths[2]
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for t2 := 0; t2 < n; t2++ {
		if a[t2].Dist(b[t2]) > 0.1 {
			t.Fatalf("group members separated at %d: %v", t2, a[t2].Dist(b[t2]))
		}
	}
}

func TestZebrasStayInBounds(t *testing.T) {
	paths, err := Zebras(ZebraConfig{NumZebras: 10, AvgLen: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	box := geom.UnitSquare().Expand(0.05)
	for _, path := range paths {
		for _, p := range path {
			if !box.Contains(p) {
				t.Fatalf("zebra escaped: %v", p)
			}
		}
	}
}

func TestZebraConfigValidation(t *testing.T) {
	bad := []ZebraConfig{
		{NumZebras: 1, NumGroups: 1, AvgLen: 1},
		{LenJitter: -0.1},
		{LeaveProb: 2},
	}
	for i, cfg := range bad {
		if _, err := Zebras(cfg); err == nil {
			t.Errorf("bad zebra config %d accepted", i)
		}
	}
}

func TestZebraDataset(t *testing.T) {
	ds, err := ZebraDataset(ZebraConfig{NumZebras: 10, AvgLen: 30, Seed: 8}, 0.02, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 10 {
		t.Fatalf("dataset size = %d", len(ds))
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tr := range ds {
		for _, p := range tr {
			if p.Sigma != 0.01 {
				t.Fatalf("sigma = %v, want U/C = 0.01", p.Sigma)
			}
		}
	}
	if _, err := ZebraDataset(ZebraConfig{}, 0, 1); err == nil {
		t.Error("u=0 accepted")
	}
}

func TestTPRObjects(t *testing.T) {
	paths, err := TPRObjects(TPRConfig{NumObjects: 15, Length: 60, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 15 {
		t.Fatalf("paths = %d", len(paths))
	}
	for _, path := range paths {
		if len(path) != 60 {
			t.Fatalf("length = %d", len(path))
		}
		for i, p := range path {
			if !geom.UnitSquare().Contains(p) {
				t.Fatalf("object outside unit square: %v", p)
			}
			if i > 0 {
				// Speed bound: one step plus bounce cannot exceed maxSpeed·√2.
				if path[i].Dist(path[i-1]) > 0.03*1.5 {
					t.Fatalf("speed bound violated: %v", path[i].Dist(path[i-1]))
				}
			}
		}
	}
}

func TestTPRValidation(t *testing.T) {
	if _, err := TPRObjects(TPRConfig{NumObjects: 1, Length: 1}); err == nil {
		t.Error("Length=1 accepted")
	}
	if _, err := TPRDataset(TPRConfig{}, -1, 1); err == nil {
		t.Error("negative u accepted")
	}
}

func TestTPRDataset(t *testing.T) {
	ds, err := TPRDataset(TPRConfig{NumObjects: 5, Length: 20, Seed: 10}, 0.04, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 5 || len(ds[0]) != 20 {
		t.Fatalf("dataset shape wrong: %d × %d", len(ds), len(ds[0]))
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
}

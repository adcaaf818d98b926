package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
}

func TestDistances(t *testing.T) {
	p, q := Pt(0, 0), Pt(3, 4)
	if got := p.Dist(q); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
}

func TestLerp(t *testing.T) {
	p, q := Pt(0, 0), Pt(10, 20)
	if got := p.Lerp(q, 0); got != p {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := p.Lerp(q, 1); got != q {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := p.Lerp(q, 0.5); got != Pt(5, 10) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestIsFinite(t *testing.T) {
	if !Pt(1, 2).IsFinite() {
		t.Error("finite point reported non-finite")
	}
	if Pt(math.NaN(), 0).IsFinite() || Pt(0, math.Inf(1)).IsFinite() {
		t.Error("non-finite point reported finite")
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Pt(2, 3), Pt(0, 1)) // corners given out of order
	if r.Min != Pt(0, 1) || r.Max != Pt(2, 3) {
		t.Fatalf("NewRect normalization failed: %v", r)
	}
	if r.Width() != 2 || r.Height() != 2 {
		t.Errorf("dims: w=%v h=%v", r.Width(), r.Height())
	}
	if r.Center() != Pt(1, 2) {
		t.Errorf("Center = %v", r.Center())
	}
	if !r.Contains(Pt(1, 2)) || !r.Contains(r.Min) || !r.Contains(r.Max) {
		t.Error("Contains failed on interior/boundary")
	}
	if r.Contains(Pt(-0.01, 2)) {
		t.Error("Contains accepted outside point")
	}
}

func TestRectClampExpandUnion(t *testing.T) {
	r := UnitSquare()
	if got := r.Clamp(Pt(2, -1)); got != Pt(1, 0) {
		t.Errorf("Clamp = %v", got)
	}
	if got := r.Expand(0.5); got.Min != Pt(-0.5, -0.5) || got.Max != Pt(1.5, 1.5) {
		t.Errorf("Expand = %v", got)
	}
}

func TestBoundingRect(t *testing.T) {
	if got := BoundingRect(nil); got != (Rect{}) {
		t.Errorf("empty BoundingRect = %v", got)
	}
	pts := []Point{Pt(1, 5), Pt(-2, 0), Pt(3, 3)}
	r := BoundingRect(pts)
	if r.Min != Pt(-2, 0) || r.Max != Pt(3, 5) {
		t.Errorf("BoundingRect = %v", r)
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Errorf("BoundingRect does not contain %v", p)
		}
	}
}

func TestPolyline(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(1, 0), Pt(1, 1)}
	if got := PolylineLength(pts); got != 2 {
		t.Errorf("PolylineLength = %v", got)
	}
	if got := PointAlongPolyline(pts, -1); got != Pt(0, 0) {
		t.Errorf("before start = %v", got)
	}
	if got := PointAlongPolyline(pts, 0.5); got != Pt(0.5, 0) {
		t.Errorf("mid first segment = %v", got)
	}
	if got := PointAlongPolyline(pts, 1.5); got != Pt(1, 0.5) {
		t.Errorf("mid second segment = %v", got)
	}
	if got := PointAlongPolyline(pts, 10); got != Pt(1, 1) {
		t.Errorf("past end = %v", got)
	}
}

func TestPointAlongPolylinePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty polyline")
		}
	}()
	PointAlongPolyline(nil, 1)
}

// Property: the triangle inequality holds for Dist.
func TestQuickTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a, b, c := Pt(ax, ay), Pt(bx, by), Pt(cx, cy)
		if !a.IsFinite() || !b.IsFinite() || !c.IsFinite() {
			return true
		}
		// Guard against overflow for huge random values.
		if math.Hypot(a.X, a.Y) > 1e150 || math.Hypot(b.X, b.Y) > 1e150 || math.Hypot(c.X, c.Y) > 1e150 {
			return true
		}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9*(1+a.Dist(c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Clamp always lands inside the rectangle and is a no-op for
// points already inside.
func TestQuickClamp(t *testing.T) {
	f := func(px, py float64) bool {
		r := UnitSquare()
		p := Pt(px, py)
		if !p.IsFinite() {
			return true
		}
		q := r.Clamp(p)
		if !r.Contains(q) {
			return false
		}
		if r.Contains(p) && q != p {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: BoundingRect contains every input point.
func TestQuickBoundingRect(t *testing.T) {
	f := func(coords []float64) bool {
		var pts []Point
		for i := 0; i+1 < len(coords); i += 2 {
			p := Pt(coords[i], coords[i+1])
			if !p.IsFinite() {
				return true
			}
			pts = append(pts, p)
		}
		r := BoundingRect(pts)
		for _, p := range pts {
			if !r.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

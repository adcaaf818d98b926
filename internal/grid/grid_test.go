package grid

import (
	"testing"
	"testing/quick"

	"trajpattern/internal/geom"
)

// cellRect returns the rectangle covered by cell c.
func cellRect(g *Grid, c Cell) geom.Rect {
	min := geom.Point{
		X: g.bounds.Min.X + float64(c.X)*g.cw,
		Y: g.bounds.Min.Y + float64(c.Y)*g.ch,
	}
	return geom.Rect{Min: min, Max: geom.Point{X: min.X + g.cw, Y: min.Y + g.ch}}
}

func TestNewValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { New(geom.UnitSquare(), 0, 1) },
		func() { New(geom.UnitSquare(), 1, -1) },
		func() { New(geom.NewRect(geom.Pt(0, 0), geom.Pt(0, 1)), 2, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic from invalid grid")
				}
			}()
			bad()
		}()
	}
}

func TestBasicGeometry(t *testing.T) {
	g := NewSquare(10)
	if g.NumCells() != 100 || g.NX() != 10 || g.NY() != 10 {
		t.Fatalf("shape wrong: %v", g)
	}
	if g.CellWidth() != 0.1 || g.ch != 0.1 {
		t.Errorf("cell size %v×%v", g.CellWidth(), g.ch)
	}
	c := g.CellOf(geom.Pt(0.05, 0.05))
	if c != (Cell{0, 0}) {
		t.Errorf("CellOf corner = %v", c)
	}
	if got := g.Center(Cell{0, 0}); got != geom.Pt(0.05, 0.05) {
		t.Errorf("Center = %v", got)
	}
	if got := g.CellOf(geom.Pt(0.95, 0.15)); got != (Cell{9, 1}) {
		t.Errorf("CellOf = %v", got)
	}
}

func TestClampingOutOfBounds(t *testing.T) {
	g := NewSquare(4)
	if got := g.CellOf(geom.Pt(-5, -5)); got != (Cell{0, 0}) {
		t.Errorf("clamp low = %v", got)
	}
	if got := g.CellOf(geom.Pt(5, 5)); got != (Cell{3, 3}) {
		t.Errorf("clamp high = %v", got)
	}
	// Exactly on the max boundary lands in the last cell.
	if got := g.CellOf(geom.Pt(1, 1)); got != (Cell{3, 3}) {
		t.Errorf("max boundary = %v", got)
	}
}

func TestIndexRoundTrip(t *testing.T) {
	g := New(geom.NewRect(geom.Pt(-2, 1), geom.Pt(4, 5)), 6, 8)
	for idx := 0; idx < g.NumCells(); idx++ {
		c := g.CellAt(idx)
		if g.Index(c) != idx {
			t.Fatalf("round trip failed at %d -> %v", idx, c)
		}
		if !cellRect(g, c).Contains(g.Center(c)) {
			t.Fatalf("center of %v outside its rect", c)
		}
		if g.IndexOf(g.Center(c)) != idx {
			t.Fatalf("IndexOf(Center) != idx at %d", idx)
		}
	}
}

func TestIndexPanics(t *testing.T) {
	g := NewSquare(3)
	for _, f := range []func(){
		func() { g.Index(Cell{3, 0}) },
		func() { g.Index(Cell{0, -1}) },
		func() { g.CellAt(9) },
		func() { g.CellAt(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic from out-of-range cell/index")
				}
			}()
			f()
		}()
	}
}

func TestNeighbors(t *testing.T) {
	g := NewSquare(4)
	// Interior cell (1,1) = index 5 has 8 neighbors at r=1.
	if n := g.Neighbors(5, 1); len(n) != 8 {
		t.Errorf("interior neighbors = %d, want 8", len(n))
	}
	// Corner (0,0) = index 0 has 3.
	if n := g.Neighbors(0, 1); len(n) != 3 {
		t.Errorf("corner neighbors = %d, want 3", len(n))
	}
	// r=0 yields none.
	if n := g.Neighbors(5, 0); len(n) != 0 {
		t.Errorf("r=0 neighbors = %v", n)
	}
	// Never contains self.
	for _, idx := range g.Neighbors(5, 2) {
		if idx == 5 {
			t.Error("Neighbors contains self")
		}
	}
}

// Property: every finite point maps to a valid cell whose rect (expanded by
// eps for boundary points) contains the clamped point.
func TestQuickCellOfValid(t *testing.T) {
	g := New(geom.NewRect(geom.Pt(-1, -1), geom.Pt(3, 2)), 7, 5)
	f := func(x, y float64) bool {
		p := geom.Pt(x, y)
		if !p.IsFinite() {
			return true
		}
		c := g.CellOf(p)
		if c.X < 0 || c.X >= g.NX() || c.Y < 0 || c.Y >= g.NY() {
			return false
		}
		clamped := g.Bounds().Clamp(p)
		return cellRect(g, c).Expand(1e-9).Contains(clamped)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Index and CellAt are inverse bijections over the valid range.
func TestQuickIndexBijection(t *testing.T) {
	g := New(geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 1)), 13, 3)
	f := func(raw uint32) bool {
		idx := int(raw) % g.NumCells()
		return g.Index(g.CellAt(idx)) == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

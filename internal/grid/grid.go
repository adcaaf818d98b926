// Package grid discretizes the continuous 2-D space into rectangular cells,
// as Section 3.3 of the TrajPattern paper prescribes: "we discretize the
// space into small regions and only the centers of these regions may serve
// as the positions in a pattern".
//
// A Grid maps between continuous points, integer cell coordinates, and flat
// cell indices. Cell indices are the alphabet of the pattern miners: a
// trajectory pattern is a sequence of cell indices, and the total number of
// cells is the paper's parameter G.
package grid

import (
	"fmt"

	"trajpattern/internal/geom"
)

// Cell identifies one grid cell by integer column (X) and row (Y)
// coordinates, both starting at 0 in the lower-left corner of the space.
type Cell struct {
	X, Y int
}

// Grid partitions an axis-aligned rectangle into NX × NY equal cells.
type Grid struct {
	bounds geom.Rect
	nx, ny int
	cw, ch float64 // cell width and height (the paper's gₓ, g_y)
}

// New returns a grid over bounds with nx columns and ny rows. It panics if
// the bounds are degenerate or the cell counts are not positive, because a
// grid is always constructed from static configuration.
func New(bounds geom.Rect, nx, ny int) *Grid {
	if nx <= 0 || ny <= 0 {
		panic(fmt.Sprintf("grid: non-positive cell counts %d×%d", nx, ny))
	}
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		panic(fmt.Sprintf("grid: degenerate bounds %v", bounds))
	}
	return &Grid{
		bounds: bounds,
		nx:     nx,
		ny:     ny,
		cw:     bounds.Width() / float64(nx),
		ch:     bounds.Height() / float64(ny),
	}
}

// NewSquare returns an n×n grid over the unit square, the default mining
// space used by the experiments (G = n²).
func NewSquare(n int) *Grid { return New(geom.UnitSquare(), n, n) }

// Bounds returns the rectangle the grid covers.
func (g *Grid) Bounds() geom.Rect { return g.bounds }

// NX returns the number of columns.
func (g *Grid) NX() int { return g.nx }

// NY returns the number of rows.
func (g *Grid) NY() int { return g.ny }

// NumCells returns the total number of cells, the paper's parameter G.
func (g *Grid) NumCells() int { return g.nx * g.ny }

// CellWidth returns gₓ, the horizontal extent of one cell.
func (g *Grid) CellWidth() float64 { return g.cw }

// CellOf returns the cell containing p. Points outside the bounds are
// clamped to the nearest boundary cell, so every point maps to a valid cell.
func (g *Grid) CellOf(p geom.Point) Cell {
	// Clamp in the float domain first: converting an out-of-range float to
	// int is platform-defined in Go, so huge coordinates could otherwise
	// wrap to the wrong side.
	p = g.bounds.Clamp(p)
	cx := int((p.X - g.bounds.Min.X) / g.cw)
	cy := int((p.Y - g.bounds.Min.Y) / g.ch)
	if cx >= g.nx {
		cx = g.nx - 1
	}
	if cy >= g.ny {
		cy = g.ny - 1
	}
	return Cell{X: cx, Y: cy}
}

// Index flattens a cell to a single integer in [0, NumCells), row-major.
// It panics on out-of-range cells.
func (g *Grid) Index(c Cell) int {
	if c.X < 0 || c.X >= g.nx || c.Y < 0 || c.Y >= g.ny {
		panic(fmt.Sprintf("grid: cell %v out of range %d×%d", c, g.nx, g.ny))
	}
	return c.Y*g.nx + c.X
}

// CellAt is the inverse of Index. It panics on out-of-range indices.
func (g *Grid) CellAt(idx int) Cell {
	if idx < 0 || idx >= g.NumCells() {
		panic(fmt.Sprintf("grid: index %d out of range %d", idx, g.NumCells()))
	}
	return Cell{X: idx % g.nx, Y: idx / g.nx}
}

// IndexOf returns the flat index of the cell containing p.
func (g *Grid) IndexOf(p geom.Point) int { return g.Index(g.CellOf(p)) }

// Center returns the center point of cell c.
func (g *Grid) Center(c Cell) geom.Point {
	return geom.Point{
		X: g.bounds.Min.X + (float64(c.X)+0.5)*g.cw,
		Y: g.bounds.Min.Y + (float64(c.Y)+0.5)*g.ch,
	}
}

// CenterAt returns the center point of the cell with flat index idx.
func (g *Grid) CenterAt(idx int) geom.Point { return g.Center(g.CellAt(idx)) }

// Neighbors returns the flat indices of the cells within Chebyshev distance
// r (in cells) of the cell with flat index idx, excluding idx itself. The
// result is ordered row-major for determinism.
func (g *Grid) Neighbors(idx, r int) []int {
	c := g.CellAt(idx)
	var out []int
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			n := Cell{X: c.X + dx, Y: c.Y + dy}
			if n.X >= 0 && n.X < g.nx && n.Y >= 0 && n.Y < g.ny {
				out = append(out, g.Index(n))
			}
		}
	}
	return out
}

// String implements fmt.Stringer.
func (g *Grid) String() string {
	return fmt.Sprintf("grid %d×%d over %v", g.nx, g.ny, g.bounds)
}

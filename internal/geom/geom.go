// Package geom provides the 2-D geometric primitives used throughout the
// TrajPattern system: points/vectors, rectangles, and distance helpers.
//
// The paper works in a continuous 2-D space that is later discretized into a
// grid (see internal/grid). All coordinates are float64 and the package is
// deliberately tiny and allocation-free.
package geom

import (
	"fmt"
	"math"
)

// Point is a location (or, equally, a velocity) in 2-D space.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q component-wise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q component-wise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Lerp linearly interpolates between p (t=0) and q (t=1).
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// IsFinite reports whether both coordinates are finite numbers.
func (p Point) IsFinite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y) }

// Rect is an axis-aligned rectangle. Min is the lower-left corner and Max
// the upper-right corner; a valid Rect has Min.X <= Max.X and Min.Y <= Max.Y.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanned by the two corner points, fixing the
// corner order if necessary.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// UnitSquare is the [0,1]×[0,1] rectangle used as the default mining space.
func UnitSquare() Rect { return Rect{Min: Point{0, 0}, Max: Point{1, 1}} }

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies inside r (inclusive of all edges).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// Expand returns r grown by d on every side. Negative d shrinks r; the
// result is normalized so Min <= Max still holds.
func (r Rect) Expand(d float64) Rect {
	return NewRect(Point{r.Min.X - d, r.Min.Y - d}, Point{r.Max.X + d, r.Max.Y + d})
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%v - %v]", r.Min, r.Max)
}

// BoundingRect returns the smallest rectangle containing all points. It
// returns the zero Rect for an empty slice.
func BoundingRect(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Y = math.Min(r.Min.Y, p.Y)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Y = math.Max(r.Max.Y, p.Y)
	}
	return r
}

// PolylineLength returns the total length of the polyline through pts.
func PolylineLength(pts []Point) float64 {
	var total float64
	for i := 1; i < len(pts); i++ {
		total += pts[i].Dist(pts[i-1])
	}
	return total
}

// PointAlongPolyline returns the point at arc-length distance d from the
// start of the (open) polyline through pts, clamping to the endpoints. It
// panics if pts is empty.
func PointAlongPolyline(pts []Point, d float64) Point {
	if len(pts) == 0 {
		panic("geom: PointAlongPolyline on empty polyline")
	}
	if d <= 0 {
		return pts[0]
	}
	for i := 1; i < len(pts); i++ {
		seg := pts[i].Dist(pts[i-1])
		if d <= seg {
			if seg == 0 {
				return pts[i]
			}
			return pts[i-1].Lerp(pts[i], d/seg)
		}
		d -= seg
	}
	return pts[len(pts)-1]
}

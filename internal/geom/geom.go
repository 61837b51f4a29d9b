// Package geom provides the two-dimensional geometric primitives used by
// every spatial join technique in this repository: points, axis-aligned
// rectangles, the containment/intersection predicates the join algorithms
// are built from, and Z-order (Morton) linearization for the KD-trie.
//
// Coordinates are float32 throughout. The paper's setting assumes raw
// location data encoded as two 4-byte values per point, and the memory
// footprint arguments in its Section 3.1 depend on that size, so the
// choice is load-bearing rather than cosmetic.
package geom

import "fmt"

// Point is a two-dimensional point. It is deliberately a small value type
// (8 bytes) so that slices of points pack densely into cache lines.
type Point struct {
	X, Y float32
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float32) Point { return Point{X: x, Y: y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// In reports whether p lies inside r. Containment follows the half-open
// convention used by the original framework: the lower edges are inclusive
// and the upper edges are inclusive as well, because range queries in the
// workload are closed rectangles centred on objects.
func (p Point) In(r Rect) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy float32) Point { return Point{X: p.X + dx, Y: p.Y + dy} }

// Rect returns the degenerate rectangle covering exactly p. It is the
// seed value for MBR accumulation via Rect.Stretch.
func (p Point) Rect() Rect {
	return Rect{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
}

// Move describes one object relocation: the entry identified by ID leaves
// position Old and arrives at position New. It is the unit of a tick's
// batch as the in-place maintainers receive it (epoch's ApplyBatch,
// shard's route); it lives here so they need not import the driver.
type Move struct {
	ID  uint32
	Old Point
	New Point
}

// BoxMove is Move for extended objects: the MBR identified by ID leaves
// extent Old and arrives at extent New, the unit of a box tick's batch.
type BoxMove struct {
	ID  uint32
	Old Rect
	New Rect
}

// Rect is an axis-aligned rectangle given by its lower-left (MinX, MinY)
// and upper-right (MaxX, MaxY) corners, matching the Region2D arguments of
// the paper's Algorithms 1 and 2.
type Rect struct {
	MinX, MinY, MaxX, MaxY float32
}

// R constructs a Rect, swapping coordinates if they arrive unordered so
// that the result is always well formed.
func R(x1, y1, x2, y2 float32) Rect {
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2}
}

// Square returns the axis-aligned square of side `side` centred at c. This
// is the query shape issued by queriers in the workload (Query Size in
// Table 1 is the side length).
func Square(c Point, side float32) Rect {
	h := side / 2
	return Rect{MinX: c.X - h, MinY: c.Y - h, MaxX: c.X + h, MaxY: c.Y + h}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g, %g]x[%g, %g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// Valid reports whether r is well formed (non-inverted on both axes).
func (r Rect) Valid() bool { return r.MinX <= r.MaxX && r.MinY <= r.MaxY }

// Width returns the extent of r along the x axis.
func (r Rect) Width() float32 { return r.MaxX - r.MinX }

// Height returns the extent of r along the y axis.
func (r Rect) Height() float32 { return r.MaxY - r.MinY }

// Area returns the area of r.
func (r Rect) Area() float64 { return float64(r.Width()) * float64(r.Height()) }

// Center returns the centre point of r.
func (r Rect) Center() Point {
	return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2}
}

// Contains reports whether p lies inside r (closed on all edges).
func (r Rect) Contains(p Point) bool { return p.In(r) }

// ContainsRect reports whether r fully contains s. Used by the grid query
// algorithms to decide whether a cell's points can be reported without
// per-point checks (line 5 of Algorithm 1).
func (r Rect) ContainsRect(s Rect) bool {
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether r and s share at least one point (closed
// rectangles, so touching edges intersect).
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Intersection returns the overlap of r and s and whether it is non-empty.
func (r Rect) Intersection(s Rect) (Rect, bool) {
	out := Rect{
		MinX: maxf(r.MinX, s.MinX),
		MinY: maxf(r.MinY, s.MinY),
		MaxX: minf(r.MaxX, s.MaxX),
		MaxY: minf(r.MaxY, s.MaxY),
	}
	return out, out.Valid()
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		MinX: minf(r.MinX, s.MinX),
		MinY: minf(r.MinY, s.MinY),
		MaxX: maxf(r.MaxX, s.MaxX),
		MaxY: maxf(r.MaxY, s.MaxY),
	}
}

// Expand grows r by d on every side. A negative d shrinks it.
func (r Rect) Expand(d float32) Rect {
	return Rect{MinX: r.MinX - d, MinY: r.MinY - d, MaxX: r.MaxX + d, MaxY: r.MaxY + d}
}

// Clip returns r clipped to the bounds b. If they do not overlap the
// result is a degenerate rectangle on the nearest edge of b.
func (r Rect) Clip(b Rect) Rect {
	out := Rect{
		MinX: clampf(r.MinX, b.MinX, b.MaxX),
		MinY: clampf(r.MinY, b.MinY, b.MaxY),
		MaxX: clampf(r.MaxX, b.MinX, b.MaxX),
		MaxY: clampf(r.MaxY, b.MinY, b.MaxY),
	}
	return out
}

// RectOf returns the minimum bounding rectangle of pts. It panics when pts
// is empty: an MBR of nothing has no meaningful value, and callers in this
// repository always have at least one point per node.
func RectOf(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: RectOf of empty point set")
	}
	r := pts[0].Rect()
	for _, p := range pts[1:] {
		r = r.Stretch(p)
	}
	return r
}

// Stretch returns r grown just enough to contain p. It is the inner step
// of every MBR-accumulation loop (RectOf here, leaf packing in the
// R-tree variants), centralized so the min/max comparisons are written
// once.
func (r Rect) Stretch(p Point) Rect {
	if p.X < r.MinX {
		r.MinX = p.X
	}
	if p.X > r.MaxX {
		r.MaxX = p.X
	}
	if p.Y < r.MinY {
		r.MinY = p.Y
	}
	if p.Y > r.MaxY {
		r.MaxY = p.Y
	}
	return r
}

func minf(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

func clampf(v, lo, hi float32) float32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

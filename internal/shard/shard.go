// Package shard implements the region-sharded multi-index engine: the
// space is partitioned into a side x side lattice of square regions,
// each region owning its own independently built and tuned index
// (family and parameters chosen per shard by internal/tune, so a skewed
// shard can take the R-tree while uniform shards take the classed
// grid), behind the ordinary core.Index / core.BoxIndex contracts so
// every driver, oracle test, and bench runs unchanged.
//
// # One router, two geometries
//
// The engine is written once, over the object geometry P (region[P],
// router[P, M], conc[P, M]); Index / BoxIndex / Concurrent /
// BoxConcurrent are named bindings of it. What differs per geometry is
// the geo[P] value and nothing else: the lattice span of a P (one region
// for a point, every overlapped region for an MBR), the degenerate
// geometry dead slots park at, the tune sample/choose/construct triple,
// and — for geometries that replicate — the reference-point filter.
//
// # Ownership and duplicate-free merge
//
// An object is a member of every region in its span. Points span one
// region (half-open region edges, out-of-space positions clamped into
// the border regions — the same mapping the grids use for cells), so
// they partition exactly: a query fans out to the regions its window
// overlaps, each region reports only its own members, and the merged
// stream is duplicate-free by construction. A point is the degenerate,
// one-replica case of what follows and never pays for it.
//
// Boxes replicate: an MBR is a member of every region it overlaps, and a
// query straddling several regions would see the same object once per
// replica. The merge dedups by boundary ownership, mirroring the
// reference-point method the CSR box grid uses per cell: for each
// candidate the reporting region computes the reference point of
// query∩MBR (the intersection's min corner) and emits only when that
// point falls in its own region. Exactly one overlapped region owns the
// reference point, and that region always overlaps the query, so every
// matching object is emitted exactly once. Queries whose window lies
// within a single region skip the test entirely — the reference point
// of any candidate intersection is inside the window and therefore
// inside the region.
//
// # Updates and cross-shard migration
//
// A move concerns every region in the union of its old and new spans
// (routing.concerned — the one place that is decided). Where the object
// stays a member the move delegates to the region's inner index; where
// it leaves, the region parks the entry (relocating it to a reserved
// in-region park position and clearing its owner, so queries filter it
// out) and pushes the slot onto a free list; where it arrives, the
// region revives a parked slot via a plain inner Update. All of it
// touches only region-private state, so a batch routed by region applies
// across shards in parallel with no locking — each region sees exactly
// its own moves in batch order, making the parallel result identical to
// per-move application. When a region's free list runs dry its arena
// grows by a parked-slot slack and the inner index is rebuilt
// (region-local, amortized).
//
// # Epoch composition
//
// For the concurrent (queries-during-updates) regime each region is
// wrapped in its own epoch publication, so shards publish independently
// and concurrent reads scale with shard count instead of serializing on
// one publish barrier. The composition routes and fans out through the
// same lattice code as the stop-the-world router. Per-shard digests fold
// into a composite via epoch.CompositeDigest; the concurrent driver
// (core.RunConcurrentSharded) validates each query's per-shard
// (epoch, digest) observations against per-shard publish oracles.
package shard

import (
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/parutil"
	"repro/internal/tune"
)

// NONE marks an empty slot mapping (no local id / no owner).
const NONE = ^uint32(0)

// lattice maps geometry to the side x side region grid. All membership,
// routing, and dedup decisions go through this one mapping so they can
// never disagree: half-open region edges, NaN and out-of-space
// coordinates clamped into the border regions (the grids' cell-mapping
// convention).
type lattice struct {
	side   int
	bounds geom.Rect
	inv    float32 // regions per unit of space
}

func newLattice(bounds geom.Rect, side int) lattice {
	return lattice{
		side:   side,
		bounds: bounds,
		inv:    float32(side) / bounds.Width(),
	}
}

func (l *lattice) axis(d, min float32) int32 {
	f := (d - min) * l.inv
	if !(f > 0) { // NaN or <= 0
		return 0
	}
	c := int(f)
	if c >= l.side {
		c = l.side - 1
	}
	return int32(c)
}

// cellOf returns the region coordinates owning position (x, y).
func (l *lattice) cellOf(x, y float32) (int32, int32) {
	return l.axis(x, l.bounds.MinX), l.axis(y, l.bounds.MinY)
}

// id returns the index of region (cx, cy).
func (l *lattice) id(cx, cy int32) int { return int(cy)*l.side + int(cx) }

// idOf returns the region index owning position (x, y).
func (l *lattice) idOf(x, y float32) int { return l.id(l.cellOf(x, y)) }

// span is an inclusive range of region coordinates: the regions a
// geometry overlaps. (int32 keeps a span, and the walk over it, small
// enough for the compiler to hold in registers.)
type span struct{ x0, y0, x1, y1 int32 }

// spanOf returns the span r overlaps.
func (l *lattice) spanOf(r geom.Rect) span {
	return span{
		x0: l.axis(r.MinX, l.bounds.MinX),
		y0: l.axis(r.MinY, l.bounds.MinY),
		x1: l.axis(r.MaxX, l.bounds.MinX),
		y1: l.axis(r.MaxY, l.bounds.MinY),
	}
}

// cells is the number of regions in the span.
func (s span) cells() int { return int(s.x1-s.x0+1) * int(s.y1-s.y0+1) }

func (s span) has(cx, cy int32) bool {
	return cx >= s.x0 && cx <= s.x1 && cy >= s.y0 && cy <= s.y1
}

// union is the smallest span covering both.
func (s span) union(t span) span {
	return span{min(s.x0, t.x0), min(s.y0, t.y0), max(s.x1, t.x1), max(s.y1, t.y1)}
}

// walk is the span fan-out, written once: a row-major cursor over a
// span's regions. Every query kernel, the build routing and the move
// routing iterate with
//
//	for w := s.walk(); w.more(); w = w.next() { ... lat.id(w.cx, w.cy) ... }
//
// so none of them carries its own nested loop (and the hotpath kernels
// need no visitor closure).
type walk struct {
	span
	cx, cy int32
}

func (s span) walk() walk { return walk{s, s.x0, s.y0} }

func (w walk) more() bool { return w.cy <= w.y1 }

func (w walk) next() walk {
	if w.cx++; w.cx > w.x1 {
		w.cx, w.cy = w.x0, w.cy+1
	}
	return w
}

// regionFrame returns the square indexing frame of region (cx, cy). The
// frame anchors the region's inner index; ownership always goes through
// cellOf, so a frame a float-rounding hair narrower or wider than the
// ideal tile is harmless (inner grids clamp and filter by exact
// coordinates). The frame must be exactly square for the grid families,
// so the side is nudged up until both axes round identically.
func (l *lattice) regionFrame(cx, cy int) geom.Rect {
	w := l.bounds.Width() / float32(l.side)
	x0 := l.bounds.MinX + float32(cx)*w
	y0 := l.bounds.MinY + float32(cy)*w
	r := geom.Rect{MinX: x0, MinY: y0, MaxX: x0 + w, MaxY: y0 + w}
	for i := 0; i < 8 && r.Width() != r.Height(); i++ {
		s := r.Width()
		if r.Height() > s {
			s = r.Height()
		}
		r.MaxX, r.MaxY = x0+s, y0+s
	}
	if r.Width() != r.Height() {
		// Pathological rounding: fall back to the full (square) space.
		return l.bounds
	}
	return r
}

// geo is everything the engine needs to know about an object geometry P;
// the two values below are the whole difference between the point and
// the box engine.
type geo[P comparable] struct {
	// prefix distinguishes the engines' names ("shard[2x2]",
	// "boxshard[2x2]").
	prefix string
	// span returns the regions p is a member of.
	span func(l *lattice, p P) span
	// park returns the degenerate geometry dead slots rest at, given the
	// region frame's centre.
	park func(c geom.Point) P
	// sample, choose and build are the tune triple: statistics of a
	// snapshot, the family picked from them, an instance of that family
	// (a region's inner index over local slot ids).
	sample func(all []P, bounds geom.Rect, h core.WorkloadHints) tune.Stats
	choose func(s tune.Stats) tune.Choice
	build  func(c tune.Choice, p core.Params) core.IndexOf[P]
	// refEmit and refAppend are the reference-point filters of the two
	// query kernels (see refPoint). Non-nil exactly when objects
	// replicate across regions; a geometry that spans one region has
	// nothing to dedup and never runs them.
	refEmit   func(s *region[P], r geom.Rect, emit func(id uint32))
	refAppend func(s *region[P], r geom.Rect, buf []uint32, tail int) []uint32
}

// replicates reports whether objects can be members of several regions.
func (g *geo[P]) replicates() bool { return g.refAppend != nil }

var pointGeo = &geo[geom.Point]{
	span: func(l *lattice, p geom.Point) span {
		cx, cy := l.cellOf(p.X, p.Y)
		return span{cx, cy, cx, cy}
	},
	park:   func(c geom.Point) geom.Point { return c },
	sample: tune.SamplePoints,
	choose: tune.ChoosePoint,
	build:  tune.Choice.NewPointIndex,
}

var boxGeo = &geo[geom.Rect]{
	prefix:    "box",
	span:      (*lattice).spanOf,
	park:      geom.Point.Rect,
	sample:    tune.SampleBoxes,
	choose:    tune.ChooseBox,
	build:     tune.Choice.NewBoxIndex,
	refEmit:   refEmit,
	refAppend: refAppend,
}

// refPoint returns the reference point of the intersection of query
// window r and candidate MBR b (callers guarantee they intersect): the
// intersection's min corner, the same rule grid.BoxGrid applies per
// cell.
func refPoint(r, b geom.Rect) (float32, float32) {
	x := r.MinX
	if b.MinX > x {
		x = b.MinX
	}
	y := r.MinY
	if b.MinY > y {
		y = b.MinY
	}
	return x, y
}

// refEmit is the callback kernel's boundary-ownership filter: of the
// inner's candidates, report the live ones whose reference point this
// region owns.
func refEmit(s *region[geom.Rect], r geom.Rect, emit func(id uint32)) {
	owner, rects := s.owner, s.items
	var filtered int64
	s.inner.Query(r, func(lid uint32) {
		g := owner[lid]
		if g == NONE {
			return
		}
		rx, ry := refPoint(r, rects[lid])
		if s.lat.idOf(rx, ry) == s.sid {
			emit(g)
		} else {
			filtered++
		}
	})
	if filtered > 0 {
		s.ins.dedupFiltered.Add(filtered)
	}
}

// refAppend is the buffered kernel's boundary-ownership filter: it
// compacts buf[tail:] (local slots from the inner) in place through the
// owner and reference-point tests.
//
//joinlint:hotpath
func refAppend(s *region[geom.Rect], r geom.Rect, buf []uint32, tail int) []uint32 {
	owner, rects := s.owner, s.items
	w := tail
	var filtered int64
	for _, lid := range buf[tail:] {
		g := owner[lid]
		if g == NONE {
			continue
		}
		rx, ry := refPoint(r, rects[lid])
		if s.lat.idOf(rx, ry) == s.sid {
			buf[w] = g
			w++
		} else {
			filtered++
		}
	}
	if filtered > 0 {
		s.ins.dedupFiltered.Add(filtered)
	}
	return buf[:w]
}

// forEachStealing runs fn(i) for i in [0, n), striping the indices
// across a worker pool with an atomic work-stealing cursor when
// workers > 1 (parutil.Group contains worker panics). Sequential when
// workers <= 1, so single-threaded drivers pay no goroutine overhead.
func forEachStealing(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	var g parutil.Group
	for w := 0; w < workers; w++ {
		g.Go(func() {
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		})
	}
	g.Wait()
}

package grid

import (
	"fmt"

	"repro/internal/callback"
	"repro/internal/geom"
	"repro/internal/obs"
)

// BoxGrid is the CSR grid generalized to extended objects: a uniform
// cps x cps grid over a fixed square space indexing rectangles (MBRs)
// instead of points, following the two-layer space-oriented partitioning
// of Tsitsigkos et al. adapted to this repository's counting-sort CSR
// layout.
//
// Replication: an MBR overlapping k cells appears in all k of them. The
// build is the same two-pass counting sort as the point CSR store with
// the per-point "+1 to one cell" widened to "+1 to every cell of the
// rect's cell span"; the arena therefore holds sum-of-replicas entries
// (the replication factor is reported by ReplicationFactor).
//
// Dedup on emit: replication would make a query report an object once
// per shared cell, so only one cell — the REFERENCE CELL, the first cell
// of the overlap between the query's span and the object's span (the
// cell containing the bottom-left corner of query∩MBR) — may emit it.
// Because both spans are cell ranges, that test is two integer
// comparisons per candidate, with no visited-set allocation and no
// post-pass: Query emits each intersecting object exactly once, in
// unspecified order.
//
// BoxGrid is static: Build is its one maintenance, and Update is a no-op
// (core.IndexOf allows it of a family rebuilt from the snapshot). Build
// runs on one core, also under core's parallel drivers: a sharded sort
// made the same arena and did not beat it at two workers (1.1–1.6 ms
// against 0.8–1.6 ms on the default box stream at cps=48, on a 2-vCPU
// host).
//
// BoxGrid implements core.BoxIndex, core.Counter, and
// core.MemoryReporter.
type BoxGrid struct {
	cps    int
	cells  int
	bounds geom.Rect
	mapper mapper
	slots  spanSlots // the flat build kernels' cell neighbours

	starts []uint32 // len cells+1; cell c's replicas are ids[starts[c]:starts[c+1]]
	counts []uint32 // build scratch: per-cell counts, then scatter cursor by cell
	ids    []uint32 // one contiguous arena of replicated entry IDs

	boxes int         // number of indexed objects (not replicas)
	rects []geom.Rect // the retained snapshot

	// spans caches each object's cell span, so queries dedup without
	// touching float coordinates.
	spans []cellSpan

	// queries counts query-kernel entries (nil until Instrument).
	queries *obs.Counter
	// replicas is CheckInvariants' per-object count (nil until first used).
	replicas []uint32
}

// cellSpan is an inclusive cell range [x0,x1]x[y0,y1]. uint16 covers any
// practical cps (the directory itself is cps² cells).
type cellSpan struct {
	x0, x1, y0, y1 uint16
}

// span is the inclusive cell span of a rectangle whose corners, (MinX,
// MinY) and (MaxX, MaxY), lie at the fixed-point positions (x0, y0) and
// (x1, y1): the cells of its corners, clamped on or outside the space
// boundary into the outermost cells exactly like the point mapping. Every
// box path maps a rectangle so, one position pair a corner (fixedOf).
//
//joinlint:inline
func (m *mapper) span(x0, y0, x1, y1 uint32) cellSpan {
	return cellSpan{x0: uint16(index(x0, m.cols)), x1: uint16(index(x1, m.cols)),
		y0: uint16(index(y0, m.rows)), y1: uint16(index(y1, m.rows))}
}

// spanOf maps a rectangle to its inclusive cell span.
func (m *mapper) spanOf(r geom.Rect) cellSpan {
	x0, y0 := m.fixedOf(geom.Point{X: r.MinX, Y: r.MinY})
	x1, y1 := m.fixedOf(geom.Point{X: r.MaxX, Y: r.MaxY})
	return m.span(x0, y0, x1, y1)
}

// spanPass writes m.spanOf(rects[i]) to spans[i] for every rectangle:
// spanRects, four rectangles an instruction, on the vector tier, and the
// loop below, its definition, everywhere else.
func spanPass(m *mapper, rects []geom.Rect, spans []cellSpan) {
	spans = spans[:len(rects)]
	if vectorKernels {
		spanRects(rects, spans, m)
		return
	}
	for i := range rects {
		spans[i] = m.spanOf(rects[i])
	}
}

// spanSlots places the count / cursor slots of a span of at most 2×2
// cells for the straight-line build kernels (countFlat, scatterFlat):
// the span's first cell (x0, y0) has slot (y0*cps+x0) << shift, and
// its right, upper and diagonal neighbours lie b, c and d slots past
// it. BoxGrid's slots are its cells; BoxGrid2L's are the pair-major
// (cell, class) keys, where the neighbours hold the span's B, C and D
// replicas.
type spanSlots struct {
	shift   uint
	b, c, d int
}

// countFlat is the count pass's straight-line path. For each span of at
// most two cells on either axis, in ID order, it makes four
// unconditional adds: 1 into the first cell's slot, and into each
// neighbour's slot 1 where the span covers it and 0 where it does not.
// An absent neighbour's 0 goes to the first cell's slot, which is always
// in range, so no add branches on the span's shape (at the default
// granularity 1×1, 2×1, 1×2 and 2×2 spans are near coin flips, and
// the loops' trip counts missed on them). It stops at the first wider
// span and returns its index, and the loops (countSpan, BoxGrid's
// countCells) count the rest. The width test is unsigned, so an
// inverted span counts as wide.
//
//joinlint:bce
func countFlat[C uint16 | uint32](counts []C, spans []cellSpan, cps int, l spanSlots) int {
	for i, s := range spans {
		dx, dy := uint(int(s.x1)-int(s.x0)), uint(int(s.y1)-int(s.y0))
		if dx|dy > 1 {
			return i
		}
		a := (int(s.y0)*cps + int(s.x0)) << l.shift
		dd := dx & dy
		counts[a]++
		counts[a+(-int(dx)&l.b)] += C(dx)
		counts[a+(-int(dy)&l.c)] += C(dy)
		counts[a+(-int(dd)&l.d)] += C(dd)
	}
	return len(spans)
}

// scatterFlat is the scatter's straight-line path, countFlat's twin over
// the absolute cursor array cur: four unconditional cursor writes a span,
// placing ID i for spans[i]. An absent neighbour is redirected to the
// span's first-cell cursor, unadvanced: it rewrites the slot just
// written there with the same ID, so the path needs no sink slot. It
// stops where countFlat stops and returns that index, so every run
// receives its IDs in ascending order, as the loops alone would place
// them.
//
//joinlint:bce
func scatterFlat(cur []uint32, spans []cellSpan, cps int, l spanSlots, ids []uint32) int {
	for i, s := range spans {
		dx, dy := uint(int(s.x1)-int(s.x0)), uint(int(s.y1)-int(s.y0))
		if dx|dy > 1 {
			return i
		}
		id := uint32(i)
		a := (int(s.y0)*cps + int(s.x0)) << l.shift
		dd := dx & dy
		p := cur[a]
		ids[p] = id
		cur[a] = p + 1
		j := a + (-int(dx) & l.b)
		p = cur[j] + uint32(dx) - 1
		ids[p] = id
		cur[j] = p + 1
		j = a + (-int(dy) & l.c)
		p = cur[j] + uint32(dy) - 1
		ids[p] = id
		cur[j] = p + 1
		j = a + (-int(dd) & l.d)
		p = cur[j] + uint32(dd) - 1
		ids[p] = id
		cur[j] = p + 1
	}
	return len(spans)
}

// DefaultBoxCPS is the default granularity for box grids: the paper's
// tuned point value, at which the default box workload replicates each
// MBR into ~2 cells.
const DefaultBoxCPS = RefactoredCPS

// MaxBoxCPS is the finest granularity the box grids accept: cell
// coordinates must fit the uint16 span encoding. Exported so parameter
// tuners (internal/tune) can clamp against the same limit.
const MaxBoxCPS = 1 << 16

// maxBoxCPS keeps cell coordinates within the uint16 span encoding.
const maxBoxCPS = MaxBoxCPS

// validateBoxGridParams is the shared parameter validation of the box
// grid constructors.
func validateBoxGridParams(cps int, bounds geom.Rect) error {
	switch {
	case cps <= 0:
		return fmt.Errorf("grid: cells per side must be positive, got %d", cps)
	case cps > maxBoxCPS:
		return fmt.Errorf("grid: cells per side %d exceeds the box grid limit %d", cps, maxBoxCPS)
	case !bounds.Valid() || bounds.Width() <= 0 || bounds.Height() <= 0:
		return fmt.Errorf("grid: invalid bounds %v", bounds)
	case bounds.Width() != bounds.Height():
		return fmt.Errorf("grid: space must be square, got %v", bounds)
	}
	return nil
}

// NewBoxGrid constructs a box grid for the given space. numBoxes sizes
// the arenas; it is a hint, not a limit.
func NewBoxGrid(cps int, bounds geom.Rect, numBoxes int) (*BoxGrid, error) {
	if err := validateBoxGridParams(cps, bounds); err != nil {
		return nil, err
	}
	bg := &BoxGrid{
		cps:    cps,
		cells:  cps * cps,
		bounds: bounds,
		mapper: newMapper(bounds, cps, cps),
	}
	bg.slots = spanSlots{b: 1, c: cps, d: cps + 1}
	bg.starts = make([]uint32, bg.cells+1)
	bg.counts = make([]uint32, bg.cells)
	if numBoxes > 0 {
		bg.ids = make([]uint32, 0, 2*numBoxes)
		bg.spans = make([]cellSpan, 0, numBoxes)
	}
	return bg, nil
}

// MustNewBoxGrid is NewBoxGrid for known-good parameters; it panics on
// error.
func MustNewBoxGrid(cps int, bounds geom.Rect, numBoxes int) *BoxGrid {
	bg, err := NewBoxGrid(cps, bounds, numBoxes)
	if err != nil {
		panic(err)
	}
	return bg
}

// Name implements core.BoxIndex.
func (bg *BoxGrid) Name() string { return fmt.Sprintf("boxgrid-csr(cps=%d)", bg.cps) }

// CPS returns the grid granularity.
func (bg *BoxGrid) CPS() int { return bg.cps }

// Bounds returns the indexed space.
func (bg *BoxGrid) Bounds() geom.Rect { return bg.bounds }

// prepare sizes the snapshot-dependent state for a bulk build.
func (bg *BoxGrid) prepare(rects []geom.Rect) {
	bg.rects = rects
	bg.boxes = len(rects)
	if cap(bg.spans) < len(rects) {
		bg.spans = make([]cellSpan, len(rects))
	} else {
		bg.spans = bg.spans[:len(rects)]
	}
}

// sizeArena grows the ID arena to hold total replicas.
func (bg *BoxGrid) sizeArena(total uint32) {
	if cap(bg.ids) < int(total) {
		bg.ids = make([]uint32, total)
	} else {
		bg.ids = bg.ids[:total]
	}
}

// Build implements core.BoxIndex: the two-pass counting sort over cell
// spans. Pass 1 computes every object's span and counts one slot per
// overlapped cell (countCells); the exclusive prefix sum fixes the
// segments and turns each count into its cell's absolute cursor; pass 2
// replicates each ID into all its cells (scatterCells), which leaves
// every cursor at its segment's end. Arenas are retained across builds,
// so steady-state builds allocate nothing.
func (bg *BoxGrid) Build(rects []geom.Rect) {
	bg.prepare(rects)
	spanPass(&bg.mapper, rects, bg.spans)
	clear(bg.counts)
	bg.countCells(bg.counts, bg.spans)
	bg.sizeArena(prefixCursors(bg.counts, bg.starts))
	bg.scatterCells(bg.counts, bg.spans)
}

// prefixCursors is the exclusive prefix sum of counts into starts (one
// entry longer), turning each count into its cell's absolute scatter
// cursor; it returns the total.
func prefixCursors(counts, starts []uint32) uint32 {
	var sum uint32
	for c, n := range counts {
		starts[c] = sum
		counts[c] = sum
		sum += n
	}
	starts[len(counts)] = sum
	return sum
}

// countCells is the count pass over spans: countFlat while they are at
// most 2×2 cells, then one slot per cell of each span left. An inverted
// span has no cell.
func (bg *BoxGrid) countCells(counts []uint32, spans []cellSpan) {
	cps := bg.cps
	k := countFlat(counts, spans, cps, bg.slots)
	for _, s := range spans[k:] {
		if s.x1 < s.x0 {
			continue
		}
		for cy := int(s.y0); cy <= int(s.y1); cy++ {
			row := counts[cy*cps+int(s.x0) : cy*cps+int(s.x1)+1]
			for j := range row {
				row[j]++
			}
		}
	}
}

// scatterCells places IDs 0, 1, … of spans into every cell of their span
// at the absolute cursor array cur: scatterFlat while the spans are at
// most 2×2 cells, the loops from where it stopped.
func (bg *BoxGrid) scatterCells(cur []uint32, spans []cellSpan) {
	cps := bg.cps
	k := scatterFlat(cur, spans, cps, bg.slots, bg.ids)
	id := uint32(k)
	for _, s := range spans[k:] {
		for cy := int(s.y0); cy <= int(s.y1); cy++ {
			base := cy * cps
			for cx := int(s.x0); cx <= int(s.x1); cx++ {
				c := base + cx
				bg.ids[cur[c]] = id
				cur[c]++
			}
		}
		id++
	}
}

// Query implements core.BoxIndex: QueryAppend's result, one emit per ID.
func (bg *BoxGrid) Query(r geom.Rect, emit func(id uint32)) { callback.Query(bg, r, emit) }

// QueryAppend implements core.QueryAppender: visit the cells overlapping
// r and append every object whose MBR intersects r, exactly once.
//
// Per candidate id in cell (cx, cy) the reference-cell test passes only
// when (cx, cy) is the first cell shared by the query's span and the
// object's span — max(query.x0, span.x0) and likewise for y — so an
// object replicated across k visited cells passes in exactly one of
// them, with no visited set and no float arithmetic. The geometric
// intersection test then confirms the match: replication proves only
// that the object's span touches the cell, so unlike the point grid no
// cell skips the filter — the contract is digest-identical agreement with
// the brute-force oracle.
func (bg *BoxGrid) QueryAppend(r geom.Rect, buf []uint32) []uint32 {
	bg.queries.Inc()
	// The query's span comes from the same mapping as the cached object
	// spans — the dedup test depends on the two never diverging.
	q := bg.mapper.spanOf(r)
	cps := bg.cps
	for cy := int(q.y0); cy <= int(q.y1); cy++ {
		base := cy * cps
		for cx := int(q.x0); cx <= int(q.x1); cx++ {
			buf = bg.appendCell(base+cx, uint16(cx), uint16(cy), q.x0, q.y0, r, buf)
		}
	}
	return buf
}

// refCell reports whether (cx, cy) is the reference cell for an object
// with span s under a query whose span starts at (qx0, qy0): the first
// cell the two spans share.
func refCell(s cellSpan, cx, cy, qx0, qy0 uint16) bool {
	rx := s.x0
	if qx0 > rx {
		rx = qx0
	}
	ry := s.y0
	if qy0 > ry {
		ry = qy0
	}
	return cx == rx && cy == ry
}

// appendCell appends cell c's residents that pass the reference-cell dedup
// and intersect r. The dedup test runs first: for replicated objects it
// rejects all but one cell before any coordinate load.
func (bg *BoxGrid) appendCell(c int, cx, cy, qx0, qy0 uint16, r geom.Rect, buf []uint32) []uint32 {
	for _, id := range bg.ids[bg.starts[c]:bg.starts[c+1]] {
		if refCell(bg.spans[id], cx, cy, qx0, qy0) && bg.rects[id].Intersects(r) {
			buf = append(buf, id)
		}
	}
	return buf
}

// Update implements core.BoxIndex as a no-op: the grid is static, and
// the next Build picks the move up from the snapshot.
func (bg *BoxGrid) Update(id uint32, old, new geom.Rect) {}

// Len implements core.Counter: the number of indexed objects, not
// replicas.
func (bg *BoxGrid) Len() int { return bg.boxes }

// Replicas returns the total number of (object, cell) entries in the
// arena.
func (bg *BoxGrid) Replicas() int { return int(bg.starts[bg.cells]) }

// ReplicationFactor returns replicas per object — the space/dedup cost
// of the cell size relative to the MBR extents (1.0 means no MBR spans
// a cell boundary).
func (bg *BoxGrid) ReplicationFactor() float64 {
	if bg.boxes == 0 {
		return 0
	}
	return float64(bg.Replicas()) / float64(bg.boxes)
}

// MemoryBytes implements core.MemoryReporter: directory, arena, span
// cache, and retained build scratch.
func (bg *BoxGrid) MemoryBytes() int64 {
	return int64(len(bg.starts)+len(bg.counts)+cap(bg.ids))*4 + int64(cap(bg.spans))*8
}

package grid

import (
	"fmt"
	"math"

	"repro/internal/callback"
	"repro/internal/geom"
	"repro/internal/obs"
)

// BoxGrid2L is the two-layer class-partitioned CSR rectangle grid: the
// second layer of Tsitsigkos et al.'s space-oriented partitioning laid
// over BoxGrid's counting-sort arena, plus inlined coordinates.
//
// First layer (same as BoxGrid): an MBR overlapping k cells is
// replicated into all k of them. Second layer: within every cell, the
// replicas are partitioned into four classes by where the rectangle's
// span BEGINS relative to the cell —
//
//	class A: the rect's reference cell (span starts here on both axes)
//	class B: the rect entered from the left (same span row, earlier column)
//	class C: the rect entered from below (same span column, earlier row)
//	class D: interior — the rect entered diagonally (earlier on both axes)
//
// The classes are stored as four contiguous sub-spans of the cell's
// arena segment, produced by one class-refined counting sort over the
// key cell*4+class (the "second counting-sort pass" folded into the
// first). The payoff is on the query path: for a query span Q,
//
//   - class A passes the reference-cell dedup test in EVERY cell of Q
//     (its span starts here, so the first shared cell is this one);
//   - class B can pass only in Q's first column, class C only in Q's
//     first row, class D only in Q's corner cell — everywhere else the
//     whole sub-span is skipped without looking at a single element.
//
// The per-candidate reference-cell test of BoxGrid is gone entirely, and
// most of the intersection test goes with it: by monotonicity of the
// cell mapping, a comparison between a query edge and a rect edge is
// decided for free whenever their cell coordinates differ. In a cell
// interior to Q (not in its first/last row/column), class A needs NO
// comparison at all — the kernel copies IDs straight out of the
// arena. On Q's boundary rows/columns the surviving comparisons read the
// edges in 16-bit quanta, inlined in four planes parallel to the ID arena
// (see q), each cell only the edges its place in Q leaves undecided; the
// base MBR table is read only for a replica whose quantum ties the
// window's, to decide it exactly. Class D keeps a two-comparison
// max-corner test in the corner cell: probe rectangles are not
// cell-aligned, so a rect ending inside the corner cell can still miss the
// query by less than a cell (the tile-to-tile join of the source paper can
// drop class D outright only because there both sides are partitioned).
//
// BoxGrid2L is static: the class partition is the counting sort's, Build
// is its one maintenance, and Update is a no-op (core.IndexOf allows it
// of a family rebuilt from the snapshot). Build runs on one core, also
// under core's parallel drivers: a sharded sort made the same arena and
// lost to it at two workers (1.9–2.4 ms against 1.4–2.0 ms on the default
// box stream at cps=48, on a 2-vCPU host).
//
// BoxGrid2L implements core.BoxIndex, core.Counter, and
// core.MemoryReporter, and is digest-identical to BoxGrid and the
// brute-force oracle.
type BoxGrid2L struct {
	cps    int
	cells  int
	bounds geom.Rect
	// mapper maps an edge to its fixed-point position, and that to its cell
	// and its quantum.
	mapper mapper
	slots  spanSlots // the flat build kernels' B, C and D keys

	starts []uint32 // len cells+1; segment capacity of c is starts[c+1]-starts[c]
	// ends holds the exclusive end of every class run in PAIR-MAJOR
	// layout (see endIdx): the first 2*cells entries pair the first-row
	// classes per cell ([2c]=A, [2c+1]=B), the second half pairs the
	// rest-row classes ([2cells+2c]=C, [2cells+2c+1]=D). The runs are
	// contiguous in the arena in A,B,C,D order, so run j of cell c is
	// [end(j-1), end(j)) with end(-1) = starts[c] and end(D) =
	// starts[c+1].
	// The layout matches the build scratch so a span row touches one
	// plane, and the sequential build uses ends AS the scatter cursor
	// array (prefixClassedCursors pre-loads the run bases here, the
	// scatter advances them to the run ends in place — no publish copy).
	ends []uint32
	ids  []uint32 // one contiguous arena of replicated entry IDs
	// q inlines the edges in quanta, one plane per edge in geom.Rect's
	// field order (edgeMinX … edgeMaxY), parallel to ids: the quantum of
	// each edge over the whole space (its fixed-point position >> 16), a
	// min edge's complemented (quantSteps-1 minus it), so that every window
	// test has one form, plane[k] >= bound, as with the negated mins of
	// float planes. The map is monotone, so a quantum above the bound proves the
	// edge past the window's and one below proves it short; only a tie
	// reads the rect (edgeBound). That is 8 bytes a replica for the 16 of
	// four float32 planes.
	q [4][]uint16

	boxes int         // number of indexed objects (not replicas)
	rects []geom.Rect // the retained snapshot

	// spans is the build's per-object cell span, kept for the audit.
	spans []cellSpan

	// counts16/counts4 is the count-pass scratch in pair-major layout.
	// A (cell, class) count is bounded by the population (each object
	// contributes at most one replica per cell), so whenever the
	// population fits uint16 the count pass runs on the half-width
	// plane — at cps=256 that is 512 KiB of randomly-incremented
	// scratch instead of 1 MiB, the difference between staying L2
	// resident and spilling (see Build).
	counts16 []uint16
	counts4  []uint32 // full-width fallback for populations > 65535
	// queries counts query-kernel entries (nil until Instrument).
	queries *obs.Counter
	// audit is CheckInvariants' reusable state (nil until first used).
	audit *boxAudit
}

// NewBoxGrid2L constructs a class-partitioned box grid for the given
// space. numBoxes sizes the arenas; it is a hint, not a limit.
func NewBoxGrid2L(cps int, bounds geom.Rect, numBoxes int) (*BoxGrid2L, error) {
	if err := validateBoxGridParams(cps, bounds); err != nil {
		return nil, err
	}
	bg := &BoxGrid2L{
		cps:    cps,
		cells:  cps * cps,
		bounds: bounds,
		mapper: newMapper(bounds, cps, cps),
	}
	// Key 2c is cell c's A, 2c+3 the B of cell c+1, and C and D sit a
	// row up in the second plane (endIdx).
	rest := 2*bg.cells + 2*cps
	bg.slots = spanSlots{shift: 1, b: 3, c: rest, d: rest + 3}
	bg.starts = make([]uint32, bg.cells+1)
	bg.ends = make([]uint32, 4*bg.cells)
	if numBoxes > 0 {
		bg.sizeArena(uint32(2 * numBoxes))
		bg.spans = make([]cellSpan, 0, numBoxes)
	}
	return bg, nil
}

// MustNewBoxGrid2L is NewBoxGrid2L for known-good parameters; it panics
// on error.
func MustNewBoxGrid2L(cps int, bounds geom.Rect, numBoxes int) *BoxGrid2L {
	bg, err := NewBoxGrid2L(cps, bounds, numBoxes)
	if err != nil {
		panic(err)
	}
	return bg
}

// Name implements core.BoxIndex.
func (bg *BoxGrid2L) Name() string { return fmt.Sprintf("boxgrid-2l(cps=%d)", bg.cps) }

// CPS returns the grid granularity.
func (bg *BoxGrid2L) CPS() int { return bg.cps }

// Bounds returns the indexed space.
func (bg *BoxGrid2L) Bounds() geom.Rect { return bg.bounds }

// classAt returns the class of a replica of span s in cell (cx, cy):
// 0=A, 1=B, 2=C, 3=D (bit 0: entered horizontally, bit 1: vertically).
func classAt(s cellSpan, cx, cy int) int {
	k := 0
	if cx > int(s.x0) {
		k = 1
	}
	if cy > int(s.y0) {
		k |= 2
	}
	return k
}

// endIdx maps (cell, class) to its slot in the pair-major ends layout.
func (bg *BoxGrid2L) endIdx(c, j int) int {
	return (j&2)*bg.cells + 2*c + (j & 1)
}

// prepare sizes the snapshot-dependent state for a bulk build. Count
// scratch is sized and zeroed by the build paths themselves: the
// sequential build picks the counter width by population, the sharded
// build uses per-worker arrays instead.
func (bg *BoxGrid2L) prepare(rects []geom.Rect) {
	bg.rects = rects
	bg.boxes = len(rects)
	if cap(bg.spans) < len(rects) {
		bg.spans = make([]cellSpan, len(rects))
	} else {
		bg.spans = bg.spans[:len(rects)]
	}
}

// resetCounts returns the zeroed pair-major count scratch of width C.
func resetCounts[C uint16 | uint32](buf []C, n int) []C {
	if cap(buf) < n {
		return make([]C, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// sizeArena sizes the ID arena and the edge planes to hold total replicas.
func (bg *BoxGrid2L) sizeArena(total uint32) {
	n := int(total)
	if cap(bg.ids) < n {
		bg.ids = make([]uint32, n)
		for e := range bg.q {
			bg.q[e] = make([]uint16, n)
		}
		return
	}
	bg.ids = bg.ids[:n]
	for e := range bg.q {
		bg.q[e] = bg.q[e][:n]
	}
}

// countSpan adds one slot per (cell, class) of the span to the
// pair-major scratch counts4. A span row is all first-row classes (A at
// the head, B after) or all rest-row classes (C head, D after), and the
// pair-major layout keeps a row's head and tail counters in ONE plane
// region — [2c] for the head class, [2c+1] stride-2 for the rest — so
// each span row touches a single contiguous stretch of scratch, like
// the unclassed grid's count pass. (Runs here are 2-4 cells, so the
// stride-2 walk costs nothing over a dense one; locality is what
// matters.)
// The fr/rr planes are sliced once per build by the caller — per-call
// re-slicing was a measurable fraction of the walk at the default
// granularity, where most spans are one or two cells.
//
//joinlint:bce
func countSpan[C uint16 | uint32](fr, rr []C, s cellSpan, cps int) {
	w := 2 * (int(s.x1) - int(s.x0))
	if w < 0 {
		return // inverted: no cell
	}
	for cy := int(s.y0); cy <= int(s.y1); cy++ {
		plane := rr
		if cy == int(s.y0) {
			plane = fr
		}
		base := 2 * (cy*cps + int(s.x0))
		// Reslice the span row once so the stride-2 walk is
		// bounds-check-free (len(row) is loop-invariant).
		row := plane[base : base+w+2]
		row[0]++
		for i := 3; i < len(row); i += 2 {
			row[i]++
		}
	}
}

// countSpans is countSpan for each of spans.
//
//joinlint:bce
func countSpans[C uint16 | uint32](fr, rr []C, spans []cellSpan, cps int) {
	for _, s := range spans {
		countSpan(fr, rr, s, cps)
	}
}

// countClassed is the count pass over spans into the pair-major scratch
// counts: countFlat while the spans are at most 2×2 cells, countSpans
// from the first wider one.
func countClassed[C uint16 | uint32](counts []C, spans []cellSpan, cps int, l spanSlots) {
	k := countFlat(counts, spans, cps, l)
	half := len(counts) / 2
	countSpans(counts[:half:half], counts[half:], spans[k:], cps)
}

// scatterClassed places IDs 0, 1, … of spans at the absolute pair-major
// cursor array cur: scatterFlat while the spans are at most 2×2 cells,
// scatterSpan from the first wider one.
func (bg *BoxGrid2L) scatterClassed(cur []uint32, spans []cellSpan) {
	k := scatterFlat(cur, spans, bg.cps, bg.slots, bg.ids)
	half := 2 * bg.cells
	fr, rr := cur[:half:half], cur[half:]
	for i, s := range spans[k:] {
		scatterSpan(fr, rr, s, bg.cps, uint32(k+i), bg.ids)
	}
}

// scatterSpan places one replica of id into every (cell, class) slot of
// the span, advancing the absolute pair-major cursor array cur (the ends
// array, pre-loaded with the run bases by prefixClassedCursors). Only
// the 4-byte ID is scattered — the edges are filled by a separate
// streaming pass (fillQuanta). Fusing the rect write into this
// walk was re-measured for the build-tax fix and lost again, 1.5-1.6x
// slower end to end at cps=256, both naively (the random 16-byte
// stores stride the whole multi-megabyte arena) and as a
// band-bucketed cache-resident tile pass (the bucket materialization
// burns the bandwidth the banding saves); a sequential arena sweep
// against (mostly cached) random base-table reads stays the cheapest
// way to inline coordinates on every machine measured.
//
//joinlint:bce
func scatterSpan(fr, rr []uint32, s cellSpan, cps int, id uint32, ids []uint32) {
	w := 2 * (int(s.x1) - int(s.x0))
	if w < 0 {
		return // inverted: no cell
	}
	for cy := int(s.y0); cy <= int(s.y1); cy++ {
		plane := rr
		if cy == int(s.y0) {
			plane = fr
		}
		base := 2 * (cy*cps + int(s.x0))
		// Same bounds-check-free row reslice as countSpan.
		row := plane[base : base+w+2]
		pos := row[0]
		row[0] = pos + 1
		ids[pos] = id
		for i := 3; i < len(row); i += 2 {
			pos = row[i]
			row[i] = pos + 1
			ids[pos] = id
		}
	}
}

// fillQuanta writes slot k of the four planes q from the edges of
// rects[ids[k]], as quantaOf maps them: four sequential write streams
// against random reads of the base table. quantFill (label_amd64.s) does it
// sixteen slots a block on the vector tier, gathering each edge and
// quantising it with the spans' clamp; the loop below is its definition,
// and the whole pass elsewhere, or when an ID is no index into rects,
// where the loop panics as the gather may not.
//
//joinlint:hotpath
//joinlint:bce
func fillQuanta(m *mapper, rects []geom.Rect, ids []uint32, q *[4][]uint16) {
	if vectorKernels && quantFill(ids, rects, q[0], q[1], q[2], q[3], m) >= 0 {
		return
	}
	nx, ny, mx, my := q[edgeMinX][:len(ids)], q[edgeMinY][:len(ids)], q[edgeMaxX][:len(ids)], q[edgeMaxY][:len(ids)]
	for k, id := range ids {
		r := &rects[id]
		x0, y0 := m.fixedOf(geom.Point{X: r.MinX, Y: r.MinY})
		x1, y1 := m.fixedOf(geom.Point{X: r.MaxX, Y: r.MaxY})
		nx[k], ny[k], mx[k], my[k] = ^uint16(x0>>16), ^uint16(y0>>16), uint16(x1>>16), uint16(y1>>16)
	}
}

// prefixClassedCursors is the exclusive prefix sum in (cell, class)
// order: counts are read from the pair-major count plane and each run's
// resulting absolute scatter cursor is written STRAIGHT INTO the
// pair-major ends array (the cursor layout IS the ends layout, and the
// scatter leaves each cursor at its run's exclusive end) — so no
// separate cursor buffer exists and no post-scatter copy publishes the
// class boundaries. The two pair planes are walked as separate streams
// with the per-cell class quad unrolled.
func prefixClassedCursors[C uint16 | uint32](counts []C, starts, ends []uint32, cells int) uint32 {
	cfr := counts[:2*cells]
	crr := counts[2*cells:]
	efr := ends[:2*cells]
	errr := ends[2*cells:]
	var sum uint32
	for c := 0; c < cells; c++ {
		starts[c] = sum
		c2 := 2 * c
		n := uint32(cfr[c2])
		efr[c2] = sum
		sum += n
		n = uint32(cfr[c2+1])
		efr[c2+1] = sum
		sum += n
		n = uint32(crr[c2])
		errr[c2] = sum
		sum += n
		n = uint32(crr[c2+1])
		errr[c2+1] = sum
		sum += n
	}
	starts[cells] = sum
	return sum
}

// Build implements core.BoxIndex: the class-refined two-pass counting
// sort. Pass 1 maps every rectangle to its span (spanPass) and counts one
// slot per (overlapped cell, class) of it (countClassed); the
// exclusive prefix sum over the key cell*4+class fixes both the cell
// segments and the class sub-spans; pass 2 replicates each ID into its
// slots (scatterClassed) while a streaming third pass inlines the edges
// in quanta (fillQuanta; measured faster than fusing the edge writes into
// the scatter — see scatterSpan). Arenas are retained but sized exactly, so a
// replica total that sets a new maximum — every few ticks of a moving
// stream — re-makes them.
func (bg *BoxGrid2L) Build(rects []geom.Rect) {
	bg.prepare(rects)
	spanPass(&bg.mapper, rects, bg.spans)
	cells := bg.cells
	var sum uint32
	// A (cell, class) count never exceeds the population, so small-enough
	// populations count on the half-width plane — half the randomly
	// incremented scratch footprint, which is where the classed count's
	// cost over the unclassed one lives.
	if len(rects) <= maxUint16Boxes {
		bg.counts16 = resetCounts(bg.counts16, 4*cells)
		countClassed(bg.counts16, bg.spans, bg.cps, bg.slots)
		sum = prefixClassedCursors(bg.counts16, bg.starts, bg.ends, cells)
	} else {
		bg.counts4 = resetCounts(bg.counts4, 4*cells)
		countClassed(bg.counts4, bg.spans, bg.cps, bg.slots)
		sum = prefixClassedCursors(bg.counts4, bg.starts, bg.ends, cells)
	}
	bg.sizeArena(sum)
	bg.scatterClassed(bg.ends, bg.spans)
	fillQuanta(&bg.mapper, rects, bg.ids, &bg.q)
}

// maxUint16Boxes is the largest population whose per-(cell, class)
// counts provably fit the half-width count plane.
const maxUint16Boxes = 1<<16 - 1

// The edges of a rectangle in geom.Rect's field order, which is the order
// of the planes in q.
const (
	edgeMinX = iota
	edgeMinY
	edgeMaxX
	edgeMaxY
)

// quantaOf returns r's edges as the planes hold them, in plane order: the
// quantum of each over the space (its fixed-point position >> 16), a min
// edge's complemented.
func quantaOf(m *mapper, r *geom.Rect) [4]uint16 {
	x0, y0 := m.fixedOf(geom.Point{X: r.MinX, Y: r.MinY})
	x1, y1 := m.fixedOf(geom.Point{X: r.MaxX, Y: r.MaxY})
	return [4]uint16{^uint16(x0 >> 16), ^uint16(y0 >> 16), uint16(x1 >> 16), uint16(y1 >> 16)}
}

// edgeOf returns edge e of r in plane form, as a float32 plane held it: a
// max as it is, a min negated (which only flips its sign bit).
func edgeOf(r *geom.Rect, e uint32) float32 {
	v := [4]float32{-r.MinX, -r.MinY, r.MaxX, r.MaxY}
	return v[e&3]
}

// edgeBound is one edge test of a window as the planes make it: a replica
// passes where plane e's quantum is above q and fails where it is below,
// and on a tie passes where the sign of edgeOf(rects[id], e) - b is clear.
// That is the float32 planes' test, bit for bit (decideRun): the quantum is
// monotone in the edge, so a quantum above (below) the bound's proves the
// edge above (below) the bound, where the difference's sign says the same.
type edgeBound struct {
	q int32   // the window edge's quantum as plane e holds an edge
	b float32 // the window edge in plane form
	e uint32  // the plane, and the rect field a tie reads
}

// boxInf bounds any finite float32 coordinate: a float bound of -boxInf
// passes every finite edge.
const boxInf = math.MaxFloat32

// noBound is the test of edge e that every replica passes: a quantum bound
// below every quantum, so nothing ties it, and -boxInf for the exact test
// of a replica tied on another edge.
func noBound(e uint32) edgeBound { return edgeBound{-1, -boxInf, e} }

// windowOf returns r's cell span and its four edge tests in plane order:
// MinX <= r.MaxX, MinY <= r.MaxY, MaxX >= r.MinX and MaxY >= r.MinY, each in
// the form plane >= bound. The query maps its window once, here: four
// fixed-point positions, of which the span and the quanta are integer
// functions.
func (bg *BoxGrid2L) windowOf(r geom.Rect) (cellSpan, [4]edgeBound) {
	m := &bg.mapper
	x0, y0 := m.fixedOf(geom.Point{X: r.MinX, Y: r.MinY})
	x1, y1 := m.fixedOf(geom.Point{X: r.MaxX, Y: r.MaxY})
	return m.span(x0, y0, x1, y1), [4]edgeBound{
		{int32(^uint16(x1 >> 16)), -r.MaxX, edgeMinX},
		{int32(^uint16(y1 >> 16)), -r.MaxY, edgeMinY},
		{int32(x0 >> 16), r.MinX, edgeMaxX},
		{int32(y0 >> 16), r.MinY, edgeMaxY},
	}
}

// axisWindow returns class A's tests on one axis, on its min plane and
// its max plane: the window's where the cell is last (min) or first (max)
// in the query span, and noBound where it is not.
func axisWindow(first, last bool, n, m edgeBound) (edgeBound, edgeBound) {
	if !last {
		n = noBound(n.e)
	}
	if !first {
		m = noBound(m.e)
	}
	return n, m
}

// Query implements core.BoxIndex: QueryAppend's result, one emit per ID.
func (bg *BoxGrid2L) Query(r geom.Rect, emit func(id uint32)) { callback.Query(bg, r, emit) }

// QueryAppend implements core.QueryAppender: visit the cells of r's span
// and append every object whose MBR intersects r, exactly once, reading
// only the edge planes each class's predicate names, and the base table
// only where a quantum ties the window's (edgeBound). The span comes from
// the same mapping as the stored class partition; the per-class
// predicates depend on the two never diverging. In cell (cx, cy) of the
// span, with the query's window on each axis taken from its edge where the
// cell is first or last in the span (axisWindow):
//
//   - class A passes under the full window, and in a cell interior to the
//     span (first or last on neither axis) is a guaranteed hit: its
//     reference corner lies in a cell the query covers on both axes;
//   - class B (entered from the left) can pass only in the first column,
//     where its reference cell under this query lies, and needs no
//     MinX <= r.MaxX test: its span started in an earlier column;
//   - class C (entered from below) likewise, in the first row only,
//     without MinY <= r.MaxY;
//   - class D (entered diagonally) only in the corner cell, and only its
//     max-corner comparisons survive.
//
// In a boundary cell the classes that can pass are tested as one
// contiguous run under class A's window wherever they are adjacent in the
// arena: A‖B‖C‖D in the span's corner cell, A‖B in the rest of its first
// column, A and then C in the rest of its first row, A alone elsewhere.
// The full window adds MinX <= hiX for B and D and MinY <= hiY for C and
// D, tests the monotonicity of the cell mapping decides (such a replica's
// span starts in an earlier column / row than this cell), so the result
// is the per-class predicates'.
//
// A span of two or more cells on both axes, walked here row by row, puts
// a cell first or last on an axis, never both, so a run reads only the
// edges its cell's place leaves undecided: an x and a y plane in the
// span's four corners (appendMasked2), one plane along its sides
// (appendMasked1), none inside, where class A is one bulk copy.
//
//joinlint:hotpath
func (bg *BoxGrid2L) QueryAppend(r geom.Rect, buf []uint32) []uint32 {
	bg.queries.Inc()
	q, w := bg.windowOf(r)
	if q.x0 == q.x1 || q.y0 == q.y1 {
		return bg.appendNarrow(&w, q, buf)
	}
	half := 2 * bg.cells
	for cy := int(q.y0); cy <= int(q.y1); cy++ {
		firstRow := cy == int(q.y0)
		by, edgeRow := w[edgeMaxY], true // the row's undecided y edge; none between the first and last row
		if !firstRow {
			by, edgeRow = w[edgeMinY], cy == int(q.y1)
		}
		first := cy*bg.cps + int(q.x0)
		c, last := first, first+int(q.x1-q.x0)
		hi := bg.ends[2*c+1] // first column: A‖B, in the corner cell A‖B‖C‖D
		if firstRow {
			hi = bg.ends[half+2*c+1]
		}
		if !edgeRow {
			buf = bg.appendMasked1(bg.starts[c], hi, w[edgeMaxX], buf)
		} else {
			buf = bg.appendMasked2(bg.starts[c], hi, w[edgeMaxX], by, buf)
		}
		for c++; c < last; c++ { // middle columns: A, and C in the first row
			if !edgeRow {
				buf = append(buf, bg.ids[bg.starts[c]:bg.ends[2*c]]...)
				continue
			}
			buf = bg.appendMasked1(bg.starts[c], bg.ends[2*c], by, buf)
			if firstRow {
				buf = bg.appendMasked1(bg.ends[2*c+1], bg.ends[half+2*c], by, buf)
			}
		}
		if !edgeRow { // last column: A, and C in the first row
			buf = bg.appendMasked1(bg.starts[c], bg.ends[2*c], w[edgeMinX], buf)
		} else {
			buf = bg.appendMasked2(bg.starts[c], bg.ends[2*c], w[edgeMinX], by, buf)
			if firstRow {
				buf = bg.appendMasked2(bg.ends[2*c+1], bg.ends[half+2*c], w[edgeMinX], by, buf)
			}
		}
	}
	return buf
}

// appendNarrow is QueryAppend for a span one cell wide or tall, where a
// cell can be first and last on an axis at once: every run takes the full
// window (appendMasked).
//
//joinlint:hotpath
func (bg *BoxGrid2L) appendNarrow(w *[4]edgeBound, q cellSpan, buf []uint32) []uint32 {
	half := 2 * bg.cells
	for cy := int(q.y0); cy <= int(q.y1); cy++ {
		firstRow := cy == int(q.y0)
		ny, my := axisWindow(firstRow, cy == int(q.y1), w[edgeMinY], w[edgeMaxY])
		for cx := int(q.x0); cx <= int(q.x1); cx++ {
			firstCol := cx == int(q.x0)
			nx, mx := axisWindow(firstCol, cx == int(q.x1), w[edgeMinX], w[edgeMaxX])
			cw := [4]edgeBound{nx, ny, mx, my}
			c := cy*bg.cps + cx
			hi := bg.ends[2*c] // A
			if firstCol && firstRow {
				hi = bg.ends[half+2*c+1] // A‖B‖C‖D
			} else if firstCol {
				hi = bg.ends[2*c+1] // A‖B
			}
			buf = bg.appendMasked(bg.starts[c], hi, &cw, buf)
			if firstRow && !firstCol {
				buf = bg.appendMasked(bg.ends[2*c+1], bg.ends[half+2*c], &cw, buf) // C
			}
		}
	}
	return buf
}

// appendMasked appends every ID of arena slots [lo, hi) that passes all
// four tests of w, branchlessly: each candidate is stored unconditionally
// and the write cursor advances by its decision. On the quanta, with x a
// plane's quantum and b its bound, a candidate is a hit when x > b on every
// plane, a miss when x < b on one, and a tie otherwise. The loop
// (planesLoop4) decides the hits and counts the ties, so it has no branch
// and no call; a run with a tie is decided again by decideRun, which reads
// the base table. Ties are rare: a quantum of the benchmark's space is a
// third of a unit. (A branch on the tie in the loop spilled the loop's
// planes and bounds around the call.)
//
// These loops, with those of appendMasked2 and appendMasked1, are the
// definition and the portable tier; filterPlanes4 (filter_amd64.s), and
// filterPlanes2 and filterPlanes1 for theirs, make the same decisions
// sixteen candidates at a time, gathering the edges of tied candidates
// alone — or return a negative count when a tied candidate's ID is no
// index they may gather through, which leaves the run to the loop and
// decideRun's index panic.
//
//joinlint:hotpath
//joinlint:bce
func (bg *BoxGrid2L) appendMasked(lo, hi uint32, w *[4]edgeBound, buf []uint32) []uint32 {
	seg := bg.ids[lo:hi]
	nx, ny, mx, my := bg.q[edgeMinX][lo:hi], bg.q[edgeMinY][lo:hi], bg.q[edgeMaxX][lo:hi], bg.q[edgeMaxY][lo:hi]
	k := len(buf)
	buf = reserve(buf, len(seg))
	if vectorKernels {
		if n := filterPlanes4(seg, buf[k:], bg.rects, nx, w[0], ny, w[1], mx, w[2], my, w[3]); n >= 0 {
			return buf[:k+n]
		}
	}
	n, ties := planesLoop4(seg, nx, ny, mx, my, [4]int32{w[0].q, w[1].q, w[2].q, w[3].q}, buf, k)
	if ties != 0 {
		return bg.decideRun(lo, hi, w[:], buf, k)
	}
	return buf[:n]
}

// appendMasked2 is appendMasked over two planes and their bounds: 8 bytes
// a candidate for the full window's 12.
//
//joinlint:hotpath
//joinlint:bce
func (bg *BoxGrid2L) appendMasked2(lo, hi uint32, bx, by edgeBound, buf []uint32) []uint32 {
	seg := bg.ids[lo:hi]
	px, py := bg.q[bx.e&3][lo:hi], bg.q[by.e&3][lo:hi]
	k := len(buf)
	buf = reserve(buf, len(seg))
	if vectorKernels {
		if n := filterPlanes2(seg, buf[k:], bg.rects, px, bx, py, by); n >= 0 {
			return buf[:k+n]
		}
	}
	n, ties := planesLoop2(seg, px, py, bx.q, by.q, buf, k)
	if ties != 0 {
		return bg.decideRun(lo, hi, []edgeBound{bx, by}, buf, k)
	}
	return buf[:n]
}

// appendMasked1 is appendMasked over one plane and its bound.
//
//joinlint:hotpath
//joinlint:bce
func (bg *BoxGrid2L) appendMasked1(lo, hi uint32, b edgeBound, buf []uint32) []uint32 {
	seg := bg.ids[lo:hi]
	p := bg.q[b.e&3][lo:hi]
	k := len(buf)
	buf = reserve(buf, len(seg))
	if vectorKernels {
		if n := filterPlanes1(seg, buf[k:], bg.rects, p, b); n >= 0 {
			return buf[:k+n]
		}
	}
	n, ties := planesLoop1(seg, p, b.q, buf, k)
	if ties != 0 {
		return bg.decideRun(lo, hi, []edgeBound{b}, buf, k)
	}
	return buf[:n]
}

// planesLoop4 is appendMasked's loop: it stores seg's IDs into buf from
// buf[k] on, which has room for them, advancing k past each hit of the
// four planes' quanta against the bounds b — every b-x negative, so their
// AND has a set sign — and returns k and the number of ties: it counts in
// c the candidates no plane puts below its bound (the OR of the x-b has a
// clear sign), and a tie is one of those that is not a hit. The loops are
// functions of their own, kept out of line, so that nothing outlives them
// but k and c: in the wrappers, the values decideRun needs after the loop
// took the registers the loop needed, and the planes and bounds were
// reloaded from the stack every candidate. (Tracking the ties as the OR of
// the d-1 without the OR of the d took a register more, and was slower.)
//
//joinlint:bce
//go:noinline
func planesLoop4(seg []uint32, nx, ny, mx, my []uint16, b [4]int32, buf []uint32, k int) (int, int) {
	nx, ny, mx, my = nx[:len(seg)], ny[:len(seg)], mx[:len(seg)], my[:len(seg)]
	c := k
	for j, id := range seg {
		x0, x1, x2, x3 := int32(nx[j]), int32(ny[j]), int32(mx[j]), int32(my[j])
		buf[k] = id
		k += int(uint32((b[0]-x0)&(b[1]-x1)&(b[2]-x2)&(b[3]-x3)) >> 31)
		c += int(uint32(^((x0 - b[0]) | (x1 - b[1]) | (x2 - b[2]) | (x3 - b[3]))) >> 31)
	}
	return k, c - k
}

// planesLoop2 is appendMasked2's loop, planesLoop4 over two planes.
//
//joinlint:bce
//go:noinline
func planesLoop2(seg []uint32, px, py []uint16, bx, by int32, buf []uint32, k int) (int, int) {
	px, py = px[:len(seg)], py[:len(seg)]
	c := k
	for j, id := range seg {
		x0, x1 := int32(px[j]), int32(py[j])
		buf[k] = id
		k += int(uint32((bx-x0)&(by-x1)) >> 31)
		c += int(uint32(^((x0 - bx) | (x1 - by))) >> 31)
	}
	return k, c - k
}

// planesLoop1 is appendMasked1's loop, planesLoop4 over one plane.
//
//joinlint:bce
//go:noinline
func planesLoop1(seg []uint32, p []uint16, b int32, buf []uint32, k int) (int, int) {
	p = p[:len(seg)]
	c := k
	for j, id := range seg {
		x := int32(p[j])
		buf[k] = id
		k += int(uint32(b-x) >> 31)
		c += int(uint32(^(x - b)) >> 31)
	}
	return k, c - k
}

// decideRun is the kernels' decision over arena slots [lo, hi) under the
// tests bs, into buf from buf[k] on, which has room for the run: the
// quanta decide every candidate but a tie, and a tie takes the float32
// planes' test, bit for bit — the sign of edgeOf(rects[id], e) minus the
// bound on every tested edge, clear on all of them. A difference of +0
// passes, and a min of 0, which negates to -0, fails only against a bound
// of +0, the negation of a query max of -0.
func (bg *BoxGrid2L) decideRun(lo, hi uint32, bs []edgeBound, buf []uint32, k int) []uint32 {
	for j, id := range bg.ids[lo:hi] {
		var closed, open int32
		for _, b := range bs {
			d := int32(bg.q[b.e&3][int(lo)+j]) - b.q
			closed, open = closed|d, open|(d-1)
		}
		hit := 1 - int(uint32(open)>>31)
		if open&^closed < 0 {
			r := &bg.rects[id]
			var m uint32
			for _, b := range bs {
				m |= math.Float32bits(edgeOf(r, b.e) - b.b)
			}
			hit = 1 - int(m>>31)
		}
		buf[k] = id
		k += hit
	}
	return buf[:k]
}

// Update implements core.BoxIndex as a no-op: the grid is static, and
// the next Build picks the move up from the snapshot.
func (bg *BoxGrid2L) Update(id uint32, old, new geom.Rect) {}

// Len implements core.Counter: the number of indexed objects, not
// replicas.
func (bg *BoxGrid2L) Len() int { return bg.boxes }

// Replicas returns the total number of (object, cell) entries in the
// arena.
func (bg *BoxGrid2L) Replicas() int { return int(bg.starts[bg.cells]) }

// ReplicationFactor returns replicas per object.
func (bg *BoxGrid2L) ReplicationFactor() float64 {
	if bg.boxes == 0 {
		return 0
	}
	return float64(bg.Replicas()) / float64(bg.boxes)
}

// ClassCounts returns the total number of dense-arena replicas per class
// (A, B, C, D), exposed for tests and the class-mix diagnostics.
func (bg *BoxGrid2L) ClassCounts() [4]int {
	var out [4]int
	for c := 0; c < bg.cells; c++ {
		lo := bg.starts[c]
		for j := 0; j < 4; j++ {
			hi := bg.ends[bg.endIdx(c, j)]
			out[j] += int(hi - lo)
			lo = hi
		}
	}
	return out
}

// MemoryBytes implements core.MemoryReporter: directory, ID arena and the
// four planes of quanta, span cache, and retained build scratch.
func (bg *BoxGrid2L) MemoryBytes() int64 {
	total := int64(len(bg.starts)+len(bg.ends)+cap(bg.counts4)+cap(bg.ids)) * 4
	for _, p := range bg.q {
		total += int64(cap(p)) * 2
	}
	total += int64(cap(bg.counts16)) * 2
	total += int64(cap(bg.spans)) * 8
	return total
}

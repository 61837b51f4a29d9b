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
// arena. On Q's boundary rows/columns the surviving comparisons read
// coordinates inlined in four edge planes parallel to the ID arena (see
// mx), each cell only the edges its place in Q leaves undecided, so the
// base MBR table is never dereferenced. Class D keeps a two-comparison
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
	cps      int
	cells    int
	bounds   geom.Rect
	cellSize float32
	mapper   cellMapper
	slots    spanSlots // the flat build kernels' B, C and D keys

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
	// mx, my, nx, ny inline the coordinates, one plane per edge, parallel
	// to ids: MaxX, MaxY, -MinX, -MinY. With the mins negated every window
	// test is plane[k]-bound >= 0 (a min plane's bound is the negated query
	// max): negation is exact, so (-a)-(-b) is b-a bit for bit.
	mx, my, nx, ny []float32

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
		cps:      cps,
		cells:    cps * cps,
		bounds:   bounds,
		cellSize: bounds.Width() / float32(cps),
	}
	bg.mapper = cellMapper{
		minX:    bounds.MinX,
		minY:    bounds.MinY,
		invCell: 1 / bg.cellSize,
		cps:     cps,
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
	if n := int(total); cap(bg.ids) < n {
		bg.ids = make([]uint32, n)
		bg.mx, bg.my, bg.nx, bg.ny = make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)
	} else {
		bg.ids = bg.ids[:n]
		bg.mx, bg.my, bg.nx, bg.ny = bg.mx[:n], bg.my[:n], bg.nx[:n], bg.ny[:n]
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

// scatterClassed places IDs id, id+1, … of spans at the absolute
// pair-major cursor array cur: scatterFlat while the spans are at most
// 2×2 cells, scatterSpan from the first wider one.
func (bg *BoxGrid2L) scatterClassed(cur []uint32, spans []cellSpan, id uint32) {
	k := scatterFlat(cur, spans, bg.cps, bg.slots, id, bg.ids)
	half := 2 * bg.cells
	fr, rr := cur[:half:half], cur[half:]
	for i, s := range spans[k:] {
		scatterSpan(fr, rr, s, bg.cps, id+uint32(k+i), bg.ids)
	}
}

// scatterSpan places one replica of id into every (cell, class) slot of
// the span, advancing the absolute pair-major cursor array cur (the ends
// array, pre-loaded with the run bases by prefixClassedCursors). Only
// the 4-byte ID is scattered — the 16 bytes of coordinates are filled by a
// separate streaming pass (fillRects). Fusing the rect write into this
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

// fillRects inlines the coordinates of arena slots [lo, hi): four
// sequential write streams against random reads of the base table. Build
// fills every slot with one call. Without the bounds the function is
// small enough to inline into Build, and inlined it read box_uniform's
// tick_ms at 5.69 ms against 5.56 ms out of line (medians of six
// alternating runs a side, 2-vCPU host).
func (bg *BoxGrid2L) fillRects(rects []geom.Rect, lo, hi int) {
	ids := bg.ids[lo:hi]
	mx, my, nx, ny := bg.mx[lo:hi], bg.my[lo:hi], bg.nx[lo:hi], bg.ny[lo:hi]
	for k, id := range ids {
		r := &rects[id]
		mx[k], my[k], nx[k], ny[k] = r.MaxX, r.MaxY, -r.MinX, -r.MinY
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
// slots (scatterClassed) while a streaming third pass inlines the
// coordinates (measured faster than fusing the 16-byte writes into the
// scatter — see scatterSpan). Arenas are retained but sized exactly, so a
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
	bg.scatterClassed(bg.ends, bg.spans, 0)
	bg.fillRects(rects, 0, len(bg.ids))
}

// maxUint16Boxes is the largest population whose per-(cell, class)
// counts provably fit the half-width count plane.
const maxUint16Boxes = 1<<16 - 1

// boxInf bounds any finite float32 coordinate; a window bound of -boxInf
// stands in for "no test needed on this edge" (every plane value passes).
const boxInf = math.MaxFloat32

// axisWindow returns class A's window on one axis, in plane form (see
// mx): max >= lo and -min >= nhi, each the query's edge where the cell is
// first / last in the query span and the sentinel where it is not.
func axisWindow(first, last bool, qmin, qmax float32) (lo, nhi float32) {
	lo, nhi = -boxInf, -boxInf
	if first {
		lo = qmin
	}
	if last {
		nhi = -qmax
	}
	return lo, nhi
}

// Query implements core.BoxIndex: QueryAppend's result, one emit per ID.
func (bg *BoxGrid2L) Query(r geom.Rect, emit func(id uint32)) { callback.Query(bg, r, emit) }

// QueryAppend implements core.QueryAppender: visit the cells of r's span
// and append every object whose MBR intersects r, exactly once, reading
// only the edge planes each class's predicate names — never the base
// table. The span comes from the same mapping as the stored class
// partition; the per-class predicates depend on the two never diverging.
// In cell (cx, cy) of the span, with the query's window on each axis taken
// from its edge where the cell is first or last in the span (axisWindow):
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
	q := bg.mapper.spanOf(r)
	if q.x0 == q.x1 || q.y0 == q.y1 {
		return bg.appendNarrow(r, q, buf)
	}
	half := 2 * bg.cells
	loX, nhiX := r.MinX, -r.MaxX
	for cy := int(q.y0); cy <= int(q.y1); cy++ {
		firstRow := cy == int(q.y0)
		var py []float32 // the row's undecided y edge; none between the first and last row
		var by float32
		if firstRow {
			py, by = bg.my, r.MinY
		} else if cy == int(q.y1) {
			py, by = bg.ny, -r.MaxY
		}
		first := cy*bg.cps + int(q.x0)
		c, last := first, first+int(q.x1-q.x0)
		hi := bg.ends[2*c+1] // first column: A‖B, in the corner cell A‖B‖C‖D
		if firstRow {
			hi = bg.ends[half+2*c+1]
		}
		if py == nil {
			buf = bg.appendMasked1(bg.starts[c], hi, bg.mx, loX, buf)
		} else {
			buf = bg.appendMasked2(bg.starts[c], hi, bg.mx, loX, py, by, buf)
		}
		for c++; c < last; c++ { // middle columns: A, and C in the first row
			if py == nil {
				buf = append(buf, bg.ids[bg.starts[c]:bg.ends[2*c]]...)
				continue
			}
			buf = bg.appendMasked1(bg.starts[c], bg.ends[2*c], py, by, buf)
			if firstRow {
				buf = bg.appendMasked1(bg.ends[2*c+1], bg.ends[half+2*c], py, by, buf)
			}
		}
		if py == nil { // last column: A, and C in the first row
			buf = bg.appendMasked1(bg.starts[c], bg.ends[2*c], bg.nx, nhiX, buf)
		} else {
			buf = bg.appendMasked2(bg.starts[c], bg.ends[2*c], bg.nx, nhiX, py, by, buf)
			if firstRow {
				buf = bg.appendMasked2(bg.ends[2*c+1], bg.ends[half+2*c], bg.nx, nhiX, py, by, buf)
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
func (bg *BoxGrid2L) appendNarrow(r geom.Rect, q cellSpan, buf []uint32) []uint32 {
	half := 2 * bg.cells
	for cy := int(q.y0); cy <= int(q.y1); cy++ {
		firstRow := cy == int(q.y0)
		loY, nhiY := axisWindow(firstRow, cy == int(q.y1), r.MinY, r.MaxY)
		for cx := int(q.x0); cx <= int(q.x1); cx++ {
			firstCol := cx == int(q.x0)
			loX, nhiX := axisWindow(firstCol, cx == int(q.x1), r.MinX, r.MaxX)
			c := cy*bg.cps + cx
			hi := bg.ends[2*c] // A
			if firstCol && firstRow {
				hi = bg.ends[half+2*c+1] // A‖B‖C‖D
			} else if firstCol {
				hi = bg.ends[2*c+1] // A‖B
			}
			buf = bg.appendMasked(bg.starts[c], hi, loX, nhiX, loY, nhiY, buf)
			if firstRow && !firstCol {
				buf = bg.appendMasked(bg.ends[2*c+1], bg.ends[half+2*c], loX, nhiX, loY, nhiY, buf) // C
			}
		}
	}
	return buf
}

// appendMasked appends every ID of arena slots [lo, hi) whose inlined rect
// passes MaxX >= loX && -MinX >= nhiX && MaxY >= loY && -MinY >= nhiY,
// branchlessly: each candidate is stored unconditionally and the write
// cursor advances by the OR of the differences' IEEE sign bits (finite
// coordinates, and a min of 0 stored as -0 subtracts like +0, so diff >=
// 0 iff the sign bit is clear). A boundary cell's hit/miss pattern is
// maximally unpredictable, so losing the per-element branch is worth far
// more than the redundant stores — a move only a buffered kernel can
// make: emitting hits only is itself such a branch.
//
// This loop, like those of appendMasked2 and appendMasked1, is the reference
// and the portable tier; filterPlanes (filter_amd64.s) is the same test
// over the first n of four planes, sixteen candidates at a time.
//
//joinlint:hotpath
//joinlint:bce
func (bg *BoxGrid2L) appendMasked(lo, hi uint32, loX, nhiX, loY, nhiY float32, buf []uint32) []uint32 {
	seg := bg.ids[lo:hi]
	mx, nx, my, ny := bg.mx[lo:hi], bg.nx[lo:hi], bg.my[lo:hi], bg.ny[lo:hi]
	k := len(buf)
	buf = reserve(buf, len(seg)) // survivors overwrite in place
	if vectorKernels {
		return buf[:k+filterPlanes(seg, buf[k:], 4, mx, loX, nx, nhiX, my, loY, ny, nhiY)]
	}
	for j, id := range seg {
		m := math.Float32bits(mx[j]-loX) | math.Float32bits(nx[j]-nhiX) |
			math.Float32bits(my[j]-loY) | math.Float32bits(ny[j]-nhiY)
		buf[k] = id
		k += 1 - int(m>>31)
	}
	return buf[:k]
}

// appendMasked2 is appendMasked over two planes and their bounds: 12
// bytes and two subtractions a candidate for the full window's 20 and four.
//
//joinlint:hotpath
//joinlint:bce
func (bg *BoxGrid2L) appendMasked2(lo, hi uint32, px []float32, bx float32, py []float32, by float32, buf []uint32) []uint32 {
	seg := bg.ids[lo:hi]
	px, py = px[lo:hi], py[lo:hi]
	k := len(buf)
	buf = reserve(buf, len(seg))
	if vectorKernels {
		return buf[:k+filterPlanes(seg, buf[k:], 2, px, bx, py, by, nil, 0, nil, 0)]
	}
	for j, id := range seg {
		m := math.Float32bits(px[j]-bx) | math.Float32bits(py[j]-by)
		buf[k] = id
		k += 1 - int(m>>31)
	}
	return buf[:k]
}

// appendMasked1 is appendMasked over one plane and its bound.
//
//joinlint:hotpath
//joinlint:bce
func (bg *BoxGrid2L) appendMasked1(lo, hi uint32, p []float32, b float32, buf []uint32) []uint32 {
	seg := bg.ids[lo:hi]
	p = p[lo:hi]
	k := len(buf)
	buf = reserve(buf, len(seg))
	if vectorKernels {
		return buf[:k+filterPlanes(seg, buf[k:], 1, p, b, nil, 0, nil, 0, nil, 0)]
	}
	for j, id := range seg {
		buf[k] = id
		k += 1 - int(math.Float32bits(p[j]-b)>>31)
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
// four edge planes, span cache, and retained build scratch.
func (bg *BoxGrid2L) MemoryBytes() int64 {
	total := int64(len(bg.starts)+len(bg.ends)+cap(bg.counts4)) * 4
	total += int64(cap(bg.ids)+cap(bg.mx)+cap(bg.my)+cap(bg.nx)+cap(bg.ny)) * 4
	total += int64(cap(bg.counts16)) * 2
	total += int64(cap(bg.spans)) * 8
	return total
}

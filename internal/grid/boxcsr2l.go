package grid

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/parutil"
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
// comparison at all — the emit loop copies IDs straight out of the
// arena. On Q's boundary rows/columns the surviving comparisons read
// coordinates inlined in four edge planes parallel to the ID arena (see
// mx), each cell only the edges its place in Q leaves undecided, so the
// base MBR table is never dereferenced. Class D keeps a two-comparison
// max-corner test in the corner cell: probe rectangles are not
// cell-aligned, so a rect ending inside the corner cell can still miss the
// query by less than a cell (the tile-to-tile join of the source paper can
// drop class D outright only because there both sides are partitioned).
//
// Updates maintain the class partition in place: removals cascade the
// hole rightward through the class runs (one element move per run),
// insertions cascade slack leftward, both O(4); post-build inserts that
// find no slack land in a per-cell overflow emitted with the full
// reference-cell + intersection predicate.
//
// BoxGrid2L implements core.BoxIndex, core.BoxParallelBuilder,
// core.BoxBatchUpdater, core.Counter, and core.MemoryReporter, and is
// digest-identical to BoxGrid and the brute-force oracle.
type BoxGrid2L struct {
	cps      int
	cells    int
	bounds   geom.Rect
	cellSize float32
	mapper   cellMapper

	starts []uint32 // len cells+1; segment capacity of c is starts[c+1]-starts[c]
	// ends holds the exclusive end of every class run in PAIR-MAJOR
	// layout (see endIdx): the first 2*cells entries pair the first-row
	// classes per cell ([2c]=A, [2c+1]=B), the second half pairs the
	// rest-row classes ([2cells+2c]=C, [2cells+2c+1]=D). The runs are
	// contiguous in the arena in A,B,C,D order, so run j of cell c is
	// [end(j-1), end(j)) with end(-1) = starts[c]; the live count is
	// end(D)-starts[c] and slack lives between end(D) and starts[c+1].
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

	overflow  [][]uint32    // per-cell post-build inserts that found no slack
	overflowR [][]geom.Rect // their coordinates, parallel to overflow

	boxes int         // number of indexed objects (not replicas)
	rects []geom.Rect // the retained snapshot

	// spans caches each object's cell span (recomputed on Update): the
	// overflow emit path deduplicates with it and updates know which
	// cells and classes to edit.
	spans []cellSpan

	// counts16/counts4 is the count-pass scratch in pair-major layout.
	// A (cell, class) count is bounded by the population (each object
	// contributes at most one replica per cell), so whenever the
	// population fits uint16 the count pass runs on the half-width
	// plane — at cps=256 that is 512 KiB of randomly-incremented
	// scratch instead of 1 MiB, the difference between staying L2
	// resident and spilling (see Build).
	counts16    []uint16
	counts4     []uint32   // full-width fallback for populations > 65535
	shardCounts [][]uint32 // build scratch: per-worker count arrays
	moveSpans   []cellSpan // batch-update scratch: old/new spans per move
	pairs       spanPairs  // batch-update scratch: sharded (cell, move) pairs
	// queries counts query-kernel entries (nil until Instrument).
	queries *obs.Counter
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
	bg.starts = make([]uint32, bg.cells+1)
	bg.ends = make([]uint32, 4*bg.cells)
	bg.overflow = make([][]uint32, bg.cells)
	bg.overflowR = make([][]geom.Rect, bg.cells)
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
	for c, of := range bg.overflow {
		if len(of) > 0 {
			bg.overflow[c] = of[:0]
			bg.overflowR[c] = bg.overflowR[c][:0]
		}
	}
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

// setRect inlines r at arena slot k.
func (bg *BoxGrid2L) setRect(k uint32, r geom.Rect) {
	bg.mx[k], bg.my[k], bg.nx[k], bg.ny[k] = r.MaxX, r.MaxY, -r.MinX, -r.MinY
}

// moveSlot copies arena slot src, ID and edges, over slot dst.
func (bg *BoxGrid2L) moveSlot(dst, src uint32) {
	bg.ids[dst] = bg.ids[src]
	bg.mx[dst], bg.my[dst], bg.nx[dst], bg.ny[dst] = bg.mx[src], bg.my[src], bg.nx[src], bg.ny[src]
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

// scatterSpan places one replica of id into every (cell, class) slot of
// the span, advancing the absolute pair-major cursors in cur (the ends
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
// sequential write streams against random reads of the base table.
func (bg *BoxGrid2L) fillRects(rects []geom.Rect, lo, hi int) {
	ids := bg.ids[lo:hi]
	mx, my, nx, ny := bg.mx[lo:hi], bg.my[lo:hi], bg.nx[lo:hi], bg.ny[lo:hi]
	for k, id := range ids {
		r := &rects[id]
		mx[k], my[k], nx[k], ny[k] = r.MaxX, r.MaxY, -r.MinX, -r.MinY
	}
}

// prefixClassedCursors is the exclusive prefix sum in (cell, class)
// order: counts are read from the pair-major count plane and the
// resulting absolute scatter cursors are written STRAIGHT INTO the
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
// sort. Pass 1 counts one slot per (overlapped cell, class); the
// exclusive prefix sum over the key cell*4+class fixes both the cell
// segments and the class sub-spans; pass 2 replicates each ID into its
// slots while a streaming third pass inlines the coordinates (measured
// faster than fusing the 16-byte writes into the scatter — see
// scatterSpan). Arenas are retained but sized exactly, so a replica total
// that sets a new maximum — every few ticks of a moving stream — re-makes them.
func (bg *BoxGrid2L) Build(rects []geom.Rect) {
	bg.prepare(rects)
	cps := bg.cps
	cells := bg.cells
	var sum uint32
	// A (cell, class) count never exceeds the population, so small-enough
	// populations count on the half-width plane — half the randomly
	// incremented scratch footprint, which is where the classed count's
	// cost over the unclassed one lives.
	if len(rects) <= maxUint16Boxes {
		bg.counts16 = resetCounts(bg.counts16, 4*cells)
		fr, rr := bg.counts16[:2*cells:2*cells], bg.counts16[2*cells:]
		for i := range rects {
			s := bg.mapper.spanOf(rects[i])
			bg.spans[i] = s
			countSpan(fr, rr, s, cps)
		}
		sum = prefixClassedCursors(bg.counts16, bg.starts, bg.ends, cells)
	} else {
		bg.counts4 = resetCounts(bg.counts4, 4*cells)
		fr, rr := bg.counts4[:2*cells:2*cells], bg.counts4[2*cells:]
		for i := range rects {
			s := bg.mapper.spanOf(rects[i])
			bg.spans[i] = s
			countSpan(fr, rr, s, cps)
		}
		sum = prefixClassedCursors(bg.counts4, bg.starts, bg.ends, cells)
	}
	bg.sizeArena(sum)
	efr, erest := bg.ends[:2*cells:2*cells], bg.ends[2*cells:]
	for i := range rects {
		scatterSpan(efr, erest, bg.spans[i], cps, uint32(i), bg.ids)
	}
	bg.fillRects(rects, 0, len(bg.ids))
}

// maxUint16Boxes is the largest population whose per-(cell, class)
// counts provably fit the half-width count plane.
const maxUint16Boxes = 1<<16 - 1

// BuildParallel implements core.BoxParallelBuilder: the sharded variant
// of Build. Workers count their contiguous chunk of rects into private
// (cell, class) count arrays, the global prefix sum over (key, worker)
// turns them into per-worker scatter bases, and each worker replicates
// its chunk into its disjoint ranges. Within a (cell, class) run,
// entries appear in ascending ID order — exactly the layout the
// sequential Build produces, so the arena is bit-identical.
func (bg *BoxGrid2L) BuildParallel(rects []geom.Rect, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || len(rects) < minParallelBoxBuild {
		bg.Build(rects)
		return
	}
	bg.prepare(rects)
	cps := bg.cps
	keys := 4 * bg.cells
	if len(bg.shardCounts) < workers {
		bg.shardCounts = make([][]uint32, workers)
	}
	for w := 0; w < workers; w++ {
		if len(bg.shardCounts[w]) < keys {
			bg.shardCounts[w] = make([]uint32, keys)
		} else {
			sc := bg.shardCounts[w][:keys]
			for i := range sc {
				sc[i] = 0
			}
		}
	}

	parutil.ForEachShard(len(rects), workers, func(w, lo, hi int) {
		sc := bg.shardCounts[w][:keys]
		fr, rr := sc[:2*bg.cells:2*bg.cells], sc[2*bg.cells:]
		for i := lo; i < hi; i++ {
			s := bg.mapper.spanOf(rects[i])
			bg.spans[i] = s
			countSpan(fr, rr, s, cps)
		}
	})

	// Merge: global exclusive prefix sum across (cell, class, worker) in
	// worker order, rewriting each shard count into that shard's scatter
	// base. Unlike the sequential build, no single cursor set ends at the
	// run boundaries, so the merge publishes ends directly.
	var sum uint32
	for c := 0; c < bg.cells; c++ {
		bg.starts[c] = sum
		for j := 0; j < 4; j++ {
			key := bg.endIdx(c, j)
			for w := 0; w < workers; w++ {
				n := bg.shardCounts[w][key]
				bg.shardCounts[w][key] = sum
				sum += n
			}
			bg.ends[key] = sum
		}
	}
	bg.starts[bg.cells] = sum
	bg.sizeArena(sum)

	parutil.ForEachShard(len(rects), workers, func(w, lo, hi int) {
		sc := bg.shardCounts[w][:keys]
		fr, rr := sc[:2*bg.cells:2*bg.cells], sc[2*bg.cells:]
		for i := lo; i < hi; i++ {
			scatterSpan(fr, rr, bg.spans[i], cps, uint32(i), bg.ids)
		}
	})
	// The coordinate fill shards over disjoint arena ranges, so it is
	// bit-identical to the sequential fill by construction.
	parutil.ForEachShard(len(bg.ids), workers, func(_, lo, hi int) {
		bg.fillRects(rects, lo, hi)
	})
}

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

// Query implements core.BoxIndex: visit the cells overlapping r and
// report every object whose MBR intersects r, exactly once, driving the
// per-class emit loops described on the type. Each class reads only the
// edge planes its predicate names; the base table is never touched.
func (bg *BoxGrid2L) Query(r geom.Rect, emit func(id uint32)) {
	bg.queries.Inc()
	// The query's span comes from the same mapping as the stored class
	// partition — the per-class predicates depend on the two never
	// diverging.
	q := bg.mapper.spanOf(r)
	cps := bg.cps
	half := 2 * bg.cells
	qx0, qx1 := int(q.x0), int(q.x1)
	qy0, qy1 := int(q.y0), int(q.y1)
	for cy := qy0; cy <= qy1; cy++ {
		firstRow, lastRow := cy == qy0, cy == qy1
		loY, nhiY := axisWindow(firstRow, lastRow, r.MinY, r.MaxY)
		base := cy * cps
		for cx := qx0; cx <= qx1; cx++ {
			c := base + cx
			c2 := 2 * c
			a0, aEnd := bg.starts[c], bg.ends[c2]
			firstCol, lastCol := cx == qx0, cx == qx1
			if !firstCol && !lastCol && !firstRow && !lastRow {
				// Cell interior to the query span: every class-A replica
				// is a guaranteed hit (its reference corner lies in a cell
				// the query fully covers on both axes), and no other class
				// can pass the reference-cell criterion here — emit the A
				// run verbatim, skip B/C/D without looking.
				for _, id := range bg.ids[a0:aEnd] {
					emit(id)
				}
			} else {
				loX, nhiX := axisWindow(firstCol, lastCol, r.MinX, r.MaxX)
				// Class A: dedup-free everywhere; only the query-boundary
				// edges still need a comparison.
				for k := a0; k < aEnd; k++ {
					if bg.mx[k] >= loX && bg.nx[k] >= nhiX && bg.my[k] >= loY && bg.ny[k] >= nhiY {
						emit(bg.ids[k])
					}
				}
				// Class B entered from the left: its reference cell under
				// this query is in the first column, and MinX <= r.MaxX
				// holds by construction (the span started in an earlier
				// column).
				if firstCol {
					for k := aEnd; k < bg.ends[c2+1]; k++ {
						if bg.mx[k] >= loX && bg.my[k] >= loY && bg.ny[k] >= nhiY {
							emit(bg.ids[k])
						}
					}
				}
				// Class C entered from below: symmetric, first row only.
				if firstRow {
					for k := bg.ends[c2+1]; k < bg.ends[half+c2]; k++ {
						if bg.my[k] >= loY && bg.mx[k] >= loX && bg.nx[k] >= nhiX {
							emit(bg.ids[k])
						}
					}
				}
				// Class D entered diagonally: corner cell only, and only
				// the max-corner comparisons survive.
				if firstCol && firstRow {
					for k := bg.ends[half+c2]; k < bg.ends[half+c2+1]; k++ {
						if bg.mx[k] >= loX && bg.my[k] >= loY {
							emit(bg.ids[k])
						}
					}
				}
			}
			// Overflow (post-build inserts): position encodes no class, so
			// fall back to the full reference-cell + intersection test.
			if of := bg.overflow[c]; len(of) != 0 {
				ofr := bg.overflowR[c]
				for j, id := range of {
					if refCell(bg.spans[id], uint16(cx), uint16(cy), q.x0, q.y0) && ofr[j].Intersects(r) {
						emit(id)
					}
				}
			}
		}
	}
}

// QueryAppend implements core.QueryAppender: Query's result, appended
// into buf. In a boundary cell the classes that can pass there are tested
// as one contiguous run under class A's window wherever they are adjacent
// in the arena: A‖B‖C‖D in the query's corner cell, A‖B in the rest of
// its first column, A and then C in the rest of its first row, A alone
// elsewhere. Against Query's per-class predicates this adds MinX <= hiX
// for B and D and MinY <= hiY for C and D, both decided by the
// monotonicity the type comment relies on (such a replica's span starts
// in an earlier column / row than this cell), so the result is Query's.
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
		for c = first; c <= last; c++ {
			if len(bg.overflow[c]) != 0 {
				buf = bg.appendOverflow(c, r, q, buf)
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
			if len(bg.overflow[c]) != 0 {
				buf = bg.appendOverflow(c, r, q, buf)
			}
		}
	}
	return buf
}

// appendOverflow appends cell c's overflow entries (position encodes no
// class) under the full reference-cell + intersection test.
//
//joinlint:hotpath
func (bg *BoxGrid2L) appendOverflow(c int, r geom.Rect, q cellSpan, buf []uint32) []uint32 {
	ofr := bg.overflowR[c]
	cx, cy := uint16(c%bg.cps), uint16(c/bg.cps)
	for j, id := range bg.overflow[c] {
		if refCell(bg.spans[id], cx, cy, q.x0, q.y0) && ofr[j].Intersects(r) {
			buf = append(buf, id)
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
	buf = reserve(buf, seg) // survivors overwrite in place
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
	buf = reserve(buf, seg)
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
	buf = reserve(buf, seg)
	if vectorKernels {
		return buf[:k+filterPlanes(seg, buf[k:], 1, p, b, nil, 0, nil, 0, nil, 0)]
	}
	for j, id := range seg {
		buf[k] = id
		k += 1 - int(math.Float32bits(p[j]-b)>>31)
	}
	return buf[:k]
}

// Update implements core.BoxIndex: remove the replica from every cell of
// its old span and insert it into every cell of the new one, maintaining
// the class partition in place. A move that keeps its span keeps every
// replica's cell and class, so only the inlined coordinates are rewritten
// where they lie.
func (bg *BoxGrid2L) Update(id uint32, old, new geom.Rect) {
	os := bg.spans[id]
	ns := bg.mapper.spanOf(new)
	cps := bg.cps
	same := ns == os
	for cy := int(os.y0); cy <= int(os.y1); cy++ {
		base := cy * cps
		for cx := int(os.x0); cx <= int(os.x1); cx++ {
			k := classAt(os, cx, cy)
			var ok bool
			if same {
				ok = bg.rewriteLocal(base+cx, k, id, new)
			} else {
				ok = bg.removeLocal(base+cx, k, id)
			}
			if !ok {
				// The replica must exist: Build placed one in every span
				// cell and the workload issues at most one update per
				// object per tick.
				panic(fmt.Sprintf("grid: box update of unknown entry %d at %v", id, old))
			}
		}
	}
	if same {
		return
	}
	bg.spans[id] = ns
	for cy := int(ns.y0); cy <= int(ns.y1); cy++ {
		base := cy * cps
		for cx := int(ns.x0); cx <= int(ns.x1); cx++ {
			bg.insertLocal(base+cx, classAt(ns, cx, cy), id, new)
		}
	}
}

// classRun returns the arena bounds of class run k of cell c.
func (bg *BoxGrid2L) classRun(c, k int) (lo, hi uint32) {
	lo = bg.starts[c]
	if k > 0 {
		lo = bg.ends[bg.endIdx(c, k-1)]
	}
	return lo, bg.ends[bg.endIdx(c, k)]
}

// rewriteLocal overwrites the inlined coordinates of id's replica in
// class run k of cell c (or in the cell's overflow) with r, reporting
// whether the replica was present. It only touches cell-c state.
func (bg *BoxGrid2L) rewriteLocal(c, k int, id uint32, r geom.Rect) bool {
	lo, hi := bg.classRun(c, k)
	for p := lo; p < hi; p++ {
		if bg.ids[p] == id {
			bg.setRect(p, r)
			return true
		}
	}
	for j, v := range bg.overflow[c] {
		if v == id {
			bg.overflowR[c][j] = r
			return true
		}
	}
	return false
}

// insertLocal adds one replica of (id, r) to class run k of cell c. With
// slack at the segment end, the runs above k each donate their first
// slot by moving it past their last (one element move per run) so the
// freed slot lands at the end of run k; without slack the replica goes
// to overflow. It only touches cell-c state, so distinct cells may be
// processed concurrently.
func (bg *BoxGrid2L) insertLocal(c, k int, id uint32, r geom.Rect) {
	if bg.ends[bg.endIdx(c, 3)] >= bg.starts[c+1] {
		bg.overflow[c] = append(bg.overflow[c], id)
		bg.overflowR[c] = append(bg.overflowR[c], r)
		return
	}
	for j := 3; j > k; j-- {
		ej := bg.endIdx(c, j)
		e := bg.ends[ej]
		f := bg.ends[bg.endIdx(c, j-1)] // first slot of run j
		bg.moveSlot(e, f)
		bg.ends[ej] = e + 1
	}
	ek := bg.endIdx(c, k)
	pos := bg.ends[ek]
	bg.ids[pos] = id
	bg.setRect(pos, r)
	bg.ends[ek] = pos + 1
}

// removeLocal deletes one replica of id from class run k of cell c (or
// from the cell's overflow), reporting whether it was present. The hole
// cascades rightward through the runs above k — each run's last element
// fills the hole left in the run below — so every class run stays
// contiguous. It only touches cell-c state.
func (bg *BoxGrid2L) removeLocal(c, k int, id uint32) bool {
	lo, hi := bg.classRun(c, k)
	for p := lo; p < hi; p++ {
		if bg.ids[p] != id {
			continue
		}
		prev := p
		for j := k; j < 4; j++ {
			ej := bg.endIdx(c, j)
			last := bg.ends[ej] - 1
			bg.moveSlot(prev, last)
			bg.ends[ej] = last
			prev = last
		}
		return true
	}
	of := bg.overflow[c]
	for j, v := range of {
		if v != id {
			continue
		}
		ofr := bg.overflowR[c]
		of[j] = of[len(of)-1]
		ofr[j] = ofr[len(ofr)-1]
		bg.overflow[c] = of[:len(of)-1]
		bg.overflowR[c] = ofr[:len(ofr)-1]
		return true
	}
	return false
}

// CanBatchUpdates implements core.BoxBatchUpdater: the sharded path pays
// off only for batches large enough to beat the fork/join overhead.
func (bg *BoxGrid2L) CanBatchUpdates(n int) bool { return n >= minParallelMoves }

// UpdateBatch implements core.BoxBatchUpdater: the same sharded
// (cell, move) discipline as BoxGrid.UpdateBatch — all removals first
// (sharded by old-span cell), a barrier, then all insertions — with the
// per-cell operations maintaining the class partition. Per-cell state is
// never touched by two workers, so the result is indistinguishable from
// per-move Update calls.
func (bg *BoxGrid2L) UpdateBatch(moves []geom.BoxMove, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || len(moves) < minParallelMoves {
		for i := range moves {
			bg.Update(moves[i].ID, moves[i].Old, moves[i].New)
		}
		return
	}

	need := 2 * len(moves)
	if cap(bg.moveSpans) < need {
		bg.moveSpans = make([]cellSpan, need)
	} else {
		bg.moveSpans = bg.moveSpans[:need]
	}
	oldSpans := bg.moveSpans[:len(moves)]
	newSpans := bg.moveSpans[len(moves):]
	parutil.ForEachShard(len(moves), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			oldSpans[i] = bg.spans[moves[i].ID]
			newSpans[i] = bg.mapper.spanOf(moves[i].New)
		}
	})

	cps := bg.cps
	var missing atomic.Int64
	missing.Store(-1)
	bg.pairs.run(oldSpans, cps, workers, func(c int, i uint32) {
		if !bg.removeLocal(c, classAt(oldSpans[i], c%cps, c/cps), moves[i].ID) {
			missing.CompareAndSwap(-1, int64(i))
		}
	})
	if i := missing.Load(); i >= 0 {
		// Same contract as Update: the replica must exist.
		panic(fmt.Sprintf("grid: box update of unknown entry %d at %v",
			moves[i].ID, moves[i].Old))
	}

	// Record the new spans between the passes: reads are done, inserts
	// have not started.
	for i := range moves {
		bg.spans[moves[i].ID] = newSpans[i]
	}

	bg.pairs.run(newSpans, cps, workers, func(c int, i uint32) {
		bg.insertLocal(c, classAt(newSpans[i], c%cps, c/cps), moves[i].ID, moves[i].New)
	})
}

// Len implements core.Counter: the number of indexed objects, not
// replicas.
func (bg *BoxGrid2L) Len() int { return bg.boxes }

// Replicas returns the total number of (object, cell) entries currently
// in the dense arena and overflow.
func (bg *BoxGrid2L) Replicas() int {
	total := 0
	for c := 0; c < bg.cells; c++ {
		total += int(bg.ends[bg.endIdx(c, 3)]-bg.starts[c]) + len(bg.overflow[c])
	}
	return total
}

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
// four edge planes, span cache, overflow capacity, and retained build scratch.
func (bg *BoxGrid2L) MemoryBytes() int64 {
	total := int64(len(bg.starts)+len(bg.ends)+cap(bg.counts4)) * 4
	total += int64(cap(bg.ids)+cap(bg.mx)+cap(bg.my)+cap(bg.nx)+cap(bg.ny)) * 4
	total += int64(cap(bg.counts16)) * 2
	total += int64(cap(bg.spans)) * 8
	total += int64(len(bg.overflow)) * 24
	for _, of := range bg.overflow {
		total += int64(cap(of)) * 4
	}
	total += int64(len(bg.overflowR)) * 24
	for _, ofr := range bg.overflowR {
		total += int64(cap(ofr)) * 16
	}
	for _, sc := range bg.shardCounts {
		total += int64(cap(sc)) * 4
	}
	total += int64(cap(bg.moveSpans)) * 8
	return total
}

package grid

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/parutil"
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
// BoxGrid implements core.BoxIndex, core.BoxParallelBuilder,
// core.BoxBatchUpdater, core.Counter, and core.MemoryReporter.
type BoxGrid struct {
	cps      int
	cells    int
	bounds   geom.Rect
	cellSize float32
	mapper   cellMapper

	starts []uint32 // len cells+1; segment capacity of c is starts[c+1]-starts[c]
	counts []uint32 // live entries in each cell's dense segment
	ids    []uint32 // one contiguous arena of replicated entry IDs

	overflow [][]uint32 // per-cell post-build inserts that found no slack

	boxes int         // number of indexed objects (not replicas)
	rects []geom.Rect // the retained snapshot

	// spans caches each object's cell span (recomputed on Update), so
	// queries dedup without touching float coordinates and updates know
	// which cells to edit.
	spans []cellSpan

	shardCounts [][]uint32 // build scratch: per-worker count arrays
	moveSpans   []cellSpan // batch-update scratch: old/new spans per move
	// pairs is the batch-update scratch: (cell, move) pairs counting-
	// sorted by owning shard (see spanpairs.go).
	pairs spanPairs
	// queries counts query-kernel entries (nil until Instrument).
	queries *obs.Counter
}

// cellSpan is an inclusive cell range [x0,x1]x[y0,y1]. uint16 covers any
// practical cps (the directory itself is cps² cells).
type cellSpan struct {
	x0, x1, y0, y1 uint16
}

// spanOf maps a rectangle to its inclusive cell span, clamping extents on
// or outside the space boundary into the outermost cells exactly like the
// point mapping does.
func (m cellMapper) spanOf(r geom.Rect) cellSpan {
	return cellSpan{
		x0: uint16(m.axisCell(r.MinX - m.minX)),
		x1: uint16(m.axisCell(r.MaxX - m.minX)),
		y0: uint16(m.axisCell(r.MinY - m.minY)),
		y1: uint16(m.axisCell(r.MaxY - m.minY)),
	}
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
	bg.counts = make([]uint32, bg.cells)
	bg.overflow = make([][]uint32, bg.cells)
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

// spanOf maps a rectangle to its inclusive cell span.
func (bg *BoxGrid) spanOf(r geom.Rect) cellSpan { return bg.mapper.spanOf(r) }

// prepare sizes the snapshot-dependent state for a bulk build.
func (bg *BoxGrid) prepare(rects []geom.Rect) {
	bg.rects = rects
	bg.boxes = len(rects)
	for c, of := range bg.overflow {
		if len(of) > 0 {
			bg.overflow[c] = of[:0]
		}
	}
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
// overlapped cell; the exclusive prefix sum fixes the segments; pass 2
// replicates each ID into all its cells. Arenas are retained across
// builds, so steady-state builds allocate nothing.
func (bg *BoxGrid) Build(rects []geom.Rect) {
	bg.prepare(rects)
	counts := bg.counts
	for i := range counts {
		counts[i] = 0
	}
	cps := bg.cps
	for i := range rects {
		s := bg.spanOf(rects[i])
		bg.spans[i] = s
		for cy := int(s.y0); cy <= int(s.y1); cy++ {
			row := counts[cy*cps+int(s.x0) : cy*cps+int(s.x1)+1]
			for j := range row {
				row[j]++
			}
		}
	}
	// Exclusive prefix sum into starts; counts becomes the scatter
	// cursor.
	var sum uint32
	for c := range counts {
		bg.starts[c] = sum
		sum += counts[c]
		counts[c] = 0
	}
	bg.starts[len(counts)] = sum
	bg.sizeArena(sum)
	for i := range rects {
		s := bg.spans[i]
		for cy := int(s.y0); cy <= int(s.y1); cy++ {
			base := cy * cps
			for cx := int(s.x0); cx <= int(s.x1); cx++ {
				c := base + cx
				bg.ids[bg.starts[c]+counts[c]] = uint32(i)
				counts[c]++
			}
		}
	}
}

// minParallelBoxBuild gates the sharded build; below this population the
// fork/join overhead beats the win.
const minParallelBoxBuild = 4096

// BuildParallel implements core.BoxParallelBuilder: the sharded variant
// of Build. Workers count their contiguous chunk of rects into private
// count arrays, the global prefix sum turns them into per-worker scatter
// bases, and each worker replicates its chunk into its disjoint ranges.
// Within a cell, entries appear in ascending ID order — exactly the
// layout the sequential Build produces, so the arena is bit-identical.
func (bg *BoxGrid) BuildParallel(rects []geom.Rect, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || len(rects) < minParallelBoxBuild {
		bg.Build(rects)
		return
	}
	bg.prepare(rects)
	cells := bg.cells
	cps := bg.cps
	if len(bg.shardCounts) < workers {
		bg.shardCounts = make([][]uint32, workers)
	}
	for w := 0; w < workers; w++ {
		if len(bg.shardCounts[w]) < cells {
			bg.shardCounts[w] = make([]uint32, cells)
		} else {
			sc := bg.shardCounts[w][:cells]
			for i := range sc {
				sc[i] = 0
			}
		}
	}

	parutil.ForEachShard(len(rects), workers, func(w, lo, hi int) {
		sc := bg.shardCounts[w][:cells]
		for i := lo; i < hi; i++ {
			s := bg.spanOf(rects[i])
			bg.spans[i] = s
			for cy := int(s.y0); cy <= int(s.y1); cy++ {
				row := sc[cy*cps+int(s.x0) : cy*cps+int(s.x1)+1]
				for j := range row {
					row[j]++
				}
			}
		}
	})

	// Merge: global exclusive prefix sum across (cell, worker) in worker
	// order, rewriting each shard count into that shard's scatter base.
	var sum uint32
	for c := 0; c < cells; c++ {
		bg.starts[c] = sum
		for w := 0; w < workers; w++ {
			n := bg.shardCounts[w][c]
			bg.shardCounts[w][c] = sum
			sum += n
		}
	}
	bg.starts[cells] = sum
	bg.sizeArena(sum)

	parutil.ForEachShard(len(rects), workers, func(w, lo, hi int) {
		sc := bg.shardCounts[w][:cells]
		for i := lo; i < hi; i++ {
			s := bg.spans[i]
			for cy := int(s.y0); cy <= int(s.y1); cy++ {
				base := cy * cps
				for cx := int(s.x0); cx <= int(s.x1); cx++ {
					c := base + cx
					bg.ids[sc[c]] = uint32(i)
					sc[c]++
				}
			}
		}
	})

	for c := 0; c < cells; c++ {
		bg.counts[c] = bg.starts[c+1] - bg.starts[c]
	}
}

// Query implements core.BoxIndex: visit the cells overlapping r and
// report every object whose MBR intersects r, exactly once.
//
// Per candidate id in cell (cx, cy) the reference-cell test emits only
// when (cx, cy) is the first cell shared by the query's span and the
// object's span — max(query.x0, span.x0) and likewise for y — so an
// object replicated across k visited cells passes in exactly one of
// them, with no visited set and no float arithmetic. The geometric
// intersection test then confirms the match: replication proves the
// object's span touches the cell, and axisCell rounding means even a
// cell fully covered by r can hold a replica whose rect misses r by an
// ulp, so unlike the point grid no cell skips the filter — the contract
// is digest-identical agreement with the brute-force oracle.
func (bg *BoxGrid) Query(r geom.Rect, emit func(id uint32)) {
	bg.queries.Inc()
	// The query's span comes from the same mapping as the cached object
	// spans — the dedup test depends on the two never diverging.
	q := bg.spanOf(r)
	cps := bg.cps
	for cy := int(q.y0); cy <= int(q.y1); cy++ {
		base := cy * cps
		for cx := int(q.x0); cx <= int(q.x1); cx++ {
			bg.emitCell(base+cx, uint16(cx), uint16(cy), q.x0, q.y0, r, emit)
		}
	}
}

// QueryAppend implements core.QueryAppender: the same span walk as
// Query with the dedup-and-intersect loop appending into buf.
func (bg *BoxGrid) QueryAppend(r geom.Rect, buf []uint32) []uint32 {
	bg.queries.Inc()
	q := bg.spanOf(r)
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

// emitCell reports cell c's residents that pass the reference-cell dedup
// and intersect r. The dedup test runs first: for replicated objects it
// rejects all but one cell before any coordinate load.
func (bg *BoxGrid) emitCell(c int, cx, cy, qx0, qy0 uint16, r geom.Rect, emit func(id uint32)) {
	b := bg.starts[c]
	for _, id := range bg.ids[b : b+bg.counts[c]] {
		if refCell(bg.spans[id], cx, cy, qx0, qy0) && bg.rects[id].Intersects(r) {
			emit(id)
		}
	}
	for _, id := range bg.overflow[c] {
		if refCell(bg.spans[id], cx, cy, qx0, qy0) && bg.rects[id].Intersects(r) {
			emit(id)
		}
	}
}

// appendCell is emitCell buffered: the same dedup-then-intersect loop
// over the dense segment and the overflow, appending survivors.
func (bg *BoxGrid) appendCell(c int, cx, cy, qx0, qy0 uint16, r geom.Rect, buf []uint32) []uint32 {
	b := bg.starts[c]
	for _, id := range bg.ids[b : b+bg.counts[c]] {
		if refCell(bg.spans[id], cx, cy, qx0, qy0) && bg.rects[id].Intersects(r) {
			buf = append(buf, id)
		}
	}
	for _, id := range bg.overflow[c] {
		if refCell(bg.spans[id], cx, cy, qx0, qy0) && bg.rects[id].Intersects(r) {
			buf = append(buf, id)
		}
	}
	return buf
}

// Update implements core.BoxIndex: remove the entry from every cell of
// its old span and insert it into every cell of the new one, reusing
// segment slack first and falling back to the per-cell overflow — the
// same maintenance discipline as the point CSR store, replicated across
// the span.
func (bg *BoxGrid) Update(id uint32, old, new geom.Rect) {
	os := bg.spans[id]
	ns := bg.spanOf(new)
	cps := bg.cps
	for cy := int(os.y0); cy <= int(os.y1); cy++ {
		base := cy * cps
		for cx := int(os.x0); cx <= int(os.x1); cx++ {
			if !bg.removeLocal(base+cx, id) {
				// The replica must exist: Build placed one in every
				// span cell and the workload issues at most one update
				// per object per tick.
				panic(fmt.Sprintf("grid: box update of unknown entry %d at %v", id, old))
			}
		}
	}
	bg.spans[id] = ns
	for cy := int(ns.y0); cy <= int(ns.y1); cy++ {
		base := cy * cps
		for cx := int(ns.x0); cx <= int(ns.x1); cx++ {
			bg.insertLocal(base+cx, id)
		}
	}
}

// insertLocal adds one replica of id to cell c (slack first, then
// overflow). It only touches cell-c state, so distinct cells may be
// processed concurrently.
func (bg *BoxGrid) insertLocal(c int, id uint32) {
	base, n := bg.starts[c], bg.counts[c]
	if base+n < bg.starts[c+1] {
		bg.ids[base+n] = id
		bg.counts[c] = n + 1
		return
	}
	bg.overflow[c] = append(bg.overflow[c], id)
}

// removeLocal deletes one replica of id from cell c, reporting whether
// it was present. It only touches cell-c state.
func (bg *BoxGrid) removeLocal(c int, id uint32) bool {
	base, n := bg.starts[c], bg.counts[c]
	seg := bg.ids[base : base+n]
	for j, v := range seg {
		if v != id {
			continue
		}
		if of := bg.overflow[c]; len(of) > 0 {
			// Refill the hole from overflow to keep the dense segment
			// full.
			seg[j] = of[len(of)-1]
			bg.overflow[c] = of[:len(of)-1]
		} else {
			seg[j] = seg[n-1]
			bg.counts[c] = n - 1
		}
		return true
	}
	of := bg.overflow[c]
	for j, v := range of {
		if v != id {
			continue
		}
		of[j] = of[len(of)-1]
		bg.overflow[c] = of[:len(of)-1]
		return true
	}
	return false
}

// CanBatchUpdates implements core.BoxBatchUpdater: the sharded path pays
// off only for batches large enough to beat the fork/join overhead.
func (bg *BoxGrid) CanBatchUpdates(n int) bool { return n >= minParallelMoves }

// UpdateBatch implements core.BoxBatchUpdater. A move touches every cell
// of its old and new span, so the batch is expanded into (cell, move)
// pairs counting-sorted by owning shard (cell % workers), the same
// discipline as the point grid's bucketByShard: all removals first, a
// barrier, then all insertions, each worker walking only its own pair
// run. Per-cell state is never touched by two workers, a replica is
// never inserted before the removal pass finished, and within a cell
// pairs stay in batch order, so the result is indistinguishable from
// per-move Update calls.
func (bg *BoxGrid) UpdateBatch(moves []geom.BoxMove, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || len(moves) < minParallelMoves {
		for i := range moves {
			bg.Update(moves[i].ID, moves[i].Old, moves[i].New)
		}
		return
	}

	// Scratch layout: old span then new span per move. Old spans are
	// snapshotted from the live table because nothing mutates until the
	// spans of every move are fixed.
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
			newSpans[i] = bg.spanOf(moves[i].New)
		}
	})

	var missing atomic.Int64
	missing.Store(-1)
	bg.pairs.run(oldSpans, bg.cps, workers, func(c int, i uint32) {
		if !bg.removeLocal(c, moves[i].ID) {
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

	bg.pairs.run(newSpans, bg.cps, workers, func(c int, i uint32) {
		bg.insertLocal(c, moves[i].ID)
	})
}

// Len implements core.Counter: the number of indexed objects, not
// replicas.
func (bg *BoxGrid) Len() int { return bg.boxes }

// Replicas returns the total number of (object, cell) entries currently
// in the dense arena and overflow.
func (bg *BoxGrid) Replicas() int {
	total := 0
	for c := range bg.counts {
		total += int(bg.counts[c]) + len(bg.overflow[c])
	}
	return total
}

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
// cache, overflow capacity, and retained build scratch.
func (bg *BoxGrid) MemoryBytes() int64 {
	total := int64(len(bg.starts)+len(bg.counts)+cap(bg.ids)) * 4
	total += int64(cap(bg.spans)) * 8
	total += int64(len(bg.overflow)) * 24
	for _, of := range bg.overflow {
		total += int64(cap(of)) * 4
	}
	for _, sc := range bg.shardCounts {
		total += int64(cap(sc)) * 4
	}
	total += int64(cap(bg.moveSpans)) * 8
	return total
}

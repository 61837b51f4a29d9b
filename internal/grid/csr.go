package grid

import (
	"math"
	"runtime"
	"slices"

	"repro/internal/geom"
	"repro/internal/parutil"
)

// csrStore is the partition-based contiguous layout (LayoutCSR): a
// compressed-sparse-row view of the grid. One counting-sort build places
// every entry ID of cell c in the dense slice
//
//	ids[starts[c<<shift] : starts[(c+1)<<shift]]
//
// so scanning a cell is a flat loop over contiguous memory — no bucket
// chain, no per-bucket header, no pointer chasing. The directory is one
// plain array of offsets instead of bucket references.
//
// The sort key is finer than the cell in x: every cell is cut into
// 1<<shift columns (columnShift) and the build orders a cell's entries by
// column, with one offset per column in starts, so column f is exactly
// ids[starts[f]:starts[f+1]] and any span of consecutive columns is one run
// of ids. What the columns buy is appendRow's run path, which ends a row's
// run at the columns of the window instead of the edges of its cells.
//
// The build is a counting sort in two halves: label (map every point to
// its column, into cellOf, then count the labels) and scatter (prefix sum,
// then place every ID from its label). Both shard the input across
// workers with per-worker count arrays merged by the prefix sum, so the
// arena is bit-identical whatever the worker count.
//
// The store is static, like the box grids and the R-trees: Build is its one
// maintenance, and between builds the arena is exactly what the last
// scatter left (Grid.Update is a no-op for it).
type csrStore struct {
	mapper columnMapper
	shift  uint // a label's cell is label >> shift

	starts []uint32 // one offset per column, and the arena's end
	ids    []uint32 // one contiguous arena of entry IDs, len == len(pts)

	// xy, when non-nil, inlines each entry's coordinates next to its ID:
	// slot k of the ID arena owns xy[2k] (x) and xy[2k+1] (y). Filtered
	// cells then test containment against this arena instead of the base
	// table (LayoutCSRXY; see csrxy.go).
	xy []float32

	pts []geom.Point

	// cellOf[id] is the label of entry id, the column of its position (and
	// so, shifted, the cell holding it). The label half of the sort writes it
	// and the scatter half reads it, and it is kept between builds for the
	// audit, which proves it current against a relabel of the snapshot and
	// reads it once a slot for the stretch clause (csrStore.proven).
	cellOf []uint32
	// cursors are the per-shard count, then scatter cursor, arrays of a sort
	// over several shards, one slot per column. A sort on one shard keeps
	// none: it counts and scatters through starts itself (eachShard).
	cursors [][]uint32
}

// columnShift is the one constant of the column directory: a CSR grid sorts
// every cell into 1<<columnShift = 4 x-columns. Measured, not configured
// (BenchmarkCSRColumns; README.md, "Columns are free"): 2 columns leave a
// third of the gain behind, 8 add a tenth to it and double the offsets.
const columnShift = 2

// columnsOf returns m with its x axis cut 1<<shift times finer. Scaling by a
// power of two is exact in float32, so the finer axis takes the same
// product, rounded the same way, as m's: column>>shift IS m's cell for every
// coordinate, to the ulp, and every (1<<shift)th column edge is a cell edge
// (TestColumnsRefineCells). A count that is not a power of two would need
// the cell derived from the column everywhere a Grid maps a point.
func columnsOf(m cellMapper, shift uint) cellMapper {
	m.invCell *= float32(int(1) << shift)
	m.cps <<= shift
	return m
}

// columnMapper is the CSR store's own point mapper, apart from cellMapper
// because the box grids' span mapping is priced by that struct's width: a
// grid's rows, and its x axis in columns. A label is the row's first column
// plus the column of x, so label >> shift is the cell.
type columnMapper struct {
	minX, minY     float32
	invRow, invCol float32
	rows, cols     int // directory rows, and columns to the row
}

func newColumnMapper(rows, cols cellMapper) columnMapper {
	return columnMapper{
		minX: rows.minX, minY: rows.minY,
		invRow: rows.invCell, invCol: cols.invCell,
		rows: rows.cps, cols: cols.cps,
	}
}

// axisIndex is the one clamp of every float-to-cell mapping in the package
// (cellMapper.axisCell, columnMapper.labelOf, and the vector tier's
// labelPts and spanRects): the index of f in [0, n), clamped in float space
// BEFORE truncating. Converting an out-of-range float to int is
// implementation-specific in Go (amd64 yields the minimum int), so a
// coordinate far past the boundary would otherwise clamp to the WRONG side
// — inverting the cell span of an MBR whose other edge is in range. NaN,
// -0 and every negative give 0, everything at or past n gives n-1, and
// in-range values are unaffected.
func axisIndex(f float32, n int) int {
	if !(f > 0) { // also catches NaN
		return 0
	}
	if f >= float32(n) {
		return n - 1
	}
	return int(f)
}

// labelOf maps a point to its label with one product per axis, the very
// products of the cellMappers it was made from. It is the definition the
// build's label pass keeps (labelPoints) and the whole of that pass on the
// scalar tier: it costs what cellIndexFor costs only when inlined, and through a pointer (six fields are two more than
// the compiler keeps in registers; by value every call copied the mapper
// to the stack).
//
//joinlint:inline
func (m *columnMapper) labelOf(p geom.Point) uint32 {
	return uint32(axisIndex((p.Y-m.minY)*m.invRow, m.rows)*m.cols + axisIndex((p.X-m.minX)*m.invCol, m.cols))
}

func newCSRStore(cells int, mapper columnMapper, shift uint, numPoints int, withXY bool) *csrStore {
	st := &csrStore{
		mapper: mapper,
		shift:  shift,
		starts: make([]uint32, cells<<shift+1),
		ids:    make([]uint32, 0, numPoints),
		cellOf: make([]uint32, 0, numPoints),
	}
	if withXY {
		st.xy = make([]float32, 0, 2*numPoints)
	}
	return st
}

// prepare sizes the arena and the labels for a bulk build over pts.
func (st *csrStore) prepare(pts []geom.Point) {
	n := len(pts)
	st.pts = pts
	st.ids = slices.Grow(st.ids[:0], n)[:n]
	st.cellOf = slices.Grow(st.cellOf[:0], n)[:n]
	if st.xy != nil {
		st.xy = slices.Grow(st.xy[:0], 2*n)[:2*n]
	}
}

// build is the counting sort over pts, sharded into contiguous chunks of
// the input when workers > 1 (0 selects GOMAXPROCS; small populations
// stay on one). A column's entries are in ascending ID order either way.
func (st *csrStore) build(pts []geom.Point, workers int) {
	st.prepare(pts)
	shards := st.zeroCursors(workers)
	st.eachShard(shards, (*csrStore).labelShard)
	st.scatter(shards)
}

// zeroCursors resolves the shard count for the population and zeroes what
// that many shards count into: starts for one, a cursor array each for more.
func (st *csrStore) zeroCursors(workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(st.cellOf) < minParallelBuild || workers == 1 {
		clear(st.starts)
		return 1
	}
	for len(st.cursors) < workers {
		st.cursors = append(st.cursors, make([]uint32, len(st.starts)-1))
	}
	for _, sc := range st.cursors[:workers] {
		clear(sc)
	}
	return workers
}

// eachShard runs one half of the sort over the ID range, handing each
// shard the array it counts into and then scatters through, indexed by
// label. One shard runs inline (no goroutine, no closure: Build allocates
// nothing) and on starts itself: the sort every sequential driver runs once
// a tick keeps no column-sized array beside the offsets.
func (st *csrStore) eachShard(shards int, half func(st *csrStore, sc []uint32, lo, hi int)) {
	if shards == 1 {
		half(st, st.starts, 0, len(st.cellOf))
		return
	}
	parutil.ForEachShard(len(st.cellOf), shards, func(w, lo, hi int) { half(st, st.cursors[w], lo, hi) })
}

// labelShard is the label half of the sort over IDs [lo, hi): the mapping
// pass, then the count.
//
//joinlint:bce
func (st *csrStore) labelShard(sc []uint32, lo, hi int) {
	cellOf := st.cellOf[lo:hi]
	labelPoints(&st.mapper, st.pts[lo:hi], cellOf)
	for _, f := range cellOf {
		sc[f]++
	}
}

// labelPoints writes m.labelOf(pts[i]) to cellOf[i] for every point:
// labelPts, eight points an instruction, on the vector tier, and the loop
// below, its definition, everywhere else.
func labelPoints(m *columnMapper, pts []geom.Point, cellOf []uint32) {
	cellOf = cellOf[:len(pts)]
	if vectorKernels {
		labelPts(pts, cellOf, m)
		return
	}
	for i, p := range pts {
		cellOf[i] = m.labelOf(p)
	}
}

// scatter turns every count into the END of its range — one inclusive
// prefix sum across (column, shard) in shard order — and places every ID
// from its label, each shard walking its IDs downwards and its ends down
// with them, into its own disjoint ranges. An end so walked down arrives at
// the range's start: on one shard starts is left holding exactly the column
// offsets, with no second array to hold cursors.
func (st *csrStore) scatter(shards int) {
	starts := st.starts
	if shards == 1 {
		// The last slot counted nothing and ends up the arena's end.
		for f := 1; f < len(starts); f++ {
			starts[f] += starts[f-1]
		}
	} else {
		var sum uint32
		for f := range starts[:len(starts)-1] {
			starts[f] = sum
			for _, sc := range st.cursors[:shards] {
				sum += sc[f]
				sc[f] = sum
			}
		}
		starts[len(starts)-1] = sum
	}
	st.eachShard(shards, (*csrStore).scatterShard)
}

func (st *csrStore) scatterShard(sc []uint32, lo, hi int) {
	cellOf, ids := st.cellOf, st.ids
	if st.xy == nil {
		for i := hi - 1; i >= lo; i-- {
			f := cellOf[i]
			k := sc[f] - 1
			sc[f] = k
			ids[k] = uint32(i)
		}
		return
	}
	pts, xy := st.pts, st.xy
	for i := hi - 1; i >= lo; i-- {
		f := cellOf[i]
		k := sc[f] - 1
		sc[f] = k
		ids[k] = uint32(i)
		xy[2*k], xy[2*k+1] = pts[i].X, pts[i].Y
	}
}

// segment returns where cell c's segment begins and ends: the offset of
// its first column and of the next cell's.
func (st *csrStore) segment(c int) (lo, end uint32) {
	return st.starts[c<<st.shift], st.starts[(c+1)<<st.shift]
}

// appendCell implements store: the cell's segment.
func (st *csrStore) appendCell(c int, buf []uint32) []uint32 {
	lo, end := st.segment(c)
	return append(buf, st.ids[lo:end]...)
}

// appendRow is the store's whole-row kernel. The grid hands a CSR store its
// x range and edge table in columns, and the columns of a directory row
// abut, so the window's span is a run of the ID arena that begins and ends
// within a column of the window, and the kernel pays per row, not per cell:
// a span with no interior worth copying is ONE branchless filter over the
// whole run; a y-contained span of three or more columns is filter(left
// column), one bulk copy of the interior columns, filter(right column). The
// interior is copied only under the exact containment predicates of the
// per-cell walk (Grid.scanCellRange), and the run is filtered only when the
// row intersects r and r's x-extent is ordered, so a NaN or inverted
// rectangle returns what the walk returns: nothing.
//
//joinlint:hotpath
//joinlint:bce
func (st *csrStore) appendRow(r geom.Rect, base, xmin, xmax int, containsY, intersectsY bool, xs []float32, buf []uint32) []uint32 {
	if xmin > xmax || !intersectsY {
		return buf
	}
	base <<= st.shift                         // the row's first column
	row := st.starts[base+xmin : base+xmax+2] // the span's column offsets, and its end
	lo, hi := row[0], row[len(row)-1]
	if containsY && len(row) > 3 && r.MinX <= xs[xmin+1] && xs[xmax] <= r.MaxX {
		in0, in1 := row[1], row[len(row)-2]
		buf = st.appendFilter(r, lo, in0, buf)
		buf = append(buf, st.ids[in0:in1]...)
		return st.appendFilter(r, in1, hi, buf)
	}
	if r.MinX <= r.MaxX {
		buf = st.appendFilter(r, lo, hi, buf)
	}
	return buf
}

// appendFilter test-and-appends the arena run ids[lo:hi] — a column's
// stretch or a whole row's — against whichever table holds its coordinates.
func (st *csrStore) appendFilter(r geom.Rect, lo, hi uint32, buf []uint32) []uint32 {
	if st.xy != nil {
		return appendFilterXY(st.ids[lo:hi], st.xy[2*lo:2*hi], r, buf)
	}
	return appendFilterPts(st.ids[lo:hi], st.pts, r, buf)
}

// appendFilterPts is the buffered filter, and the second reason (after the
// bulk copy) a buffered kernel beats a callback one: it is branchless.
// Every candidate ID is stored into the output unconditionally and the
// write cursor advances by the sign bit of the containment test, so the
// boundary's maximally unpredictable hit/miss pattern costs zero branch
// mispredictions. A callback kernel cannot be compiled this way — invoking
// the callback only for hits IS a data-dependent branch.
//
// The sign trick: p is inside r iff all four of p.X-r.MinX, r.MaxX-p.X,
// p.Y-r.MinY, r.MaxY-p.Y are >= 0, i.e. iff the OR of their IEEE sign
// bits is clear (coordinates are finite, and the generator never
// produces -0, so x-y == -0 cannot arise for distinct operands).
//
// The loop below is the reference, and the whole filter wherever
// vectorKernels is false. Where it is true filterPts (filter_amd64.s) makes
// the same four subtractions eight candidates at a time and returns how many
// passed — or a negative count when a block holds an ID it may not gather
// through, which leaves the run to the loop and its index panic.
//
//joinlint:hotpath
//joinlint:bce
func appendFilterPts(seg []uint32, pts []geom.Point, r geom.Rect, buf []uint32) []uint32 {
	k := len(buf)
	buf = reserve(buf, seg)
	if vectorKernels {
		if n := filterPts(seg, pts, r, buf[k:]); n >= 0 {
			return buf[:k+n]
		}
	}
	for _, id := range seg {
		p := pts[id]
		m := math.Float32bits(p.X-r.MinX) | math.Float32bits(r.MaxX-p.X) |
			math.Float32bits(p.Y-r.MinY) | math.Float32bits(r.MaxY-p.Y)
		buf[k] = id
		k += 1 - int(m>>31)
	}
	return buf[:k]
}

// reserve returns buf extended to at least len(seg) slots past its length,
// for a branchless filter of seg to overwrite and cut back. It grows
// capacity only — at steady state a compare and a reslice, where
// append(buf, seg...) was a memmove of data about to be overwritten — and
// when capacity is short it copies the shortfall alone. (The unsigned
// compare lets the compiler drop the slice check; free is never negative.)
func reserve(buf, seg []uint32) []uint32 {
	free := cap(buf) - len(buf)
	buf = buf[:cap(buf)]
	if uint(free) < uint(len(seg)) {
		buf = append(buf, seg[free:]...)
	}
	return buf
}

func (st *csrStore) cellCount(c int) int {
	lo, end := st.segment(c)
	return int(end - lo)
}

func (st *csrStore) totalEntries() int { return len(st.ids) }

// memoryBytes counts the directory (starts, one offset per column), the ID
// arena, the labels and the retained scratch (the per-shard column cursors
// of a parallel build among it) — everything the store keeps alive between
// ticks. The xy variant adds its coordinate arena.
func (st *csrStore) memoryBytes() int64 {
	total := int64(len(st.starts)+cap(st.ids)+cap(st.cellOf)) * 4
	for _, sc := range st.cursors {
		total += int64(cap(sc)) * 4
	}
	return total + int64(cap(st.xy))*4
}

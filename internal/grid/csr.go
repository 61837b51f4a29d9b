package grid

import (
	"fmt"
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
//	ids[starts[c<<shift] : starts[c<<shift]+counts[c]]
//
// so scanning a cell is a flat loop over contiguous memory — no bucket
// chain, no per-bucket header, no pointer chasing. The directory is two
// plain arrays (starts, counts) instead of bucket references.
//
// The sort key is finer than the cell in x: every cell is cut into
// 1<<shift columns (columnShift) and the build orders a cell's entries by
// column, with one offset per column in starts. Nothing mutable knows: a
// cell is its first column's offset, its live count and its overflow, and
// the first update that moves an entry out of column order drops the dense
// state, with which the column offsets stop meaning anything until the next
// scatter. What the columns buy is appendRow's run path, which ends a row's
// run at the columns of the window instead of the edges of its cells.
//
// The build is a counting sort in two halves: label (map every point to
// its column, into cellOf, counting as it goes) and scatter (prefix sum,
// then place every ID from its label). Both shard the input across
// workers with per-worker count arrays merged by the prefix sum, so the
// arena is bit-identical whatever the worker count.
//
// The labels stay authoritative between builds: an update finds its
// entry, and proves it exists, by one load of cellOf[id], never by
// searching a cell. A single cell-crossing move swap-deletes within the
// old segment (leaving slack) and lands in the new cell's slack or, failing
// that, in a small per-cell overflow slice. A batch relabels its movers
// and, when many cross, re-runs the scatter half from the labels alone
// (updateBatch): no point is mapped again, overflow and slack are gone.
type csrStore struct {
	mapper columnMapper
	shift  uint // a label's cell is label >> shift

	// starts holds one offset per column, and the arena's end. Between
	// scatters only every (1<<shift)th offset is read: cell c's segment
	// begins at starts[c<<shift] and has capacity up to starts[(c+1)<<shift].
	starts []uint32
	counts []uint32 // live entries in each cell's dense segment
	ids    []uint32 // one contiguous arena of entry IDs, len == len(pts) at build

	// xy, when non-nil, inlines each entry's coordinates next to its ID:
	// slot k of the ID arena owns xy[2k] (x) and xy[2k+1] (y). Filtered
	// cells then test containment against this arena instead of the base
	// table (LayoutCSRXY; see csrxy.go).
	xy []float32

	overflow [][]uint32 // per-cell post-build inserts that found no slack
	// overflowXY mirrors overflow with two float32 per entry when xy is
	// enabled, so overflow entries filter arena-locally too.
	overflowXY [][]float32

	entries int
	pts     []geom.Point

	// dense is the arena's state: true when scatter returns — every segment
	// full and in column order, overflow empty, so column f is exactly
	// ids[starts[f]:starts[f+1]] and any span of consecutive columns is one
	// run of ids — and false from the first insert, removeAt, reset or
	// column-crossing relocate until the next scatter. byRange is the grid's
	// ScanRange, fixed at construction. Together they select appendRow's
	// run path.
	dense, byRange bool

	// cellOf[id] is the label of entry id, the column of its position (and
	// so, shifted, the cell holding it): index state, written by the label
	// half of the build and kept current by every update.
	cellOf []uint32
	// cursors are the per-shard count, then scatter cursor, arrays of a sort
	// over several shards, one slot per column. A sort on one shard keeps
	// none: it counts and scatters through starts itself (eachShard).
	cursors  [][]uint32
	crossers []uint32 // updateBatch scratch: the arena-touching moves, while few
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

// axisIndex is cellMapper.axisCell after its product: clamped in float
// space, for the reasons given there.
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
// products of the cellMappers it was made from. labelShard and updateBatch
// call it per point per tick: it costs what cellIndexFor costs only when
// inlined, and through a pointer (six fields are two more than the compiler
// keeps in registers; by value every call copied the mapper to the stack).
//
//joinlint:inline
func (m *columnMapper) labelOf(p geom.Point) uint32 {
	return uint32(axisIndex((p.Y-m.minY)*m.invRow, m.rows)*m.cols + axisIndex((p.X-m.minX)*m.invCol, m.cols))
}

// moverTag marks, in cellOf, an entry of the csrxy layout whose
// coordinates a re-scatter takes from the batch, not from the base table
// (see updateBatch). Labels and arena slots both stay below it.
const moverTag = 1 << 31

// rescatterShare is the whole batch-update policy (rescatterPays): once
// the moves that touch the arena exceed 1/rescatterShare of the
// population, re-running the scatter half of the build is cheaper than
// relocating them one by one. README.md ("Updates") has the crossover
// table behind it (BenchmarkCSRUpdateCrossover).
const rescatterShare = 32

func rescatterPays(touched, population int) bool {
	return touched*rescatterShare > population
}

func newCSRStore(cells int, mapper columnMapper, shift uint, numPoints int, withXY, byRange bool) *csrStore {
	st := &csrStore{
		mapper:   mapper,
		shift:    shift,
		byRange:  byRange,
		starts:   make([]uint32, cells<<shift+1),
		counts:   make([]uint32, cells),
		overflow: make([][]uint32, cells),
	}
	if withXY {
		st.xy = make([]float32, 0, 2*numPoints)
		st.overflowXY = make([][]float32, cells)
	}
	st.ids = make([]uint32, 0, numPoints)
	st.cellOf = make([]uint32, 0, numPoints)
	return st
}

// reset supports the insertAt-driven build of the store interface: every
// segment gets capacity zero, so insertAt lands in overflow. Grid.Build
// calls build instead.
func (st *csrStore) reset(pts []geom.Point) {
	clear(st.starts)
	clear(st.counts)
	st.prepare(pts)
	st.entries, st.dense = 0, false
}

func (st *csrStore) clearOverflow() {
	for c, of := range st.overflow {
		if len(of) > 0 {
			st.overflow[c] = of[:0]
		}
	}
	for c, oxy := range st.overflowXY {
		if len(oxy) > 0 {
			st.overflowXY[c] = oxy[:0]
		}
	}
}

// prepare sizes the arena and the labels for a bulk build over pts.
func (st *csrStore) prepare(pts []geom.Point) {
	n := len(pts)
	st.pts, st.entries = pts, n
	st.clearOverflow()
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

// rescatter is build without its label half: the columns come from cellOf
// as the updates left it.
func (st *csrStore) rescatter(workers int) {
	st.clearOverflow()
	shards := st.zeroCursors(workers)
	st.eachShard(shards, (*csrStore).countShard)
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

func (st *csrStore) labelShard(sc []uint32, lo, hi int) {
	pts, cellOf := st.pts, st.cellOf
	for i := lo; i < hi; i++ {
		f := st.mapper.labelOf(pts[i])
		cellOf[i] = f
		sc[f]++
	}
}

func (st *csrStore) countShard(sc []uint32, lo, hi int) {
	for _, f := range st.cellOf[lo:hi] {
		sc[f&^moverTag]++
	}
}

// scatter turns every count into the END of its range — one inclusive
// prefix sum across (column, shard) in shard order — and places every ID
// from its label, each shard walking its IDs downwards and its ends down
// with them, into its own disjoint ranges. An end so walked down arrives at
// the range's start: on one shard starts is left holding exactly the column
// offsets, with no second array to hold cursors. The cells' counts are then
// read off the offsets.
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
	for c := range st.counts {
		lo, end := st.segment(c)
		st.counts[c] = end - lo
	}
	st.dense = true
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
		k := sc[f&^moverTag] - 1
		sc[f&^moverTag] = k
		ids[k] = uint32(i)
		xy[2*k], xy[2*k+1] = pts[i].X, pts[i].Y
		if f&moverTag != 0 {
			cellOf[i] = k // updateBatch patches the slot and restores the label
		}
	}
}

// segment returns where cell c's segment begins and where its capacity
// ends: the offset of its first column and of the next cell's.
func (st *csrStore) segment(c int) (lo, end uint32) {
	return st.starts[c<<st.shift], st.starts[(c+1)<<st.shift]
}

func unknownEntry(id uint32, at geom.Point) {
	panic(fmt.Sprintf("grid: update of unknown entry %d at %v", id, at))
}

// update is Grid.Update for the CSR layouts: the label both proves the
// entry exists at old and finds it.
func (st *csrStore) update(id uint32, old, new geom.Point) {
	if int(id) >= len(st.cellOf) || st.cellOf[id] != st.mapper.labelOf(old) {
		unknownEntry(id, old)
	}
	st.relocate(id, new)
}

// relocate moves entry id from its labelled cell to the cell of p. A move
// within the cell leaves the ID arena alone — with coordinates inlined it
// rewrites the entry's pair — but one that changes column leaves the entry
// lying in its old column's stretch of the segment: no run may end inside
// this cell any more.
func (st *csrStore) relocate(id uint32, p geom.Point) {
	from, to := st.cellOf[id], st.mapper.labelOf(p)
	c := int(to >> st.shift)
	if int(from>>st.shift) == c {
		if from != to {
			st.cellOf[id] = to
			st.dense = false
		}
		if st.xy != nil {
			st.setXY(c, id, p)
		}
		return
	}
	if !st.removeAt(int(from>>st.shift), id) {
		panic(fmt.Sprintf("grid/csr: entry %d is not in its labelled cell %d", id, from>>st.shift))
	}
	st.insert(to, id, p)
}

// updateBatch applies a batch of moves, at most one per entry, all of
// them validated against the labels before anything changes. Only movers
// that touch the arena cost more than a relabel — for csr those crossing
// a column boundary (inside a cell the entry stays put, but the arena
// leaves column order and with it the run path), for csrxy all (a
// coordinate pair each) — and pays decides from their number and the
// population whether they are relocated one by one or the arena is
// re-scattered.
func (st *csrStore) updateBatch(moves []geom.Move, workers int, pays func(touched, population int) bool) {
	cellOf, tag := st.cellOf, uint32(0)
	if st.xy != nil {
		tag = moverTag
	}
	for i := range moves {
		m := &moves[i]
		if int(m.ID) >= len(cellOf) || cellOf[m.ID] != st.mapper.labelOf(m.Old) {
			unknownEntry(m.ID, m.Old)
		}
	}
	touching, rescattered := st.crossers[:0], false
	for i := range moves {
		m := &moves[i]
		if tag == 0 && cellOf[m.ID] == st.mapper.labelOf(m.New) {
			continue
		}
		touching = append(touching, uint32(i))
		if !pays(len(touching), len(cellOf)) {
			continue
		}
		// Too many to relocate: label them and, with no further test, the
		// rest of the batch, and re-scatter.
		for _, j := range touching {
			cellOf[moves[j].ID] = tag | st.mapper.labelOf(moves[j].New)
		}
		for _, m := range moves[i+1:] {
			cellOf[m.ID] = tag | st.mapper.labelOf(m.New)
		}
		st.rescatter(workers)
		rescattered = true
		break
	}
	st.crossers = touching[:0]
	if !rescattered {
		for _, j := range touching {
			st.relocate(moves[j].ID, moves[j].New)
		}
	} else if tag != 0 {
		// The caller's snapshot is stale for the movers until its next
		// refresh, so the re-scatter's coordinates for them come from the
		// batch: scatterShard left each tagged entry's slot in place of
		// its label; write the new pair there and restore the label.
		for i := range moves {
			m := &moves[i]
			k := cellOf[m.ID]
			st.xy[2*k], st.xy[2*k+1] = m.New.X, m.New.Y
			cellOf[m.ID] = st.mapper.labelOf(m.New)
		}
	}
}

// insertAt implements store: p decides the cell, as it decides the label.
func (st *csrStore) insertAt(c int, id uint32, p geom.Point) { st.insert(st.mapper.labelOf(p), id, p) }

// insert labels entry id and appends it to the label's cell — into the
// segment's slack or, failing that, the cell's overflow.
func (st *csrStore) insert(label, id uint32, p geom.Point) {
	c := int(label >> st.shift)
	st.cellOf[id] = label
	st.entries++
	st.dense = false
	base, end := st.segment(c)
	n := st.counts[c]
	if base+n < end {
		st.ids[base+n] = id
		if st.xy != nil {
			st.xy[2*(base+n)] = p.X
			st.xy[2*(base+n)+1] = p.Y
		}
		st.counts[c] = n + 1
		return
	}
	st.overflow[c] = append(st.overflow[c], id)
	if st.xy != nil {
		st.overflowXY[c] = append(st.overflowXY[c], p.X, p.Y)
	}
}

// removeAt swap-deletes entry id from cell c, refilling a segment hole
// from the cell's overflow first.
func (st *csrStore) removeAt(c int, id uint32) bool {
	st.dense = false
	base, n := st.starts[c<<st.shift], st.counts[c]
	seg := st.ids[base : base+n]
	for j, v := range seg {
		if v != id {
			continue
		}
		hole := 2 * (base + uint32(j))
		if of := st.overflow[c]; len(of) > 0 {
			seg[j] = of[len(of)-1]
			st.overflow[c] = of[:len(of)-1]
			if st.xy != nil {
				oxy := st.overflowXY[c]
				st.xy[hole] = oxy[len(oxy)-2]
				st.xy[hole+1] = oxy[len(oxy)-1]
				st.overflowXY[c] = oxy[:len(oxy)-2]
			}
		} else {
			seg[j] = seg[n-1]
			if st.xy != nil {
				last := 2 * (base + n - 1)
				st.xy[hole] = st.xy[last]
				st.xy[hole+1] = st.xy[last+1]
			}
			st.counts[c] = n - 1
		}
		st.entries--
		return true
	}
	of := st.overflow[c]
	for j, v := range of {
		if v != id {
			continue
		}
		of[j] = of[len(of)-1]
		st.overflow[c] = of[:len(of)-1]
		if st.xy != nil {
			oxy := st.overflowXY[c]
			oxy[2*j] = oxy[len(oxy)-2]
			oxy[2*j+1] = oxy[len(oxy)-1]
			st.overflowXY[c] = oxy[:len(oxy)-2]
		}
		st.entries--
		return true
	}
	return false
}

// setXY rewrites the coordinate pair of entry id of cell c in place.
func (st *csrStore) setXY(c int, id uint32, p geom.Point) {
	base := st.starts[c<<st.shift]
	if j := slices.Index(st.ids[base:base+st.counts[c]], id); j >= 0 {
		k := 2 * (base + uint32(j))
		st.xy[k], st.xy[k+1] = p.X, p.Y
	} else if j := slices.Index(st.overflow[c], id); j >= 0 {
		st.overflowXY[c][2*j], st.overflowXY[c][2*j+1] = p.X, p.Y
	} else {
		panic(fmt.Sprintf("grid/csr: entry %d is not in its labelled cell %d", id, c))
	}
}

func (st *csrStore) scanCell(c int, emit func(id uint32)) {
	base := st.starts[c<<st.shift]
	for _, id := range st.ids[base : base+st.counts[c]] {
		emit(id)
	}
	for _, id := range st.overflow[c] {
		emit(id)
	}
}

func (st *csrStore) filterCell(c int, r geom.Rect, emit func(id uint32)) {
	if st.xy != nil {
		st.filterCellXY(c, r, emit)
		return
	}
	base := st.starts[c<<st.shift]
	for _, id := range st.ids[base : base+st.counts[c]] {
		if st.pts[id].In(r) {
			emit(id)
		}
	}
	for _, id := range st.overflow[c] {
		if st.pts[id].In(r) {
			emit(id)
		}
	}
}

// appendRow is the store's whole-row buffered kernel, and the one place
// that chooses between its two shapes — by the arena's state, nothing else.
// The grid hands a CSR store its x range and edge table in columns.
//
// On a dense arena (and under ScanRange: Algorithm 1 keeps its per-cell
// walk) the columns of a directory row abut, so the window's span is a run
// of the ID arena that begins and ends within a column of the window, and
// the kernel pays per row, not per cell: a span with no interior worth
// copying is ONE branchless filter over the whole run; a y-contained span
// of three or more columns is filter(left column), one bulk copy of the
// interior columns, filter(right column). The interior is copied only under
// the exact containment predicates of the callback walk, and the run is
// filtered only when r's x-extent is ordered, so a NaN or inverted
// rectangle returns what Query returns: nothing.
//
//joinlint:hotpath
//joinlint:bce
func (st *csrStore) appendRow(r geom.Rect, base, xmin, xmax int, containsY bool, xs []float32, buf []uint32) []uint32 {
	if !st.dense || !st.byRange {
		return st.appendCells(r, base, xmin, xmax, containsY, xs, buf)
	}
	if xmin > xmax {
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

// appendCells is the row kernel of an arena that is not dense, in whole
// cells (the columns of xmin, xmax and xs are read a cell apart): contained
// cells append their segment whole, CONSECUTIVE ones whose segments still
// abut merging into a single copy, and boundary cells filter their segment
// and their overflow. Nothing here goes through an interface call or a
// callback.
//
//joinlint:hotpath
//joinlint:bce
func (st *csrStore) appendCells(r geom.Rect, base, xmin, xmax int, containsY bool, xs []float32, buf []uint32) []uint32 {
	ids, starts, counts, sh := st.ids, st.starts, st.counts, st.shift
	xmin, xmax = xmin>>sh, xmax>>sh
	var runLo, runHi uint32
	x0 := xs[xmin<<sh]
	for cx := xmin; cx <= xmax; cx++ {
		x1 := xs[(cx+1)<<sh]
		c := base + cx
		if containsY && r.MinX <= x0 && x1 <= r.MaxX {
			b := starts[c<<sh]
			if runHi != b {
				if runHi > runLo {
					buf = append(buf, ids[runLo:runHi]...)
				}
				runLo = b
			}
			runHi = b + counts[c]
			if of := st.overflow[c]; len(of) > 0 {
				buf = append(buf, of...)
			}
		} else if x0 <= r.MaxX && r.MinX <= x1 {
			b := starts[c<<sh]
			buf = st.appendFilter(r, b, b+counts[c], buf)
			if of := st.overflow[c]; len(of) > 0 {
				if st.xy != nil {
					buf = appendFilterXY(of, st.overflowXY[c], r, buf)
				} else {
					buf = appendFilterPts(of, st.pts, r, buf)
				}
			}
		}
		x0 = x1
	}
	if runHi > runLo {
		buf = append(buf, ids[runLo:runHi]...)
	}
	return buf
}

// appendFilter test-and-appends the arena run ids[lo:hi] — one cell's
// segment or a whole row's — against whichever table holds its coordinates.
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
	return int(st.counts[c]) + len(st.overflow[c])
}

func (st *csrStore) totalEntries() int { return st.entries }

// memoryBytes counts the directory (starts, one offset per column, + counts
// + the per-cell overflow slice headers, 24 bytes each), the ID arena, the
// labels, the retained scratch (the per-shard column cursors of a parallel
// build among it), and overflow capacity — everything the store keeps
// alive between ticks. The xy variant adds its coordinate arena and the
// overflow coordinate mirror.
func (st *csrStore) memoryBytes() int64 {
	total := int64(len(st.starts)+len(st.counts)+cap(st.ids)+cap(st.cellOf)+cap(st.crossers)) * 4
	total += int64(len(st.overflow)) * 24
	for _, of := range st.overflow {
		total += int64(cap(of)) * 4
	}
	for _, sc := range st.cursors {
		total += int64(cap(sc)) * 4
	}
	if st.xy != nil {
		total += int64(cap(st.xy)) * 4
		total += int64(len(st.overflowXY)) * 24
		for _, oxy := range st.overflowXY {
			total += int64(cap(oxy)) * 4
		}
	}
	return total
}

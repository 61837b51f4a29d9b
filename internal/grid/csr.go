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
//	ids[starts[c] : starts[c]+counts[c]]
//
// so scanning a cell is a flat loop over contiguous memory — no bucket
// chain, no per-bucket header, no pointer chasing. The directory is two
// plain arrays (starts, counts) instead of bucket references.
//
// The build is a counting sort in two halves: label (map every point to
// its cell, into cellOf, counting as it goes) and scatter (prefix sum,
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
	mapper cellMapper

	starts []uint32 // len cells+1; segment capacity of c is starts[c+1]-starts[c]
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
	// full, overflow empty, so starts[c]+counts[c] == starts[c+1] and any
	// span of consecutive cells is one run of ids — and false from the
	// first insertAt, removeAt or reset until the next scatter. byRange is
	// the grid's ScanRange, fixed at construction. Together they select
	// appendRow's run path.
	dense, byRange bool

	// cellOf[id] is the cell holding entry id: index state, written by
	// the label half of the build and kept current by every update.
	cellOf   []uint32
	cursors  [][]uint32 // per-shard count, then scatter cursor, arrays of the sort; cursors[0] is counts
	crossers []uint32   // updateBatch scratch: the cell-crossing moves, while few
}

// moverTag marks, in cellOf, an entry of the csrxy layout whose
// coordinates a re-scatter takes from the batch, not from the base table
// (see updateBatch). Cell indices and arena slots both stay below it.
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

func newCSRStore(cells int, mapper cellMapper, numPoints int, withXY, byRange bool) *csrStore {
	st := &csrStore{
		mapper:   mapper,
		byRange:  byRange,
		starts:   make([]uint32, cells+1),
		counts:   make([]uint32, cells),
		overflow: make([][]uint32, cells),
	}
	st.cursors = [][]uint32{st.counts}
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
// stay on one). A cell's entries are in ascending ID order either way.
func (st *csrStore) build(pts []geom.Point, workers int) {
	st.prepare(pts)
	shards := st.zeroCursors(workers)
	st.eachShard(shards, (*csrStore).labelShard)
	st.scatter(shards)
}

// rescatter is build without its label half: the cells come from cellOf
// as the updates left it.
func (st *csrStore) rescatter(workers int) {
	st.clearOverflow()
	shards := st.zeroCursors(workers)
	st.eachShard(shards, (*csrStore).countShard)
	st.scatter(shards)
}

// zeroCursors resolves the shard count for the population and zeroes
// that many count arrays.
func (st *csrStore) zeroCursors(workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(st.cellOf) < minParallelBuild {
		workers = 1
	}
	for len(st.cursors) < workers {
		st.cursors = append(st.cursors, make([]uint32, len(st.counts)))
	}
	for _, sc := range st.cursors[:workers] {
		clear(sc)
	}
	return workers
}

// eachShard runs one half of the sort over the ID range, inline on one
// shard (no goroutine, no closure: Build allocates nothing).
func (st *csrStore) eachShard(shards int, half func(st *csrStore, w, lo, hi int)) {
	if shards == 1 {
		half(st, 0, 0, len(st.cellOf))
		return
	}
	parutil.ForEachShard(len(st.cellOf), shards, func(w, lo, hi int) { half(st, w, lo, hi) })
}

func (st *csrStore) labelShard(w, lo, hi int) {
	sc, pts, cellOf := st.cursors[w], st.pts, st.cellOf
	for i := lo; i < hi; i++ {
		c := uint32(st.mapper.cellIndexFor(pts[i]))
		cellOf[i] = c
		sc[c]++
	}
}

func (st *csrStore) countShard(w, lo, hi int) {
	sc := st.cursors[w]
	for _, c := range st.cellOf[lo:hi] {
		sc[c&^moverTag]++
	}
}

// scatter turns the per-shard counts into starts and per-shard bases (one
// exclusive prefix sum across (cell, shard) in shard order) and places
// every ID from its label, each shard into its own disjoint ranges.
func (st *csrStore) scatter(shards int) {
	var sum uint32
	for c := range st.counts {
		st.starts[c] = sum
		for _, sc := range st.cursors[:shards] {
			n := sc[c]
			sc[c] = sum
			sum += n
		}
	}
	st.starts[len(st.counts)] = sum
	st.eachShard(shards, (*csrStore).scatterShard)
	for c := range st.counts {
		st.counts[c] = st.starts[c+1] - st.starts[c]
	}
	st.dense = true
}

func (st *csrStore) scatterShard(w, lo, hi int) {
	sc, cellOf, ids := st.cursors[w], st.cellOf, st.ids
	if st.xy == nil {
		for i := lo; i < hi; i++ {
			c := cellOf[i]
			ids[sc[c]] = uint32(i)
			sc[c]++
		}
		return
	}
	pts, xy := st.pts, st.xy
	for i := lo; i < hi; i++ {
		c := cellOf[i]
		k := sc[c&^moverTag]
		sc[c&^moverTag] = k + 1
		ids[k] = uint32(i)
		xy[2*k], xy[2*k+1] = pts[i].X, pts[i].Y
		if c&moverTag != 0 {
			cellOf[i] = k // updateBatch patches the slot and restores the label
		}
	}
}

func unknownEntry(id uint32, at geom.Point) {
	panic(fmt.Sprintf("grid: update of unknown entry %d at %v", id, at))
}

// update is Grid.Update for the CSR layouts: the label both proves the
// entry exists at old and finds it.
func (st *csrStore) update(id uint32, old, new geom.Point) {
	if int(id) >= len(st.cellOf) || st.cellOf[id] != uint32(st.mapper.cellIndexFor(old)) {
		unknownEntry(id, old)
	}
	st.relocate(id, new)
}

// relocate moves entry id from its labelled cell to the cell of p. A
// move within the cell leaves the ID arena alone; with coordinates
// inlined it rewrites the entry's pair.
func (st *csrStore) relocate(id uint32, p geom.Point) {
	from, to := st.cellOf[id], uint32(st.mapper.cellIndexFor(p))
	if from == to {
		if st.xy != nil {
			st.setXY(int(from), id, p)
		}
		return
	}
	if !st.removeAt(int(from), id) {
		panic(fmt.Sprintf("grid/csr: entry %d is not in its labelled cell %d", id, from))
	}
	st.insertAt(int(to), id, p)
}

// updateBatch applies a batch of moves, at most one per entry, all of
// them validated against the labels before anything changes. Only movers
// that touch the arena cost more than a relabel — for csr those crossing
// a cell boundary, for csrxy all (a coordinate pair each) — and pays
// decides from their number and the population whether they are relocated
// one by one or the arena is re-scattered.
func (st *csrStore) updateBatch(moves []geom.Move, workers int, pays func(touched, population int) bool) {
	cellOf, tag := st.cellOf, uint32(0)
	if st.xy != nil {
		tag = moverTag
	}
	for i := range moves {
		m := &moves[i]
		if int(m.ID) >= len(cellOf) || cellOf[m.ID] != uint32(st.mapper.cellIndexFor(m.Old)) {
			unknownEntry(m.ID, m.Old)
		}
	}
	touching, rescattered := st.crossers[:0], false
	for i := range moves {
		m := &moves[i]
		if tag == 0 && cellOf[m.ID] == uint32(st.mapper.cellIndexFor(m.New)) {
			continue
		}
		touching = append(touching, uint32(i))
		if !pays(len(touching), len(cellOf)) {
			continue
		}
		// Too many to relocate: label them and, with no further test, the
		// rest of the batch, and re-scatter.
		for _, j := range touching {
			cellOf[moves[j].ID] = tag | uint32(st.mapper.cellIndexFor(moves[j].New))
		}
		for _, m := range moves[i+1:] {
			cellOf[m.ID] = tag | uint32(st.mapper.cellIndexFor(m.New))
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
			cellOf[m.ID] = uint32(st.mapper.cellIndexFor(m.New))
		}
	}
}

// insertAt appends entry id to cell c — into the segment's slack or,
// failing that, the cell's overflow — and labels it.
func (st *csrStore) insertAt(c int, id uint32, p geom.Point) {
	st.cellOf[id] = uint32(c)
	st.entries++
	st.dense = false
	base, n := st.starts[c], st.counts[c]
	if base+n < st.starts[c+1] {
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
	base, n := st.starts[c], st.counts[c]
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
	base := st.starts[c]
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
	base := st.starts[c]
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
	base := st.starts[c]
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
//
// On a dense arena (and under ScanRange: Algorithm 1 keeps its per-cell
// walk) the cells of a directory row abut, so the row's span is a run of
// the ID arena and the kernel pays per row, not per cell: a span with no
// interior worth copying is ONE branchless filter over the whole run; a
// y-contained span of three or more cells is filter(left cell), one bulk
// copy of the interior cells, filter(right cell). The interior is copied
// only under the exact containment predicates of the callback walk, and the
// run is filtered only when r's x-extent is ordered, so a NaN or inverted
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
	row := st.starts[base+xmin : base+xmax+2] // the span's cell offsets, and its end
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

// appendCells is the row kernel of an arena that is not dense: contained
// cells append their segment whole, CONSECUTIVE ones whose segments still
// abut merging into a single copy, and boundary cells filter their segment
// and their overflow. Nothing here goes through an interface call or a
// callback.
//
//joinlint:hotpath
//joinlint:bce
func (st *csrStore) appendCells(r geom.Rect, base, xmin, xmax int, containsY bool, xs []float32, buf []uint32) []uint32 {
	ids, starts, counts := st.ids, st.starts, st.counts
	var runLo, runHi uint32
	x0 := xs[xmin]
	for cx := xmin; cx <= xmax; cx++ {
		x1 := xs[cx+1]
		c := base + cx
		if containsY && r.MinX <= x0 && x1 <= r.MaxX {
			b := starts[c]
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
			b := starts[c]
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
//joinlint:hotpath
//joinlint:bce
func appendFilterPts(seg []uint32, pts []geom.Point, r geom.Rect, buf []uint32) []uint32 {
	k := len(buf)
	buf = reserve(buf, seg)
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

// memoryBytes counts the directory (starts + counts + the per-cell
// overflow slice headers, 24 bytes each), the ID arena, the labels, the
// retained scratch, and overflow capacity — everything the store keeps
// alive between ticks. The xy variant adds its coordinate arena and the
// overflow coordinate mirror.
func (st *csrStore) memoryBytes() int64 {
	total := int64(len(st.starts)+len(st.counts)+cap(st.ids)+cap(st.cellOf)+cap(st.crossers)) * 4
	total += int64(len(st.overflow)) * 24
	for _, of := range st.overflow {
		total += int64(cap(of)) * 4
	}
	for _, sc := range st.cursors[1:] {
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

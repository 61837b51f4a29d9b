package grid

import (
	"math"
	"slices"

	"repro/internal/geom"
)

// csrStore is the partition-based contiguous layout (LayoutCSR): a
// compressed-sparse-row view of the grid. One counting-sort build places
// every entry of cell c in the dense run of its arena
//
//	slots[starts[c<<shift] : starts[(c+1)<<shift]]
//
// so scanning a cell is a flat loop over contiguous memory — no bucket
// chain, no per-bucket header, no pointer chasing. The directory is one
// plain array of offsets instead of bucket references.
//
// The sort key is finer than the cell in x: every cell is cut into
// 1<<shift columns (columnShift) and the build orders a cell's entries by
// column, with one offset per column in starts, so column f is exactly
// slots[starts[f]:starts[f+1]] and any span of consecutive columns is one
// run of the arena. What the columns buy is appendRuns' run path, which
// ends a row's run at the columns of the window instead of the edges of its
// cells.
//
// Each slot of LayoutCSR's arena holds its entry's position in quanta
// beside its ID (csrSlot; quantOf: 16 bits an axis over the whole space),
// so the vector filter of a run reads one sequential stream and decides
// every slot whose quanta lie strictly inside or outside the window's
// without touching the base table; only a slot on a quantum of the
// window's edge is decided by its exact position (filterQLoop; README.md,
// "Quantised positions"). The scalar tier tests every slot exactly.
// LayoutCSRXY keeps IDs alone, and the exact coordinates in an arena of
// their own (csrxy.go).
//
// The build is a counting sort in two halves, both on one core and through
// starts itself: count (map every point to its column, its label, a chunk
// at a time, and count the labels) and scatter (prefix sum, then map each
// chunk again, to labels and quanta, and place every slot from its label).
// It is the only build: a sharded sort with per-worker count arrays made
// the same arena and lost to it at two workers (README.md, "One build").
// No label outlives the build: the second mapping pass pays for the 4
// bytes an entry that kept labels cost, which the quanta now take, and the
// quanta ride in the scatter's one write a point.
//
// The store is static, like the box grids and the R-trees: Build is its one
// maintenance, and between builds the arena is exactly what the last
// scatter left (Grid.Update is a no-op for it).
type csrStore struct {
	mapper mapper // rows of cells, and columns to the row
	shift  uint   // a label's cell is label >> shift

	starts []uint32 // one offset per column, and the arena's end

	// The arena, len == len(pts): slots for LayoutCSR, ids and xy for
	// LayoutCSRXY, which inlines slot k's coordinates at xy[2k] (x) and
	// xy[2k+1] (y) so that filtered cells test containment against this
	// arena instead of the base table (csrxy.go). xy is non-nil exactly
	// for LayoutCSRXY.
	slots []csrSlot
	ids   []uint32
	xy    []float32

	pts []geom.Point
}

// csrSlot is one slot of LayoutCSR's arena: an entry's ID, and its
// position in quanta, quantOf(pts[id]). Side by side they cost the scatter
// one random write a point where two arenas cost two, and the filter reads
// them as one stream.
type csrSlot struct{ id, q uint32 }

// columnShift is the one constant of the column directory: a CSR grid sorts
// every cell into 1<<columnShift = 4 x-columns. Measured, not configured
// (BenchmarkCSRColumns; README.md, "Columns are free"): 2 columns leave a
// third of the gain behind, 8 add a tenth to it and double the offsets.
const columnShift = 2

// quantSteps is the number of quanta an axis of the space is cut into:
// 16 bits, so that a slot's two quanta are one uint32 (quantize).
const quantSteps = 1 << 16

// axisIndex is the one clamp of the package's float-to-integer map
// (mapper.fixed, and the vector tier's quantPts and spanRects): the index
// of f in [0, n), clamped in float space BEFORE truncating. Converting an
// out-of-range float to int is implementation-specific in Go (amd64 yields
// the minimum int), so a coordinate far past the boundary would otherwise
// clamp to the WRONG side — inverting the cell span of an MBR whose other
// edge is in range. NaN, -0 and every negative give 0, everything at or
// past n gives n-1, and in-range values are unaffected.
func axisIndex(f float32, n int) int {
	if !(f > 0) { // also catches NaN
		return 0
	}
	if f >= float32(n) {
		return n - 1
	}
	return int(f)
}

// quantWindow is a query window in quanta, as filterQLoop compares them:
// lo = quantOf(MinX, MinY), hi = quantOf(MaxX, MaxY). Grid.QueryAppend
// makes one a query, from the corners' fixed-point positions it has at
// hand.
type quantWindow struct{ lo, hi uint32 }

func newCSRStore(cells int, mapper mapper, shift uint, numPoints int, withXY bool) *csrStore {
	st := &csrStore{
		mapper: mapper,
		shift:  shift,
		starts: make([]uint32, cells<<shift+1),
	}
	if withXY {
		st.ids = make([]uint32, 0, numPoints)
		st.xy = make([]float32, 0, 2*numPoints)
	} else {
		st.slots = make([]csrSlot, 0, numPoints)
	}
	return st
}

// prepare sizes the arena for a bulk build over pts.
func (st *csrStore) prepare(pts []geom.Point) {
	n := len(pts)
	st.pts = pts
	if st.xy != nil {
		st.ids = slices.Grow(st.ids[:0], n)[:n]
		st.xy = slices.Grow(st.xy[:0], 2*n)[:2*n]
	} else {
		st.slots = slices.Grow(st.slots[:0], n)[:n]
	}
}

// build is the counting sort over pts: it counts into starts, which the
// scatter turns into the column offsets, with no other column-sized array.
// A column's entries are in ascending ID order.
func (st *csrStore) build(pts []geom.Point) {
	st.prepare(pts)
	clear(st.starts)
	st.count()
	st.scatter()
}

// sortChunk is how many points a half of the sort maps at a time, into
// scratch on its own stack: its labels, and in the scatter their quanta.
const sortChunk = 512

// count is the count half of the sort: label a chunk, then count it into
// starts. The chunk's quanta are mapped too, by the one mapping kernel,
// and left unread.
//
//joinlint:bce
func (st *csrStore) count() {
	var labels, quanta [sortChunk]uint32
	sc := st.starts
	for pts := st.pts; len(pts) > 0; {
		chunk := pts[:min(len(pts), sortChunk)]
		quantPoints(&st.mapper, chunk, labels[:], quanta[:])
		for _, f := range labels[:len(chunk)] {
			sc[f]++
		}
		pts = pts[len(chunk):]
	}
}

// quantPoints writes m.labelOf(pts[i]) to labels[i] and m.quantOf(pts[i])
// to quanta[i] for every point: quantPts, eight points an instruction and
// one product an axis for both, on the vector tier, and the loop below,
// its definition, everywhere else.
func quantPoints(m *mapper, pts []geom.Point, labels, quanta []uint32) {
	labels, quanta = labels[:len(pts)], quanta[:len(pts)]
	if vectorKernels {
		quantPts(pts, labels, quanta, m)
		return
	}
	for i, p := range pts {
		x, y := m.fixedOf(p)
		labels[i], quanta[i] = m.label(x, y), quantize(x, y)
	}
}

// scatter turns every count into the END of its range — one inclusive
// prefix sum over the columns — and places every ID from its label: the
// chunks from the last down, each mapped again — to labels and quanta,
// which the xy layout leaves unread — and placed from its last ID down,
// walking each end down with it. An end so walked down arrives at the
// range's start, so starts is left holding exactly the column offsets,
// and no cursor array is kept beside it.
func (st *csrStore) scatter() {
	sc := st.starts
	// The last slot counted nothing and ends up the arena's end.
	for f := 1; f < len(sc); f++ {
		sc[f] += sc[f-1]
	}
	var labels, quanta [sortChunk]uint32
	pts := st.pts
	for hi := len(pts); hi > 0; {
		base := max(0, hi-sortChunk)
		chunk := pts[base:hi]
		quantPoints(&st.mapper, chunk, labels[:], quanta[:])
		if st.xy == nil {
			slots := st.slots
			for j := len(chunk) - 1; j >= 0; j-- {
				f := labels[j]
				k := sc[f] - 1
				sc[f] = k
				slots[k] = csrSlot{uint32(base + j), quanta[j]}
			}
		} else {
			ids, xy := st.ids, st.xy
			for j := len(chunk) - 1; j >= 0; j-- {
				f := labels[j]
				k := sc[f] - 1
				sc[f] = k
				ids[k] = uint32(base + j)
				xy[2*k], xy[2*k+1] = chunk[j].X, chunk[j].Y
			}
		}
		hi = base
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
	return st.appendIDs(lo, end, buf)
}

// appendIDs appends the IDs of the arena's slots [lo, hi): one bulk copy
// of the xy layout's ID arena, or the IDs read out of the slots, by
// filterRuns, eight an instruction, on the vector tier (one run, copied
// whole, which reads no point and no window).
//
//joinlint:bce
func (st *csrStore) appendIDs(lo, hi uint32, buf []uint32) []uint32 {
	if st.xy != nil {
		return append(buf, st.ids[lo:hi]...)
	}
	slots := st.slots[lo:hi]
	k := len(buf)
	buf = reserve(buf, len(slots))[:k+len(slots)]
	out := buf[k:]
	out = out[:len(slots)]
	if vectorKernels {
		filterRuns(st.slots, nil, quantWindow{}, geom.Rect{}, []csrRun{{lo, lo, hi, hi}}, out)
		return buf
	}
	for j, s := range slots {
		out[j] = s.id
	}
	return buf
}

// csrRun is one directory row's run of a window: slots [lo, in0) filtered,
// [in0, in1) copied whole and [in1, hi) filtered. A row with no interior
// worth copying is one filtered run, in0 = in1 = hi.
type csrRun struct{ lo, in0, in1, hi uint32 }

// runChunk is how many rows' runs a query lists at a time for filterRuns,
// a power of two (appendRuns indexes the list by n & (runChunk-1), which
// needs no bounds check). A window of the benchmark's walks two to six
// rows; one of more rows than this enters the routine once a chunk.
const runChunk = 8

// appendRuns is the CSR layouts' one query kernel, on both tiers. The grid
// hands it the window's cells on each axis, x's in columns; the columns of
// a directory row abut, so the window's span of a row is one run of the
// arena, and the kernel pays per row, not per cell: a span of three or
// more columns in a row the window holds on y is filter(left column), one
// bulk copy of the interior columns (which the window holds, cellWindow),
// filter(right column), and any other span one filtered run. An empty
// window, NaN or inverted, touches no column. A CSR grid scans by range
// alone (Config.Validate), so its rows are y's and its columns x's.
//
// Where vectorKernels is true and the layout is LayoutCSR, the runs go into
// a list on the stack, a chunk of which is one entry of filterRuns
// (appendRunList); everywhere else each run is appended as the walk makes
// it (appendRun). The list is made, and zeroed, only there: zeroed on every
// query, its 128 bytes were a runtime.duffzero call, 8 % of csr+xy's w=100
// profile. A listed run's stretches are sliced out of the arena first, so
// offsets out of order or past it panic here, and filterRuns reads only
// slots that are there. qw is r in quanta, which only filterRuns reads;
// made once a row instead of once a query, it cost 10 to 15 ns of about
// 150 (BenchmarkCSRQueryKernel).
//
//joinlint:hotpath
//joinlint:bce
func (st *csrStore) appendRuns(r geom.Rect, qw quantWindow, cps int, x, y cellWindow, buf []uint32) []uint32 {
	if x.lo > x.hi {
		return buf
	}
	var runs *[runChunk]csrRun // the run list, nil on the Go loops' walk
	if vectorKernels && st.xy == nil {
		runs = new([runChunk]csrRun)
	}
	n := 0
	split := x.in0 <= x.in1 && x.hi-x.lo > 1 // three or more columns
	for cy := y.lo; cy <= y.hi; cy++ {
		base := cy * cps << st.shift
		row := st.starts[base+x.lo : base+x.hi+2]
		lo, hi := row[0], row[len(row)-1]
		in0, in1 := hi, hi
		if split && y.holds(cy) {
			in0, in1 = row[1], row[len(row)-2]
		}
		if lo == hi {
			continue
		}
		u := csrRun{lo, in0, in1, hi}
		if runs == nil {
			buf = st.appendRun(u, r, buf)
			continue
		}
		_, _, _ = st.slots[lo:in0], st.slots[in0:in1], st.slots[in1:hi]
		runs[n&(runChunk-1)] = u
		if n++; n == runChunk {
			buf = st.appendRunList(runs[:], qw, r, buf)
			n = 0
		}
	}
	if n > 0 {
		buf = st.appendRunList(runs[:n], qw, r, buf)
	}
	return buf
}

// appendRunList appends the IDs of runs, each filtered, copied and
// filtered: by one call of filterRuns, into room that reserve makes once
// for their total slots, where vectorKernels is true and the layout is
// LayoutCSR, and everywhere else run by run (appendRun). What the one call
// saves is the routine's fixed cost, 8 to 12 ns an entry (README.md,
// "Vector kernels"), which a call a stretch pays 2.47 times a query at the
// benchmark's window. When filterRuns meets a tied ID it may not gather
// through, the runs go to appendRun, whose loop panics on that ID with the
// runtime's index error.
//
//joinlint:hotpath
func (st *csrStore) appendRunList(runs []csrRun, w quantWindow, r geom.Rect, buf []uint32) []uint32 {
	if vectorKernels && st.xy == nil {
		total := 0
		for _, u := range runs {
			total += int(u.hi - u.lo)
		}
		k := len(buf)
		buf = reserve(buf, total)
		if n := filterRuns(st.slots, st.pts, w, r, runs, buf[k:]); n >= 0 {
			return buf[:k+n]
		}
		buf = buf[:k]
	}
	for _, u := range runs {
		buf = st.appendRun(u, r, buf)
	}
	return buf
}

// appendRun appends one run's IDs by the exact Go loop: the exact test of
// its left stretch (appendExact), a bulk copy of its interior (appendIDs)
// and the exact test of its right stretch. An empty stretch is skipped: a
// 0-length filterXY entry on every unsplit row cost csr+xy's w=400 query
// 80 → 112 ns. On the quantised layout's vector tier only filterRuns'
// refusal comes here; off it the quanta buy nothing, a scalar decision on
// them costing more than the sign test it spares (README.md, "Quantised
// positions").
//
//joinlint:hotpath
func (st *csrStore) appendRun(u csrRun, r geom.Rect, buf []uint32) []uint32 {
	if u.lo != u.in0 {
		buf = st.appendExact(u.lo, u.in0, r, buf)
	}
	if u.in0 != u.in1 {
		buf = st.appendIDs(u.in0, u.in1, buf)
	}
	if u.in1 != u.hi {
		buf = st.appendExact(u.in1, u.hi, r, buf)
	}
	return buf
}

// appendExact is the exact test of the arena's stretch [lo, hi): against
// the base table by each slot's ID, or LayoutCSRXY's own arena.
func (st *csrStore) appendExact(lo, hi uint32, r geom.Rect, buf []uint32) []uint32 {
	if st.xy != nil {
		return appendFilterXY(st.ids[lo:hi], st.xy[2*lo:2*hi], r, buf)
	}
	return filterSlotsPts(st.slots[lo:hi], st.pts, r, reserve(buf, int(hi-lo)), len(buf))
}

// filterSlotsPts is the exact sign test of appendFilterPts over the IDs of
// seg, into buf from buf[k] on, which must have room for len(seg) IDs.
//
//joinlint:bce
func filterSlotsPts(seg []csrSlot, pts []geom.Point, r geom.Rect, buf []uint32, k int) []uint32 {
	for _, s := range seg {
		p := pts[s.id]
		m := math.Float32bits(p.X-r.MinX) | math.Float32bits(r.MaxX-p.X) |
			math.Float32bits(p.Y-r.MinY) | math.Float32bits(r.MaxY-p.Y)
		buf[k] = s.id
		k += 1 - int(m>>31)
	}
	return buf[:k]
}

// filterQLoop is the definition of filterRuns' filter (filter_amd64.s),
// the quantised layout's: it filters the slots of seg into buf from buf[k]
// on, w being r in quanta (Grid.QueryAppend), and returns buf cut after the
// last hit. A slot whose quanta lie strictly inside w's on both axes is a
// hit and one outside them on either axis a miss, without a look at its
// position: quantOf is monotone, so a quantum above the window's lower
// bound proves the coordinate above r's, and so on. What is left, a slot
// whose quantum equals a bound's and is otherwise inside, is a tie, which
// the exact test of appendFilterPts decides against pts. At the
// benchmark's 22 000 space a quantum is a third of a unit, and a 400-unit
// window ties about one entry in eighteen queries. The answer is
// appendFilterPts' answer, in the same order, for every position but NaN,
// which quantises to 0 and is dropped by any window whose quanta start
// above it, where the sign trick may pass it. filterRuns makes the same
// decisions sixteen slots at a time, gathering the points of tied slots
// alone. Each slot is decided without a branch but for a tie. buf must
// have room for len(seg) IDs past k (reserve).
//
//joinlint:bce
func filterQLoop(seg []csrSlot, pts []geom.Point, w quantWindow, r geom.Rect, buf []uint32, k int) []uint32 {
	x0, y0 := int32(w.lo&0xffff), int32(w.lo>>16)
	x1, y1 := int32(w.hi&0xffff), int32(w.hi>>16)
	for _, s := range seg {
		x, y := int32(s.q&0xffff), int32(s.q>>16)
		d0, d1, d2, d3 := x-x0, x1-x, y-y0, y1-y
		closed := d0 | d1 | d2 | d3                       // sign set: outside on some axis
		open := (d0 - 1) | (d1 - 1) | (d2 - 1) | (d3 - 1) // sign clear: strictly inside
		hit := 1 - int(uint32(open)>>31)
		if closed >= 0 && open < 0 {
			p := pts[s.id]
			m := math.Float32bits(p.X-r.MinX) | math.Float32bits(r.MaxX-p.X) |
				math.Float32bits(p.Y-r.MinY) | math.Float32bits(r.MaxY-p.Y)
			hit = 1 - int(m>>31)
		}
		buf[k] = s.id
		k += hit
	}
	return buf[:k]
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
// No kernel runs it since the CSR slots were quantised: it is the exact
// reference the quantised filters are held to, and filterSlotsPts is its
// loop over the slots' IDs.
//
//joinlint:hotpath
//joinlint:bce
func appendFilterPts(seg []uint32, pts []geom.Point, r geom.Rect, buf []uint32) []uint32 {
	k := len(buf)
	buf = reserve(buf, len(seg))
	for _, id := range seg {
		p := pts[id]
		m := math.Float32bits(p.X-r.MinX) | math.Float32bits(r.MaxX-p.X) |
			math.Float32bits(p.Y-r.MinY) | math.Float32bits(r.MaxY-p.Y)
		buf[k] = id
		k += 1 - int(m>>31)
	}
	return buf[:k]
}

// reserve returns buf extended to at least n slots past its length, for a
// branchless filter of a run of n candidates to overwrite and cut back. It
// grows capacity only — at steady state a compare and a reslice, where
// appending the run was a memmove of data about to be overwritten — and
// when capacity is short it appends past it until there is room: one
// reallocation for each of append's growth steps, which a cold buffer pays
// once and a reused one never. The one-call forms, slices.Grow and an
// append of a make, are allocations the escape gate sees in every filter
// that inlines reserve, and slices.Grow adds a bounds check to each. (The
// unsigned compare is a loop bound the compiler need not check.)
func reserve(buf []uint32, n int) []uint32 {
	k := len(buf)
	for uint(cap(buf)-k) < uint(n) {
		buf = append(buf[:cap(buf)], 0)
	}
	return buf[:cap(buf)]
}

func (st *csrStore) cellCount(c int) int {
	lo, end := st.segment(c)
	return int(end - lo)
}

// totalEntries is the number of slots of the arena.
func (st *csrStore) totalEntries() int {
	if st.xy != nil {
		return len(st.ids)
	}
	return len(st.slots)
}

// memoryBytes counts the directory (starts, one offset per column) and the
// arena — 8 bytes a slot, ID and quanta, or the xy variant's ID and
// coordinates, 12: everything the store keeps alive between ticks.
// LayoutCSR keeps (len(starts) + 2n)·4 bytes.
func (st *csrStore) memoryBytes() int64 {
	return int64(len(st.starts)+2*cap(st.slots)+cap(st.ids)+cap(st.xy)) * 4
}

package grid

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// This file exports structural self-audits on the grid families,
// mirroring rtree's STR packing checker. They implement
// core.InvariantChecker: the epoch publisher runs them before publishing
// a shadow buffer and the fault-injection harness runs them after every
// injected fault to prove a contained failure never leaks a corrupt
// structure. Every check is O(entries), and the publisher pays it every
// tick, so the static layouts (CSR, BoxGrid2L) audit in two stages: a
// proof pass, which checks every clause through the build's own mapping
// kernels (labelPoints, spanPass) and flat passes over the arena that
// fold the clauses into flags instead of branching on each, and, only
// when it flags something, the per-cell walk, the reference, whose error
// names the violation. The proof pass is held to the walk on a corpus of
// corruptions (TestAuditFastPassAgreesWithWalk).
//
// The membership checks compare stored cells against the retained base
// table, so they rely on the package contract that callers keep the
// snapshot slice in sync with the moves they feed Update
// (the secondary-index assumption every query path already relies on).

// auditChunk is how many objects the proof passes map at a time into the
// fixed scratch they keep on the structure.
const auditChunk = 512

// CheckInvariants implements core.InvariantChecker for the point grid.
// For every layout it verifies global occupancy: each indexed ID is
// stored in exactly one cell, that cell is the one its current base-table
// position maps to, and the total matches Len(). For the CSR layouts it
// additionally audits the arena as the build leaves it: offsets monotone
// at every column (so a cell's columns tile its segment: both are read off
// the same offsets), the arena beginning at slot 0 and ending at len(ids),
// every entry's label the column of its position, every entry lying in its
// label's stretch of the arena, and the inlined coordinate arena (CSRXY)
// mirroring the base table slot for slot. A CSR grid proves all of that
// first (csrStore.proven), and walks cell by cell only to name a failure.
//
// The audit keeps its scratch on the grid (see occupancy), so like Build
// and Update it is a single-caller operation.
func (g *Grid) CheckInvariants() error {
	a := g.occupancy()
	if st := g.csr; st != nil && st.proven(g.cells, len(g.pts), a) {
		return nil
	}
	return g.walk(a)
}

// walk is the per-cell audit: the reference CheckInvariants answers with.
func (g *Grid) walk(a *occupancy) error {
	if st := g.csr; st != nil {
		if err := st.checkCSR(g.cells); err != nil {
			return err
		}
	}
	n := len(g.pts)
	seen := a.reset(n)
	total := 0
	for c := 0; c < g.cells; c++ {
		a.cell = g.st.appendCell(c, a.cell[:0])
		for _, id := range a.cell {
			if err := g.checkOccupant(seen, n, id, c, uint32(total)); err != nil {
				return err
			}
			total++
		}
	}
	if total != n {
		return fmt.Errorf("grid: %d entries stored, snapshot has %d", total, n)
	}
	if l := g.Len(); l != n {
		return fmt.Errorf("grid: Len() = %d, snapshot has %d", l, n)
	}
	return nil
}

// occupancy is the reusable scratch of CheckInvariants: the seen set, one
// bit an ID, the cell being walked and the proof pass's labels. It lives
// on the grid because the epoch publisher audits the shadow before every
// publish, and a fresh seen table was n bytes per tick of a running
// service.
type occupancy struct {
	seen   []uint64
	cell   []uint32
	labels [auditChunk]uint32
}

// occupancy returns the grid's audit scratch, made on first use.
func (g *Grid) occupancy() *occupancy {
	if g.audit == nil {
		g.audit = &occupancy{}
	}
	return g.audit
}

// reset returns the seen set sized for IDs [0, n), every bit clear.
func (a *occupancy) reset(n int) []uint64 {
	w := (n + 63) / 64
	if cap(a.seen) < w {
		a.seen = make([]uint64, w)
	}
	a.seen = a.seen[:w]
	clear(a.seen)
	return a.seen
}

// proven is the CSR audit's proof pass over a grid of cells cells and a
// snapshot of n points: true when every clause of the walk holds, false
// when one may not. After checkCSR (offsets, arena bounds, the xy mirror)
// and the walk's size clauses, it makes three passes:
//
//   - labels: relabel the snapshot in ID order with the build's label
//     pass and fold every difference from cellOf into one word;
//   - stretches: walk the arena flat, and fold into one flag whether each
//     slot k lies in the stretch of its entry's label;
//   - once: walk it again, and fold into another whether each entry was
//     met before, in a set of one bit an ID.
//
// The walk's cell clause needs no pass of its own: with the offsets
// monotone, the one stretch holding slot k is a column of the cell whose
// segment holds it. n distinct IDs below n in an arena of n slots are each
// stored exactly once.
func (st *csrStore) proven(cells, n int, a *occupancy) bool {
	if st.checkCSR(cells) != nil || len(st.ids) != n || len(st.pts) != n || len(st.cellOf) != n {
		return false
	}
	return st.labelsCurrent(&a.labels) && inStretches(st.ids, st.cellOf, st.starts) && onceEach(st.ids, a.reset(n))
}

// labelsCurrent reports whether cellOf[i] is labelOf(pts[i]) for every
// point, relabelling them a chunk at a time into buf.
func (st *csrStore) labelsCurrent(buf *[auditChunk]uint32) bool {
	var diff uint32
	pts := st.pts
	for lo := 0; lo < len(pts); lo += auditChunk {
		chunk := pts[lo:min(lo+auditChunk, len(pts))]
		want := buf[:len(chunk)]
		labelPoints(&st.mapper, chunk, want)
		for i, f := range st.cellOf[lo:][:len(want)] {
			diff |= f ^ want[i]
		}
	}
	return diff == 0
}

// inStretches reports whether every slot k of the arena ids holds an ID
// below len(cellOf) whose label's stretch [starts[f], starts[f+1]) holds
// k. Labels must be columns (labelsCurrent). Each bound is one
// subtraction, widened, whose sign is the flag.
func inStretches(ids, cellOf, starts []uint32) bool {
	var flags uint64
	for k, id := range ids {
		if int(id) >= len(cellOf) {
			return false
		}
		f := int(cellOf[id])
		lo, hi := starts[f], starts[f+1]
		flags |= (uint64(k) - uint64(lo)) | (uint64(hi) - uint64(k) - 1)
	}
	return flags>>63 == 0
}

// onceEach reports whether no ID occurs twice in ids, all of which have a
// bit in seen, which is clear.
func onceEach(ids []uint32, seen []uint64) bool {
	var twice uint64
	for _, id := range ids {
		w, bit := id>>6, uint64(1)<<(id&63)
		twice |= seen[w] & bit
		seen[w] |= bit
	}
	return twice == 0
}

// checkOccupant audits entry id, the nth the pass meets, as found in cell
// c, against a snapshot of size IDs and the set of IDs already met.
func (g *Grid) checkOccupant(seen []uint64, size int, id uint32, c int, n uint32) error {
	if int(id) >= size {
		return fmt.Errorf("grid: cell %d holds id %d beyond snapshot size %d", c, id, size)
	}
	w, bit := id>>6, uint64(1)<<(id&63)
	if seen[w]&bit != 0 {
		return fmt.Errorf("grid: id %d stored in more than one cell", id)
	}
	seen[w] |= bit
	if cs := g.csr; cs != nil {
		return cs.checkEntry(id, c, n)
	}
	if want := g.cellIndexFor(g.pts[id]); want != c {
		return fmt.Errorf("grid: id %d at %v stored in cell %d, want %d", id, g.pts[id], c, want)
	}
	return nil
}

// checkEntry audits entry id as the occupancy pass meets it, the nth it
// visits, in cell c: its label is the column of its position, that column
// is one of c's, and — the pass walks the arena front to back, so the nth
// visit is slot n — the slot lies in the label's stretch.
func (st *csrStore) checkEntry(id uint32, c int, n uint32) error {
	label, want := st.cellOf[id], st.mapper.labelOf(st.pts[id])
	if label != want || int(label>>st.shift) != c {
		return fmt.Errorf("grid/csr: id %d at %v stored in cell %d, labelled column %d (cell %d), want column %d (cell %d)",
			id, st.pts[id], c, label, label>>st.shift, want, want>>st.shift)
	}
	if n < st.starts[label] || n >= st.starts[label+1] {
		return fmt.Errorf("grid/csr: id %d of column %d lies in slot %d, outside the column's [%d, %d)",
			id, label, n, st.starts[label], st.starts[label+1])
	}
	return nil
}

// checkCSR audits the offsets and the coordinate arena of a CSR store of
// cells cells.
func (st *csrStore) checkCSR(cells int) error {
	columns := cells << st.shift
	if len(st.starts) != columns+1 {
		return fmt.Errorf("grid/csr: %d starts for %d columns", len(st.starts), columns)
	}
	if st.starts[0] != 0 || int(st.starts[columns]) != len(st.ids) {
		return fmt.Errorf("grid/csr: the arena begins at slot %d and ends at %d, want 0 and len(ids) = %d",
			st.starts[0], st.starts[columns], len(st.ids))
	}
	for f := 0; f < columns; f++ {
		if st.starts[f] > st.starts[f+1] {
			return fmt.Errorf("grid/csr: starts not monotone at column %d (cell %d): %d > %d",
				f, f>>st.shift, st.starts[f], st.starts[f+1])
		}
	}
	if st.xy == nil {
		return nil
	}
	if len(st.xy) != 2*len(st.ids) {
		return fmt.Errorf("grid/csr: xy arena holds %d floats for %d ids", len(st.xy), len(st.ids))
	}
	for k, id := range st.ids {
		if int(id) >= len(st.pts) {
			return fmt.Errorf("grid/csr: slot %d holds id %d beyond snapshot size %d", k, id, len(st.pts))
		}
		if p := st.pts[id]; st.xy[2*k] != p.X || st.xy[2*k+1] != p.Y {
			return fmt.Errorf("grid/csr: slot %d coords (%g,%g) diverge from base table %v for id %d",
				k, st.xy[2*k], st.xy[2*k+1], p, id)
		}
	}
	return nil
}

// spanCells is the number of cells of span s, and of replicas a build
// gives its object: none for an inverted span (an MBR whose min and max
// fall in different cells the wrong way round).
func spanCells(s cellSpan) uint32 {
	if s.x1 < s.x0 || s.y1 < s.y0 {
		return 0
	}
	return uint32(int(s.x1)-int(s.x0)+1) * uint32(int(s.y1)-int(s.y0)+1)
}

// CheckInvariants implements core.InvariantChecker for the replicating
// box grid: CSR offsets monotone, every cached span matching the current
// base-table rectangle, and every object holding exactly one replica in
// each cell of its span and none elsewhere.
func (bg *BoxGrid) CheckInvariants() error {
	cells := bg.cells
	if len(bg.starts) != cells+1 {
		return fmt.Errorf("boxgrid: %d starts for %d cells", len(bg.starts), cells)
	}
	if bg.boxes != len(bg.rects) {
		return fmt.Errorf("boxgrid: boxes = %d, snapshot has %d", bg.boxes, len(bg.rects))
	}
	for i := range bg.rects {
		if bg.spans[i] != bg.mapper.spanOf(bg.rects[i]) {
			return fmt.Errorf("boxgrid: cached span %v of object %d diverges from rect %v (span %v)",
				bg.spans[i], i, bg.rects[i], bg.mapper.spanOf(bg.rects[i]))
		}
	}
	replicas := replicaTable(&bg.replicas, bg.boxes)
	clear(replicas)
	for c := 0; c < cells; c++ {
		if bg.starts[c] > bg.starts[c+1] {
			return fmt.Errorf("boxgrid: starts not monotone at cell %d: %d > %d",
				c, bg.starts[c], bg.starts[c+1])
		}
		cx, cy := c%bg.cps, c/bg.cps
		for _, id := range bg.ids[bg.starts[c]:bg.starts[c+1]] {
			if int(id) >= bg.boxes {
				return fmt.Errorf("boxgrid: cell %d holds id %d beyond population %d", c, id, bg.boxes)
			}
			s := bg.spans[id]
			if cx < int(s.x0) || cx > int(s.x1) || cy < int(s.y0) || cy > int(s.y1) {
				return fmt.Errorf("boxgrid: id %d replicated into cell (%d,%d) outside its span %v", id, cx, cy, s)
			}
			replicas[id]++
		}
	}
	for id, got := range replicas {
		s := bg.spans[id]
		if want := spanCells(s); got != want {
			return fmt.Errorf("boxgrid: id %d has %d replicas, span %v needs %d", id, got, s, want)
		}
	}
	return nil
}

// CheckInvariants implements core.InvariantChecker for the two-layer
// class-partitioned box grid. On top of the BoxGrid checks (offsets
// monotone, spans current, replica sets exactly tiling spans) it audits
// the class partition: within every cell the four class run ends satisfy
// starts[c] <= A <= B <= C <= D = starts[c+1] (the runs partition the
// segment), each stored replica sits in the run of its classAt, and the
// four edge planes are as long as the ID arena and reassemble, slot by
// slot, to the base table's rectangle. It proves all of that first
// (proven), and walks cell by cell only to name a failure.
//
// The audit keeps its scratch on the grid (see boxAudit), so like Build it
// is a single-caller operation.
func (bg *BoxGrid2L) CheckInvariants() error {
	a := bg.boxAudit()
	if bg.proven(a) {
		return nil
	}
	return bg.walk(a)
}

// walk is the per-cell audit: the reference CheckInvariants answers with.
func (bg *BoxGrid2L) walk(a *boxAudit) error {
	cells := bg.cells
	if len(bg.starts) != cells+1 {
		return fmt.Errorf("boxgrid2l: %d starts for %d cells", len(bg.starts), cells)
	}
	if bg.boxes != len(bg.rects) {
		return fmt.Errorf("boxgrid2l: boxes = %d, snapshot has %d", bg.boxes, len(bg.rects))
	}
	for i := range bg.rects {
		if bg.spans[i] != bg.mapper.spanOf(bg.rects[i]) {
			return fmt.Errorf("boxgrid2l: cached span %v of object %d diverges from rect %v (span %v)",
				bg.spans[i], i, bg.rects[i], bg.mapper.spanOf(bg.rects[i]))
		}
	}
	for i, p := range bg.planes() {
		if len(*p) != len(bg.ids) {
			return fmt.Errorf("boxgrid2l: plane %s holds %d values for %d arena slots",
				planeNames[i], len(*p), len(bg.ids))
		}
	}
	replicas := replicaTable(&a.replicas, bg.boxes)
	clear(replicas)
	for c := 0; c < cells; c++ {
		if bg.starts[c] > bg.starts[c+1] {
			return fmt.Errorf("boxgrid2l: starts not monotone at cell %d: %d > %d",
				c, bg.starts[c], bg.starts[c+1])
		}
		cx, cy := c%bg.cps, c/bg.cps
		lo := bg.starts[c]
		for j := 0; j < 4; j++ {
			hi := bg.ends[bg.endIdx(c, j)]
			if hi < lo {
				return fmt.Errorf("boxgrid2l: cell %d class %d run end %d precedes run start %d",
					c, j, hi, lo)
			}
			if hi > bg.starts[c+1] {
				return fmt.Errorf("boxgrid2l: cell %d class %d run end %d beyond segment end %d",
					c, j, hi, bg.starts[c+1])
			}
			for k := lo; k < hi; k++ {
				id := bg.ids[k]
				if int(id) >= bg.boxes {
					return fmt.Errorf("boxgrid2l: cell %d holds id %d beyond population %d", c, id, bg.boxes)
				}
				s := bg.spans[id]
				if cx < int(s.x0) || cx > int(s.x1) || cy < int(s.y0) || cy > int(s.y1) {
					return fmt.Errorf("boxgrid2l: id %d replicated into cell (%d,%d) outside its span %v",
						id, cx, cy, s)
				}
				if got := classAt(s, cx, cy); got != j {
					return fmt.Errorf("boxgrid2l: id %d stored in class %d run of cell %d, classAt says %d",
						id, j, c, got)
				}
				if err := bg.checkSlotEdges(k, bg.rects[id]); err != nil {
					return err
				}
				replicas[id]++
			}
			lo = hi
		}
		if lo != bg.starts[c+1] {
			return fmt.Errorf("boxgrid2l: cell %d class D run ends at %d, its segment at %d",
				c, lo, bg.starts[c+1])
		}
	}
	for id, got := range replicas {
		s := bg.spans[id]
		if want := spanCells(s); got != want {
			return fmt.Errorf("boxgrid2l: id %d has %d replicas, span %v needs %d", id, got, s, want)
		}
	}
	return nil
}

// planes lists the four edge planes, for the audit to treat them alike.
func (bg *BoxGrid2L) planes() [4]*[]float32 {
	return [4]*[]float32{&bg.mx, &bg.my, &bg.nx, &bg.ny}
}

// planeNames names the edge planes in planes() order.
var planeNames = [4]string{"mx (MaxX)", "my (MaxY)", "nx (-MinX)", "ny (-MinY)"}

// replicaTable returns *buf sized for n objects: the box audits' replica
// counts, kept on their structure between publishes. The walks clear it;
// the proof pass sets every count itself (spansCurrent).
func replicaTable(buf *[]uint32, n int) []uint32 {
	if cap(*buf) < n {
		*buf = make([]uint32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// boxAudit is BoxGrid2L's reusable audit scratch: the replica count of
// every object, and the spans the proof pass re-derives a chunk at a time.
type boxAudit struct {
	replicas []uint32
	spans    [auditChunk]cellSpan
}

// boxAudit returns the grid's audit scratch, made on first use.
func (bg *BoxGrid2L) boxAudit() *boxAudit {
	if bg.audit == nil {
		bg.audit = &boxAudit{}
	}
	return bg.audit
}

// proven is BoxGrid2L's proof pass: true when every clause of the walk
// holds, false when one may not. After the walk's size clauses it makes
// four passes, each with few enough live values to stay in registers:
//
//   - directory: fold every cell's chain of class run ends into flags;
//   - spans: re-derive the spans with the build's span pass, fold every
//     difference from the cached ones into one word, and load each
//     object's replica count with the cells its span needs;
//   - edges: walk the arena flat, fold into one word whether each edge
//     plane holds its slot's rect bit for bit, and take one off the slot's
//     object's count;
//   - classes: walk it run by run, and fold into one word whether each
//     replica's span holds its cell and begins where its class says;
//
// and then wants every count at zero.
func (bg *BoxGrid2L) proven(a *boxAudit) bool {
	if len(bg.starts) != bg.cells+1 || bg.boxes != len(bg.rects) || len(bg.spans) < bg.boxes {
		return false
	}
	for _, p := range bg.planes() {
		if len(*p) != len(bg.ids) {
			return false
		}
	}
	if !bg.directorySound() {
		return false
	}
	replicas := replicaTable(&a.replicas, bg.boxes)
	if !bg.spansCurrent(&a.spans, replicas) || !bg.edgesCurrent(replicas) || !bg.classesSound() {
		return false
	}
	var left uint32
	for _, n := range replicas {
		left |= n
	}
	return left == 0
}

// directorySound reports whether every cell's class run ends chain
// starts[c] <= A <= B <= C <= D = starts[c+1], within the arena: each
// link is a difference whose sign is the flag. The runs then tile the
// slots [starts[0], starts[cells]).
func (bg *BoxGrid2L) directorySound() bool {
	cells := bg.cells
	starts := bg.starts[:cells+1]
	fr, rr := bg.ends[:2*cells], bg.ends[2*cells:4*cells]
	var flags int64
	var diff uint32
	for c := 0; c < cells; c++ {
		lo, a, b := int64(starts[c]), int64(fr[2*c]), int64(fr[2*c+1])
		cc, d := int64(rr[2*c]), rr[2*c+1]
		flags |= (a - lo) | (b - a) | (cc - b) | (int64(d) - cc)
		diff |= d ^ starts[c+1]
	}
	return flags >= 0 && diff == 0 && int(starts[cells]) <= len(bg.ids)
}

// spansCurrent reports whether spans[i] is spanOf(rects[i]) for every
// object, re-deriving them a chunk at a time into buf, and sets
// replicas[i] to the number of cells of spans[i].
func (bg *BoxGrid2L) spansCurrent(buf *[auditChunk]cellSpan, replicas []uint32) bool {
	var diff uint64
	rects, spans := bg.rects, bg.spans[:len(bg.rects)]
	for lo := 0; lo < len(rects); lo += auditChunk {
		want := buf[:min(auditChunk, len(rects)-lo)]
		spanPass(&bg.mapper, rects[lo:lo+len(want)], want)
		got, counts := spans[lo:][:len(want)], replicas[lo:][:len(want)]
		for i := range want {
			diff |= spanWord(&got[i]) ^ spanWord(&want[i])
			counts[i] = spanCells(got[i])
		}
	}
	return diff == 0
}

// spanWord is span s as one word, x0 | x1<<16 | y0<<32 | y1<<48: the
// compiler makes one load of the four fields.
func spanWord(s *cellSpan) uint64 {
	return uint64(s.x0) | uint64(s.x1)<<16 | uint64(s.y0)<<32 | uint64(s.y1)<<48
}

// edgesCurrent reports whether every slot the runs tile holds an id below
// the population whose rect the four planes hold bit for bit (a min
// plane, the negated edge: its sign bit flipped), and takes one off that
// object's count in replicas. The directory must be sound
// (directorySound).
func (bg *BoxGrid2L) edgesCurrent(replicas []uint32) bool {
	const sign = 1 << 31
	lo, hi := bg.starts[0], bg.starts[bg.cells]
	ids, rects := bg.ids[lo:hi], bg.rects
	mx, my, nx, ny := bg.mx[lo:hi], bg.my[lo:hi], bg.nx[lo:hi], bg.ny[lo:hi]
	mx, my, nx, ny = mx[:len(ids)], my[:len(ids)], nx[:len(ids)], ny[:len(ids)]
	var diff uint32
	for k, id := range ids {
		if int(id) >= len(rects) {
			return false
		}
		r := &rects[id]
		diff |= (math.Float32bits(mx[k]) ^ math.Float32bits(r.MaxX)) | (math.Float32bits(my[k]) ^ math.Float32bits(r.MaxY)) |
			(math.Float32bits(nx[k]) ^ math.Float32bits(r.MinX) ^ sign) | (math.Float32bits(ny[k]) ^ math.Float32bits(r.MinY) ^ sign)
		replicas[id]--
	}
	return diff == 0
}

// The class pass compares spans lane by lane, two 16-bit cell coordinates
// to a word in 32-bit lanes: an x at bit 0 and a y at bit 32. For lane
// values a and b, a + laneBias - b stays within its lane, and its bit 16,
// which laneBias sets, survives exactly when a >= b.
const (
	laneMask = 0x0000ffff_0000ffff // a span word's (x0, y0); shifted right 16, its (x1, y1)
	laneBias = 0x00010000_00010000 // bit 16 of each lane
)

// classesSound walks the arena run by run and reports whether, in the
// class runs of cell (cx, cy), every replica's span holds the cell and
// begins where classAt puts the run: on the cell's column for A and C and
// left of it for B and D, on its row for A and B and below it for C and
// D. The runs must tile the arena (directorySound) and their ids lie
// below the population (edgesCurrent).
func (bg *BoxGrid2L) classesSound() bool {
	spans := bg.spans[:bg.boxes]
	half := 2 * bg.cells
	good := uint64(laneBias)
	for c := 0; c < bg.cells; c++ {
		cx, cy := c%bg.cps, c/bg.cps
		x, y := uint64(cx), uint64(cy)
		xLo, xHi := before(cx)
		yLo, yHi := before(cy)
		at := x | y<<32
		lo, a, b := bg.starts[c], bg.ends[2*c], bg.ends[2*c+1]
		cc, d := bg.ends[half+2*c], bg.ends[half+2*c+1]
		good &= runGood(bg.ids[lo:a], spans, x, x, y, y, at)
		good &= runGood(bg.ids[a:b], spans, xLo, xHi, y, y, at)
		good &= runGood(bg.ids[b:cc], spans, x, x, yLo, yHi, at)
		good &= runGood(bg.ids[cc:d], spans, xLo, xHi, yLo, yHi, at)
	}
	return good&laneBias == laneBias
}

// before is the range of cells before cell c on one axis, [0, c-1], or
// the empty [1, 0] when c is the first.
func before(c int) (lo, hi uint64) {
	if c == 0 {
		return 1, 0
	}
	return 0, uint64(c - 1)
}

// runGood is the class pass over one run: the AND over its replicas of the
// words whose lane bits 16 say x0 in [xLo, xHi] and x1 >= the cell's x,
// and the same in y, the cell being at = x | y<<32.
func runGood(ids []uint32, spans []cellSpan, xLo, xHi, yLo, yHi, at uint64) uint64 {
	biasLo, biasHi, biasAt := laneBias-(xLo|yLo<<32), laneBias+(xHi|yHi<<32), laneBias-at
	good := uint64(laneBias)
	for _, id := range ids {
		w := spanWord(&spans[id])
		first, last := w&laneMask, w>>16&laneMask
		good &= (first + biasLo) & (biasHi - first) & (last + biasAt)
	}
	return good
}

// rectAt reassembles the rectangle inlined at arena slot k, bit for bit
// (negation only flips the sign bit).
func (bg *BoxGrid2L) rectAt(k uint32) geom.Rect {
	return geom.Rect{MinX: -bg.nx[k], MinY: -bg.ny[k], MaxX: bg.mx[k], MaxY: bg.my[k]}
}

// checkSlotEdges audits arena slot k edge by edge against the rectangle it
// must reassemble to, bit for bit, naming the plane that diverges.
func (bg *BoxGrid2L) checkSlotEdges(k uint32, want geom.Rect) error {
	got := bg.rectAt(k)
	for i, e := range [4][2]float32{{got.MaxX, want.MaxX}, {got.MaxY, want.MaxY}, {got.MinX, want.MinX}, {got.MinY, want.MinY}} {
		if math.Float32bits(e[0]) != math.Float32bits(e[1]) {
			return fmt.Errorf("boxgrid2l: plane %s slot %d reassembles to %v, the base table has %v",
				planeNames[i], k, e[0], e[1])
		}
	}
	return nil
}

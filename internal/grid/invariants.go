package grid

import (
	"fmt"

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
// kernels (quantPoints, spanPass) and flat passes over the arena that
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
// every entry lying in the stretch of its position's column, and the arena
// beside the IDs mirroring the base table slot for slot: the quanta of the
// entry's position (CSR), or its coordinates (CSRXY). A CSR grid proves all
// of that first (csrStore.proven), and walks cell by cell only to name a
// failure.
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
// bit an ID, the cell being walked, and the proof pass's chunk of IDs, their
// gathered positions and those positions' labels and quanta. It lives on the
// grid because the epoch publisher audits the shadow before every publish,
// and a fresh seen table was n bytes per tick of a running service.
type occupancy struct {
	seen   []uint64
	cell   []uint32
	ids    [auditChunk]uint32
	pts    [auditChunk]geom.Point
	labels [auditChunk]uint32
	quanta [auditChunk]uint32
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
// when one may not. After checkCSR (offsets, arena bounds, the lengths of
// the arenas) and the walk's size clauses, it makes one pass over the arena
// a chunk of slots at a time: it gathers the positions of the chunk's IDs,
// maps them with the build's own kernel, and folds into one flag whether
// each slot k lies in the stretch of its position's column and whether its
// key, label<<32 | id, is above the previous slot's, and into one word
// every difference of the slot's quanta from its position's (for the xy
// layout, of its coordinates).
//
// The walk's cell clause needs no fold of its own: with the offsets
// monotone, the one stretch holding slot k is a column of the cell whose
// segment holds it. Nor does its once clause: an ID stored twice has one
// position, so one label, and its two slots lie in one column, where the
// keys ascend strictly only if the IDs do (the walk's ascent clause); so
// n ascending keys of IDs below n in an arena of n slots store each ID
// exactly once. The stretch clause puts the labels in order, so a key
// below its predecessor differs from it by less than 2³² and sets the
// flag's sign; a key above it by 2⁶³ or more, a label jump of 2³¹ columns,
// sets it too, and sends such a grid to the walk, which proves it.
func (st *csrStore) proven(cells, n int, a *occupancy) bool {
	if st.checkCSR(cells) != nil || st.totalEntries() != n || len(st.pts) != n {
		return false
	}
	var flags uint64
	var diff uint32
	prev := ^uint64(0) // the key before slot 0: every key is above it, mod 2⁶⁴
	pts, starts := st.pts, st.starts
	for lo := 0; lo < n; lo += auditChunk {
		ids := st.appendIDs(uint32(lo), uint32(min(lo+auditChunk, n)), a.ids[:0])
		at, labels := a.pts[:len(ids)], a.labels[:len(ids)]
		for j, id := range ids {
			if int(id) >= len(pts) {
				return false
			}
			at[j] = pts[id]
		}
		quanta := a.quanta[:len(ids)]
		quantPoints(&st.mapper, at, labels, quanta)
		if st.xy == nil {
			for j, s := range st.slots[lo:][:len(ids)] {
				diff |= s.q ^ quanta[j]
			}
		} else {
			xy := st.xy[2*lo:][:2*len(ids)]
			for j, p := range at {
				if xy[2*j] != p.X || xy[2*j+1] != p.Y {
					return false
				}
			}
		}
		for j, f := range labels {
			k, key := uint64(lo+j), uint64(f)<<32|uint64(ids[j])
			flags |= (k - uint64(starts[f])) | (uint64(starts[f+1]) - k - 1) | (key - prev - 1)
			prev = key
		}
	}
	return flags>>63 == 0 && diff == 0
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
	if want := g.mapper.cellOf(g.pts[id]); want != c {
		return fmt.Errorf("grid: id %d at %v stored in cell %d, want %d", id, g.pts[id], c, want)
	}
	return nil
}

// checkEntry audits entry id as the occupancy pass meets it, the nth it
// visits, in cell c: the column of its position is one of c's, and — the
// pass walks the arena front to back, so the nth visit is slot n — the slot
// lies in that column's stretch, above the ID of the slot before it in the
// stretch (the build leaves a column's IDs ascending), and the arena beside
// the IDs holds the position's quanta (or coordinates) there.
func (st *csrStore) checkEntry(id uint32, c int, n uint32) error {
	p := st.pts[id]
	x, y := st.mapper.fixedOf(p)
	f := st.mapper.label(x, y)
	if int(f>>st.shift) != c {
		return fmt.Errorf("grid/csr: id %d at %v stored in cell %d, want column %d (cell %d)", id, p, c, f, f>>st.shift)
	}
	if n < st.starts[f] || n >= st.starts[f+1] {
		return fmt.Errorf("grid/csr: id %d of column %d lies in slot %d, outside the column's [%d, %d)",
			id, f, n, st.starts[f], st.starts[f+1])
	}
	if n > st.starts[f] {
		if prev := st.idAt(n - 1); prev >= id {
			return fmt.Errorf("grid/csr: ids do not ascend in column %d (cell %d): slot %d holds id %d, slot %d id %d",
				f, c, n-1, prev, n, id)
		}
	}
	if st.xy == nil {
		if got, want := st.slots[n].q, quantize(x, y); got != want {
			return fmt.Errorf("grid/csr: slot %d holds quanta %#08x, id %d at %v quantises to %#08x", n, got, id, p, want)
		}
	} else if st.xy[2*n] != p.X || st.xy[2*n+1] != p.Y {
		return fmt.Errorf("grid/csr: slot %d coords (%g,%g) diverge from base table %v for id %d",
			n, st.xy[2*n], st.xy[2*n+1], p, id)
	}
	return nil
}

// idAt is the ID in slot k of the arena.
func (st *csrStore) idAt(k uint32) uint32 {
	if st.xy != nil {
		return st.ids[k]
	}
	return st.slots[k].id
}

// checkCSR audits the offsets of a CSR store of cells cells, and the
// length of the xy layout's coordinate arena.
func (st *csrStore) checkCSR(cells int) error {
	columns := cells << st.shift
	if len(st.starts) != columns+1 {
		return fmt.Errorf("grid/csr: %d starts for %d columns", len(st.starts), columns)
	}
	if st.starts[0] != 0 || int(st.starts[columns]) != st.totalEntries() {
		return fmt.Errorf("grid/csr: the arena begins at slot %d and ends at %d, want 0 and its length %d",
			st.starts[0], st.starts[columns], st.totalEntries())
	}
	for f := 0; f < columns; f++ {
		if st.starts[f] > st.starts[f+1] {
			return fmt.Errorf("grid/csr: starts not monotone at column %d (cell %d): %d > %d",
				f, f>>st.shift, st.starts[f], st.starts[f+1])
		}
	}
	if st.xy != nil && len(st.xy) != 2*len(st.ids) {
		return fmt.Errorf("grid/csr: xy arena holds %d floats for %d ids", len(st.xy), len(st.ids))
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
		if s := bg.mapper.spanOf(bg.rects[i]); bg.spans[i] != s {
			return fmt.Errorf("boxgrid: cached span %v of object %d diverges from rect %v (span %v)",
				bg.spans[i], i, bg.rects[i], s)
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
// four edge planes are as long as the ID arena and hold, slot by slot, the
// quanta of the base table's rectangle (quantaOf). It proves all of that
// first (proven), and walks cell by cell only to name a failure.
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
		if s := bg.mapper.spanOf(bg.rects[i]); bg.spans[i] != s {
			return fmt.Errorf("boxgrid2l: cached span %v of object %d diverges from rect %v (span %v)",
				bg.spans[i], i, bg.rects[i], s)
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
				if err := bg.checkSlotEdges(k, id); err != nil {
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
func (bg *BoxGrid2L) planes() [4]*[]uint16 {
	return [4]*[]uint16{&bg.q[edgeMinX], &bg.q[edgeMinY], &bg.q[edgeMaxX], &bg.q[edgeMaxY]}
}

// planeNames names the edge planes in planes() order.
var planeNames = [4]string{"nx (MinX)", "ny (MinY)", "mx (MaxX)", "my (MaxY)"}

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
// every object, and the spans and quanta the proof pass re-derives a chunk
// at a time.
type boxAudit struct {
	replicas []uint32
	spans    [auditChunk]cellSpan
	quanta   [4][auditChunk]uint16
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
//   - edges: walk the arena flat, re-derive each slot's quanta with the
//     build's fill, fold into one word whether each edge plane holds them,
//     and take one off the slot's object's count;
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
	if !bg.spansCurrent(&a.spans, replicas) || !bg.edgesCurrent(&a.quanta, replicas) || !bg.classesSound() {
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
// the population whose rect's quanta the four planes hold, re-deriving them
// a chunk at a time into buf with the build's fill (fillQuanta), and takes
// one off that object's count in replicas. The directory must be sound
// (directorySound).
func (bg *BoxGrid2L) edgesCurrent(buf *[4][auditChunk]uint16, replicas []uint32) bool {
	lo, hi := int(bg.starts[0]), int(bg.starts[bg.cells])
	ids, rects := bg.ids[lo:hi], bg.rects
	want := [4][]uint16{buf[0][:], buf[1][:], buf[2][:], buf[3][:]}
	var diff uint16
	for at := 0; at < len(ids); at += auditChunk {
		chunk := ids[at:min(at+auditChunk, len(ids))]
		for _, id := range chunk {
			if int(id) >= len(rects) {
				return false
			}
			replicas[id]--
		}
		fillQuanta(&bg.mapper, rects, chunk, &want)
		for e, w := range want {
			got := bg.q[e][lo+at:][:len(chunk)]
			for k, v := range w[:len(got)] {
				diff |= got[k] ^ v
			}
		}
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

// quantaAt returns the quanta of arena slot k, in plane order.
func (bg *BoxGrid2L) quantaAt(k uint32) [4]uint16 {
	return [4]uint16{bg.q[0][k], bg.q[1][k], bg.q[2][k], bg.q[3][k]}
}

// checkSlotEdges audits arena slot k, which holds id, plane by plane
// against the quanta of the base table's rect, naming the plane that
// diverges.
func (bg *BoxGrid2L) checkSlotEdges(k, id uint32) error {
	got, want := bg.quantaAt(k), quantaOf(&bg.mapper, &bg.rects[id])
	for e := range got {
		if got[e] != want[e] {
			return fmt.Errorf("boxgrid2l: plane %s slot %d holds quantum %d, the base table's %v maps to %d",
				planeNames[e], k, got[e], bg.rects[id], want[e])
		}
	}
	return nil
}

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
// structure. All checks are O(entries) — validation passes, not fast
// paths.
//
// The membership checks compare stored cells against the retained base
// table, so they rely on the package contract that callers keep the
// snapshot slice in sync with the moves they feed Update
// (the secondary-index assumption every query path already relies on).

// CheckInvariants implements core.InvariantChecker for the point grid.
// For every layout it verifies global occupancy: each indexed ID is
// stored in exactly one cell, that cell is the one its current base-table
// position maps to, and the total matches Len(). For the CSR layouts it
// additionally audits the arena as the build leaves it: offsets monotone
// at every column (so a cell's columns tile its segment: both are read off
// the same offsets), the arena beginning at slot 0 and ending at len(ids),
// every entry's label the column of its position, every entry lying in its
// label's stretch of the arena, and the inlined coordinate arena (CSRXY)
// mirroring the base table slot for slot.
//
// The audit keeps its scratch on the grid (see occupancy), so like Build
// and Update it is a single-caller operation.
func (g *Grid) CheckInvariants() error {
	if st := g.csr; st != nil {
		if err := st.checkCSR(g.cells); err != nil {
			return err
		}
	}
	n := len(g.pts)
	a := g.audit
	if a == nil {
		a = &occupancy{}
		g.audit = a
	}
	if cap(a.seen) < n {
		a.seen = make([]uint8, n)
	}
	a.seen = a.seen[:n]
	clear(a.seen)
	total := 0
	for c := 0; c < g.cells; c++ {
		a.cell = g.st.appendCell(c, a.cell[:0])
		for _, id := range a.cell {
			if err := g.checkOccupant(a.seen, id, c, uint32(total)); err != nil {
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

// occupancy is the reusable scratch of CheckInvariants: the seen table and
// the cell being audited. It lives on the grid because the epoch publisher
// audits the shadow before every publish, and a fresh seen table was n
// bytes per tick of a running service.
type occupancy struct {
	seen []uint8
	cell []uint32
}

// checkOccupant audits entry id, the nth the pass meets, as found in cell c.
func (g *Grid) checkOccupant(seen []uint8, id uint32, c int, n uint32) error {
	if int(id) >= len(seen) {
		return fmt.Errorf("grid: cell %d holds id %d beyond snapshot size %d", c, id, len(seen))
	}
	if seen[id] != 0 {
		return fmt.Errorf("grid: id %d stored in more than one cell", id)
	}
	seen[id] = 1
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
	replicas := make([]uint32, bg.boxes)
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
// slot, to the base table's rectangle.
func (bg *BoxGrid2L) CheckInvariants() error {
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
	replicas := make([]uint32, bg.boxes)
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

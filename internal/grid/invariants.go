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
// snapshot slice in sync with the moves they feed Update/UpdateBatch
// (the secondary-index assumption every query path already relies on).

// CheckInvariants implements core.InvariantChecker for the point grid.
// For every layout it verifies global occupancy: each indexed ID is
// stored in exactly one cell, that cell is the one its current base-table
// position maps to, and the total matches Len(). For the CSR layouts it
// additionally audits that every entry's label is the column of its
// position, in the cell holding it, and the arena bookkeeping: offsets
// monotone at every column (so a cell's columns tile its segment: both are
// read off the same offsets), live counts within segment capacity,
// slack/overflow accounting consistent with the shared entry counter; while
// the arena is flagged dense, no slack and no overflow anywhere and every
// column's stretch of the arena holding exactly the entries labelled with
// it; and the inlined coordinate arena (CSRXY) mirroring the base table
// slot for slot.
//
// The audit keeps its scratch on the grid (see occupancy), so like Build
// and Update it is a single-caller operation.
func (g *Grid) CheckInvariants() error {
	if st := g.csr; st != nil {
		if err := st.checkCSR(); err != nil {
			return err
		}
	}
	n := len(g.pts)
	a := g.audit
	if a == nil {
		a = &occupancy{g: g}
		a.visit = a.visitID
		g.audit = a
	}
	if cap(a.seen) < n {
		a.seen = make([]uint8, n)
	}
	a.seen = a.seen[:n]
	clear(a.seen)
	a.total, a.err = 0, nil
	for a.cell = 0; a.cell < g.cells && a.err == nil; a.cell++ {
		g.st.scanCell(a.cell, a.visit)
	}
	if a.err != nil {
		return a.err
	}
	if a.total != n {
		return fmt.Errorf("grid: %d entries stored, snapshot has %d", a.total, n)
	}
	if l := g.Len(); l != n {
		return fmt.Errorf("grid: Len() = %d, snapshot has %d", l, n)
	}
	return nil
}

// occupancy is the state of one CheckInvariants pass. It lives on the
// grid, with the cell visitor bound once as a method value, because the
// epoch publisher audits the shadow before every publish: a fresh seen
// table and one closure per cell were n bytes plus cps*cps heap objects
// per tick of a running service.
type occupancy struct {
	g     *Grid
	seen  []uint8
	visit func(id uint32)
	cell  int
	total int
	err   error
}

func (a *occupancy) visitID(id uint32) {
	a.total++
	if a.err != nil {
		return
	}
	g, c := a.g, a.cell
	if int(id) >= len(a.seen) {
		a.err = fmt.Errorf("grid: cell %d holds id %d beyond snapshot size %d", c, id, len(a.seen))
		return
	}
	if a.seen[id] != 0 {
		a.err = fmt.Errorf("grid: id %d stored in more than one cell", id)
		return
	}
	a.seen[id] = 1
	if cs := g.csr; cs != nil {
		a.err = cs.checkEntry(id, c, uint32(a.total-1))
	} else if want := g.cellIndexFor(g.pts[id]); want != c {
		a.err = fmt.Errorf("grid: id %d at %v stored in cell %d, want %d", id, g.pts[id], c, want)
	}
}

// checkEntry audits entry id as the occupancy pass meets it, the nth it
// visits, in cell c: its label is the column of its position, that column
// is one of c's, and, while the arena is dense — when the pass walks the
// arena front to back, so the nth visit is slot n — the slot lies in the
// label's stretch.
func (st *csrStore) checkEntry(id uint32, c int, n uint32) error {
	label, want := st.cellOf[id], st.mapper.labelOf(st.pts[id])
	if label != want || int(label>>st.shift) != c {
		return fmt.Errorf("grid/csr: id %d at %v stored in cell %d, labelled column %d (cell %d), want column %d (cell %d)",
			id, st.pts[id], c, label, label>>st.shift, want, want>>st.shift)
	}
	if st.dense && (n < st.starts[label] || n >= st.starts[label+1]) {
		return fmt.Errorf("grid/csr: arena flagged dense, but id %d of column %d lies in slot %d, outside the column's [%d, %d)",
			id, label, n, st.starts[label], st.starts[label+1])
	}
	return nil
}

// checkCSR audits the csrStore arena bookkeeping.
func (st *csrStore) checkCSR() error {
	cells := len(st.counts)
	columns := cells << st.shift
	if len(st.starts) != columns+1 {
		return fmt.Errorf("grid/csr: %d starts for %d columns", len(st.starts), columns)
	}
	for f := 0; f < columns; f++ {
		if st.starts[f] > st.starts[f+1] {
			return fmt.Errorf("grid/csr: starts not monotone at column %d (cell %d): %d > %d",
				f, f>>st.shift, st.starts[f], st.starts[f+1])
		}
	}
	live := 0
	for c := 0; c < cells; c++ {
		lo, end := st.segment(c)
		capacity := end - lo
		if st.counts[c] > capacity {
			return fmt.Errorf("grid/csr: cell %d count %d exceeds segment capacity %d",
				c, st.counts[c], capacity)
		}
		if st.dense && (st.counts[c] != capacity || len(st.overflow[c]) > 0) {
			return fmt.Errorf("grid/csr: arena flagged dense, but cell %d fills %d of %d slots with %d overflow entries",
				c, st.counts[c], capacity, len(st.overflow[c]))
		}
		if st.counts[c] < capacity && len(st.overflow[c]) > 0 {
			return fmt.Errorf("grid/csr: cell %d has %d overflow entries with %d slack slots",
				c, len(st.overflow[c]), capacity-st.counts[c])
		}
		live += int(st.counts[c]) + len(st.overflow[c])
		if st.overflowXY != nil && len(st.overflowXY[c]) != 2*len(st.overflow[c]) {
			return fmt.Errorf("grid/csr: cell %d overflowXY holds %d floats for %d ids",
				c, len(st.overflowXY[c]), len(st.overflow[c]))
		}
	}
	if int(st.starts[columns]) > len(st.ids) {
		return fmt.Errorf("grid/csr: arena end %d beyond ids length %d",
			st.starts[columns], len(st.ids))
	}
	if live != st.entries {
		return fmt.Errorf("grid/csr: %d live entries across cells, counter says %d",
			live, st.entries)
	}
	if st.xy != nil {
		if len(st.xy) != 2*len(st.ids) {
			return fmt.Errorf("grid/csr: xy arena holds %d floats for %d ids",
				len(st.xy), len(st.ids))
		}
		for c := 0; c < cells; c++ {
			base := st.starts[c<<st.shift]
			for k := base; k < base+st.counts[c]; k++ {
				id := st.ids[k]
				if p := st.pts[id]; st.xy[2*k] != p.X || st.xy[2*k+1] != p.Y {
					return fmt.Errorf("grid/csr: slot %d coords (%g,%g) diverge from base table %v for id %d",
						k, st.xy[2*k], st.xy[2*k+1], p, id)
				}
			}
		}
	}
	return nil
}

// CheckInvariants implements core.InvariantChecker for the replicating
// box grid: CSR offsets monotone, live counts within segment capacity,
// overflow only on full segments, every cached span matching the current
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
	countReplica := func(c int, id uint32, from string) error {
		if int(id) >= bg.boxes {
			return fmt.Errorf("boxgrid: cell %d %s holds id %d beyond population %d", c, from, id, bg.boxes)
		}
		s := bg.spans[id]
		cx, cy := c%bg.cps, c/bg.cps
		if cx < int(s.x0) || cx > int(s.x1) || cy < int(s.y0) || cy > int(s.y1) {
			return fmt.Errorf("boxgrid: id %d replicated into cell (%d,%d) outside its span %v", id, cx, cy, s)
		}
		replicas[id]++
		return nil
	}
	for c := 0; c < cells; c++ {
		if bg.starts[c] > bg.starts[c+1] {
			return fmt.Errorf("boxgrid: starts not monotone at cell %d: %d > %d",
				c, bg.starts[c], bg.starts[c+1])
		}
		capacity := bg.starts[c+1] - bg.starts[c]
		if bg.counts[c] > capacity {
			return fmt.Errorf("boxgrid: cell %d count %d exceeds segment capacity %d",
				c, bg.counts[c], capacity)
		}
		if bg.counts[c] < capacity && len(bg.overflow[c]) > 0 {
			return fmt.Errorf("boxgrid: cell %d has %d overflow entries with %d slack slots",
				c, len(bg.overflow[c]), capacity-bg.counts[c])
		}
		base := bg.starts[c]
		for _, id := range bg.ids[base : base+bg.counts[c]] {
			if err := countReplica(c, id, "segment"); err != nil {
				return err
			}
		}
		for _, id := range bg.overflow[c] {
			if err := countReplica(c, id, "overflow"); err != nil {
				return err
			}
		}
	}
	for id, got := range replicas {
		s := bg.spans[id]
		want := uint32(int(s.x1)-int(s.x0)+1) * uint32(int(s.y1)-int(s.y0)+1)
		if got != want {
			return fmt.Errorf("boxgrid: id %d has %d replicas, span %v needs %d", id, got, s, want)
		}
	}
	return nil
}

// CheckInvariants implements core.InvariantChecker for the two-layer
// class-partitioned box grid. On top of the BoxGrid checks (offsets
// monotone, spans current, replica sets exactly tiling spans) it audits
// the class partition: within every cell the four class run ends satisfy
// starts[c] <= A <= B <= C <= D <= starts[c+1] (the runs partition the
// live prefix, slack follows D), each stored replica sits in the run of
// its classAt, and the four edge planes are as long as the ID arena and
// reassemble, slot by slot, to the base table's rectangle.
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
		if len(bg.overflowR[c]) != len(bg.overflow[c]) {
			return fmt.Errorf("boxgrid2l: cell %d overflowR holds %d rects for %d ids",
				c, len(bg.overflowR[c]), len(bg.overflow[c]))
		}
		for k, id := range bg.overflow[c] {
			if int(id) >= bg.boxes {
				return fmt.Errorf("boxgrid2l: cell %d overflow holds id %d beyond population %d",
					c, id, bg.boxes)
			}
			s := bg.spans[id]
			if cx < int(s.x0) || cx > int(s.x1) || cy < int(s.y0) || cy > int(s.y1) {
				return fmt.Errorf("boxgrid2l: id %d overflowed into cell (%d,%d) outside its span %v",
					id, cx, cy, s)
			}
			if bg.overflowR[c][k] != bg.rects[id] {
				return fmt.Errorf("boxgrid2l: cell %d overflow rect %v diverges from base table %v for id %d",
					c, bg.overflowR[c][k], bg.rects[id], id)
			}
			replicas[id]++
		}
	}
	for id, got := range replicas {
		s := bg.spans[id]
		want := uint32(int(s.x1)-int(s.x0)+1) * uint32(int(s.y1)-int(s.y0)+1)
		if got != want {
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

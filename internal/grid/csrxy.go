package grid

import (
	"math"

	"repro/internal/geom"
)

// LayoutCSRXY: the CSR layout with coordinates inlined next to the IDs.
//
// The paper's Section 3.1 mentions — and declines — storing each entry's
// coordinates beside its ID so that filtering a cell never dereferences
// the base table; LayoutInlineXY replays that refinement on the bucketed
// layout. This file replays it on the contiguous layout: the build
// scatters x,y into a float32 arena parallel to the ID arena (slot k owns
// xy[2k], xy[2k+1]), so a filtered cell is two sequential streams — IDs
// and coordinates — with zero random access. Updates keep the arena
// coherent (insertAt/removeAt move coordinate pairs alongside IDs,
// overflow entries carry their coordinates in overflowXY, a move within
// a cell rewrites its pair in place, and a batch re-scatter takes the
// movers' pairs from the batch), and the sharded build writes
// coordinates in the same disjoint ranges as the IDs, preserving the
// bit-identical-arena guarantee.
//
// The cost is the doubled arena (12 bytes per entry instead of 4) and
// the loss of the secondary-index property: coordinates are duplicated
// into the index, which is why the paper declines the refinement and why
// it stays an opt-in layout here.

// filterCellXY is filterCell against the inlined coordinate arena: the
// containment predicate reads xy[2k], xy[2k+1] instead of pts[id], so the
// base table is never touched.
func (st *csrStore) filterCellXY(c int, r geom.Rect, emit func(id uint32)) {
	base := st.starts[c]
	n := st.counts[c]
	ids := st.ids[base : base+n]
	xy := st.xy[2*base : 2*(base+n)]
	for j, id := range ids {
		x, y := xy[2*j], xy[2*j+1]
		if x >= r.MinX && x <= r.MaxX && y >= r.MinY && y <= r.MaxY {
			emit(id)
		}
	}
	oxy := st.overflowXY[c]
	for j, id := range st.overflow[c] {
		x, y := oxy[2*j], oxy[2*j+1]
		if x >= r.MinX && x <= r.MaxX && y >= r.MinY && y <= r.MaxY {
			emit(id)
		}
	}
}

// appendRowXY is csrStore.appendRow against the inlined coordinate
// arena: contained cells merge into contiguous whole-segment copies
// exactly as in the plain CSR row kernel (containment needs no
// coordinates at all), and boundary cells filter against the xy streams
// instead of the base table.
//
//joinlint:hotpath
//joinlint:bce
func (st *csrStore) appendRowXY(r geom.Rect, base, xmin, xmax int, containsY bool, xs []float32, buf []uint32) []uint32 {
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
			n := counts[c]
			seg := ids[b : b+n]
			xy := st.xy[2*b : 2*(b+n)]
			// Branchless compaction over the two sequential streams (see
			// csrStore.appendFilterCell for the sign trick): with the
			// coordinates inlined this loop never touches memory outside
			// the two arenas and never mispredicts.
			k := len(buf)
			buf = append(buf, seg...) // reserve; survivors overwrite in place
			for j, id := range seg {
				x, y := xy[2*j], xy[2*j+1]
				m := math.Float32bits(x-r.MinX) | math.Float32bits(r.MaxX-x) |
					math.Float32bits(y-r.MinY) | math.Float32bits(r.MaxY-y)
				buf[k] = id
				k += 1 - int(m>>31)
			}
			buf = buf[:k]
			oxy := st.overflowXY[c]
			for j, id := range st.overflow[c] {
				x, y := oxy[2*j], oxy[2*j+1]
				if x >= r.MinX && x <= r.MaxX && y >= r.MinY && y <= r.MaxY {
					buf = append(buf, id)
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

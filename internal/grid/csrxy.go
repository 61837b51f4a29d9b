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
	base := st.starts[c<<st.shift]
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

// appendFilterXY is appendFilterPts over the two sequential streams: slot
// j of seg owns xy[2j], xy[2j+1], so the loop never touches memory outside
// the two arenas. The loop is the reference; filterXY is its vector tier,
// the one kernel on which the contiguous coordinate stream beats the gather.
//
//joinlint:hotpath
//joinlint:bce
func appendFilterXY(seg []uint32, xy []float32, r geom.Rect, buf []uint32) []uint32 {
	k := len(buf)
	buf = reserve(buf, seg)
	xy = xy[:2*len(seg)]
	if vectorKernels {
		return buf[:k+filterXY(seg, xy, r, buf[k:])]
	}
	for j, id := range seg {
		x, y := xy[2*j], xy[2*j+1]
		m := math.Float32bits(x-r.MinX) | math.Float32bits(r.MaxX-x) |
			math.Float32bits(y-r.MinY) | math.Float32bits(r.MaxY-y)
		buf[k] = id
		k += 1 - int(m>>31)
	}
	return buf[:k]
}

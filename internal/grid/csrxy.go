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
// xy[2k], xy[2k+1]), so a filtered run is two sequential streams — IDs
// and coordinates — with zero random access. The scatter writes each
// entry's coordinates in the same slot as its ID, and like the plain
// layout the arena is static: the next build is what sees a move.
//
// The cost is the doubled arena (12 bytes per entry instead of 4) and
// the loss of the secondary-index property: coordinates are duplicated
// into the index, which is why the paper declines the refinement and why
// it stays an opt-in layout here.

// appendFilterXY is appendFilterPts over the two sequential streams: slot
// j of seg owns xy[2j], xy[2j+1], so the loop never touches memory outside
// the two arenas. The loop is the reference; filterXY is its vector tier,
// the one kernel on which the contiguous coordinate stream beats the gather.
//
//joinlint:hotpath
//joinlint:bce
func appendFilterXY(seg []uint32, xy []float32, r geom.Rect, buf []uint32) []uint32 {
	k := len(buf)
	buf = reserve(buf, len(seg))
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

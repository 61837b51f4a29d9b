//go:build !amd64 || purego

package grid

import "repro/internal/geom"

// No vector tier on this platform: vectorKernels is a false constant, and
// the mapping pass is labelOf's, quantOf's and spanOf's loops, and
// BoxGrid2L's fill quantaOf's.

func quantPts([]geom.Point, []uint32, []uint32, *mapper) { panic("grid: no vector tier") }

func spanRects([]geom.Rect, []cellSpan, *mapper) { panic("grid: no vector tier") }

func quantFill([]uint32, []geom.Rect, []uint16, []uint16, []uint16, []uint16, *mapper) int {
	panic("grid: no vector tier")
}

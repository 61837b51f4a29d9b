//go:build !amd64 || purego

package grid

import "repro/internal/geom"

// No vector tier on this platform: the constant compiles every call of the
// routines below away and the filters are their Go loops.
const vectorKernels = false

func filterQ([]csrSlot, []geom.Point, quantWindow, geom.Rect, []uint32) int {
	panic("grid: no vector tier")
}

func filterXY([]uint32, []float32, geom.Rect, []uint32) int { panic("grid: no vector tier") }

func filterPlanes1([]uint32, []uint32, []geom.Rect, []uint16, edgeBound) int {
	panic("grid: no vector tier")
}

func filterPlanes2([]uint32, []uint32, []geom.Rect, []uint16, edgeBound, []uint16, edgeBound) int {
	panic("grid: no vector tier")
}

func filterPlanes4(_, _ []uint32, _ []geom.Rect, _ []uint16, _ edgeBound, _ []uint16, _ edgeBound, _ []uint16, _ edgeBound, _ []uint16, _ edgeBound) int {
	panic("grid: no vector tier")
}

func copySlotIDs([]csrSlot, []uint32) { panic("grid: no vector tier") }

//go:build !amd64 || purego

package grid

import "repro/internal/geom"

// No vector tier on this platform: the constant compiles every call of the
// routines below away and the filters are their Go loops.
const vectorKernels = false

func filterPts([]uint32, []geom.Point, geom.Rect, []uint32) int { panic("grid: no vector tier") }

func filterXY([]uint32, []float32, geom.Rect, []uint32) int { panic("grid: no vector tier") }

func filterPlanes(_, _ []uint32, _ int, _ []float32, _ float32, _ []float32, _ float32, _ []float32, _ float32, _ []float32, _ float32) int {
	panic("grid: no vector tier")
}

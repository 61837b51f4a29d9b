//go:build !amd64 || purego

package grid

import "repro/internal/geom"

// No vector tier on this platform: vectorKernels is a false constant, and
// the mapping pass is labelOf's and spanOf's loops.

func labelPts([]geom.Point, []uint32, *columnMapper) { panic("grid: no vector tier") }

func spanRects([]geom.Rect, []cellSpan, *cellMapper) { panic("grid: no vector tier") }

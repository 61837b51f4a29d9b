//go:build amd64 && !purego

package grid

import "repro/internal/geom"

// The mapping pass of the counting sorts, eight points or four rectangles
// an iteration (label_amd64.s), on the filters' tier (vectorKernels). Each
// writes exactly len(pts) labels (and quanta) or len(rects) spans, bit for
// bit what m.labelOf (m.quantOf) and m.spanOf return; the wrappers,
// labelPoints, quantPoints and spanPass, cut the output to that length
// first.

//go:noescape
func labelPts(pts []geom.Point, labels []uint32, m *columnMapper)

//go:noescape
func quantPts(pts []geom.Point, labels, quanta []uint32, m *columnMapper)

//go:noescape
func spanRects(rects []geom.Rect, spans []cellSpan, m *cellMapper)

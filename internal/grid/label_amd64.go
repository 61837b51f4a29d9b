//go:build amd64 && !purego

package grid

import "repro/internal/geom"

// The mapping pass of the counting sorts, eight points or four rectangles
// an iteration (label_amd64.s), on the filters' tier (vectorKernels). Each
// writes exactly len(pts) labels and quanta or len(rects) spans, bit for
// bit what m.labelOf and m.quantOf, or m.spanOf, return; the wrappers,
// quantPoints and spanPass, cut the output to that length first. quantFill
// is BoxGrid2L's fill, sixteen arena slots an iteration: slot k of each
// plane gets quantaOf(m, &rects[ids[k]]), and it returns len(ids), or -1
// without finishing when an ID may not be gathered through (at or past
// len(rects), or 1<<29); each plane is at least len(ids) long.

//go:noescape
func quantPts(pts []geom.Point, labels, quanta []uint32, m *mapper)

//go:noescape
func spanRects(rects []geom.Rect, spans []cellSpan, m *mapper)

//go:noescape
func quantFill(ids []uint32, rects []geom.Rect, p0, p1, p2, p3 []uint16, m *mapper) int

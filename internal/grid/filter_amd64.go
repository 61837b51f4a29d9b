//go:build amd64 && !purego

package grid

import (
	"repro/internal/cpuid"
	"repro/internal/geom"
)

// vectorKernels selects the AVX-512 tier of the branchless filters
// (filter_amd64.s) and of the build's mapping pass (label_amd64.s): the
// module's one probe (internal/cpuid), read once here and never written
// again outside tests. Every other platform, and -tags purego, has it a
// false constant (filter_generic.go) and runs the Go loops.
var vectorKernels = cpuid.AVX512

// Each routine filters seg into dst[:len(seg)] and returns how many IDs
// passed; filterQ and filterPlanes return -1 when an ID they have to read
// through (a tie's) is not a safe index into pts or rects.

//go:noescape
func filterXY(seg []uint32, xy []float32, r geom.Rect, dst []uint32) int

//go:noescape
func filterPlanes1(seg, dst []uint32, rects []geom.Rect, p0 []uint16, b0 edgeBound) int

//go:noescape
func filterPlanes2(seg, dst []uint32, rects []geom.Rect, p0 []uint16, b0 edgeBound, p1 []uint16, b1 edgeBound) int

//go:noescape
func filterPlanes4(seg, dst []uint32, rects []geom.Rect, p0 []uint16, b0 edgeBound, p1 []uint16, b1 edgeBound, p2 []uint16, b2 edgeBound, p3 []uint16, b3 edgeBound) int

//go:noescape
func filterQ(seg []csrSlot, pts []geom.Point, w quantWindow, r geom.Rect, dst []uint32) int

// copySlotIDs writes the ID of every slot of seg to dst, which is as long.
//
//go:noescape
func copySlotIDs(seg []csrSlot, dst []uint32)

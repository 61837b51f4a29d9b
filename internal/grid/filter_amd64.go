//go:build amd64 && !purego

package grid

import (
	"repro/internal/cpuid"
	"repro/internal/geom"
)

// vectorKernels selects the AVX-512 tier of the four branchless filters
// (filter_amd64.s) and of the build's mapping pass (label_amd64.s): the
// module's one probe (internal/cpuid), read once here and never written
// again outside tests. Every other platform, and -tags purego, has it a
// false constant (filter_generic.go) and runs the Go loops.
var vectorKernels = cpuid.AVX512

// Each routine filters seg into dst[:len(seg)] and returns how many IDs
// passed; filterPts returns -1 when an ID is not a safe index into pts.

//go:noescape
func filterPts(seg []uint32, pts []geom.Point, r geom.Rect, dst []uint32) int

//go:noescape
func filterXY(seg []uint32, xy []float32, r geom.Rect, dst []uint32) int

//go:noescape
func filterPlanes(seg, dst []uint32, n int, p0 []float32, b0 float32, p1 []float32, b1 float32, p2 []float32, b2 float32, p3 []float32, b3 float32) int

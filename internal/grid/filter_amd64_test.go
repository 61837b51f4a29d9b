//go:build amd64 && !purego

package grid

// missingTier says what a test skipped for want of the vector tier lacks.
const missingTier = "this CPU or OS lacks AVX512F + AVX512VL (with POPCNT and OS-saved ZMM and opmask state)"

// scalarTier runs f on the filters' Go loops, the reference tier.
func scalarTier(f func()) {
	defer func(v bool) { vectorKernels = v }(vectorKernels)
	vectorKernels = false
	f()
}

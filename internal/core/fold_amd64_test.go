//go:build amd64 && !purego

package core

// missingTier says what a test that compared one tier lacks.
const missingTier = "this CPU or OS lacks AVX512F + AVX512VL + AVX512DQ (with POPCNT and OS-saved ZMM and opmask state)"

// scalarFold runs f with foldIDs on mixIDs, the reference tier.
func scalarFold(f func()) {
	defer func(v bool) { vectorFold = v }(vectorFold)
	vectorFold = false
	f()
}

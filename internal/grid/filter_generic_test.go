//go:build !amd64 || purego

package grid

const missingTier = "built without it (-tags purego, or not amd64)"

// scalarTier runs f on the filters' Go loops: here, the only tier.
func scalarTier(f func()) { f() }

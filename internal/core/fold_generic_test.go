//go:build !amd64 || purego

package core

// vectorFold is what the tests ask of the tier: here, always absent.
const vectorFold = false

const missingTier = "built without it (-tags purego, or not amd64)"

// scalarFold runs f with foldIDs on mixIDs: here, the only tier.
func scalarFold(f func()) { f() }

//go:build !amd64 || purego

package core

// foldIDs is the buffered drains' digest kernel. No vector tier on this
// platform: it is its Go loop.
func foldIDs(h uint64, q uint32, ids []uint32) uint64 { return mixIDs(h, q, ids) }

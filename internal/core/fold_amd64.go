//go:build amd64 && !purego

package core

import "repro/internal/cpuid"

// vectorFold selects foldIDs' AVX-512 tier: the module's one probe, read
// once here and never written again outside tests. When it is false
// foldIDs jumps to mixIDs.
var vectorFold = cpuid.AVX512

// foldIDs is the buffered drains' digest kernel: mixIDs(h, q, ids), eight
// pairs an instruction on the vector tier (fold_amd64.s). Addition mod
// 2^64 commutes, so both tiers return the same value for every input. It
// reads ids[:len(ids)] and nothing past it.
//
//go:noescape
func foldIDs(h uint64, q uint32, ids []uint32) uint64

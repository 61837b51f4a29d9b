package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// checkFoldTiers fails t unless foldIDs returns the digest of MixPair
// once per ID (mixIDs, the definition) on the tier this process runs and
// on the Go loop.
func checkFoldTiers(t *testing.T, h uint64, q uint32, ids []uint32) {
	t.Helper()
	want := mixIDs(h, q, ids)
	if got := foldIDs(h, q, ids); got != want {
		t.Fatalf("foldIDs(%#x, %#x, %d IDs %#x) = %#x, MixPair says %#x (vector tier %v)", h, q, len(ids), ids, got, want, vectorFold)
	}
	scalarFold(func() {
		if got := foldIDs(h, q, ids); got != want {
			t.Fatalf("foldIDs on the Go loop (%#x, %#x, %d IDs) = %#x, MixPair says %#x", h, q, len(ids), got, want)
		}
	})
}

// foldSpecials are the values whose bits a lane mix-up, a sign extension
// or a lost high word would change.
var foldSpecials = []uint32{0, 1, 1 << 31, math.MaxUint32}

// TestFoldIDsMatchesMixPair runs every length from 0 to 80 — every tail
// mask, on its own and behind one to nine full blocks — on both tiers,
// with queriers and IDs drawn from foldSpecials and at random.
func TestFoldIDsMatchesMixPair(t *testing.T) {
	if !vectorFold {
		t.Log("scalar tier only; vector tier absent: " + missingTier)
	}
	rng := rand.New(rand.NewPCG(30, 80))
	qs := append(append([]uint32(nil), foldSpecials...), rng.Uint32(), rng.Uint32())
	fills := []func(i int) uint32{
		func(int) uint32 { return 0 },
		func(int) uint32 { return math.MaxUint32 },
		func(i int) uint32 { return foldSpecials[i%len(foldSpecials)] },
		func(int) uint32 { return rng.Uint32() },
		func(i int) uint32 { return uint32(i) },
	}
	for n := 0; n <= 80; n++ {
		ids := make([]uint32, n)
		for _, fill := range fills {
			for i := range ids {
				ids[i] = fill(i)
			}
			for _, q := range qs {
				for _, h := range []uint64{0, math.MaxUint64, rng.Uint64()} {
					checkFoldTiers(t, h, q, ids)
				}
			}
		}
	}
}

// FuzzFoldIDs holds the two tiers together on fuzzer-chosen digests,
// queriers and ID runs (four bytes an ID, little-endian; a ragged tail
// byte is dropped).
func FuzzFoldIDs(f *testing.F) {
	f.Add(uint64(0), uint32(0), []byte{})
	f.Add(uint64(1), uint32(1<<31), []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0x80, 1, 0, 0, 0})
	f.Add(uint64(math.MaxUint64), uint32(math.MaxUint32), make([]byte, 4*17))
	f.Add(uint64(0x9e3779b97f4a7c15), uint32(12345), []byte("eight pairs an instruction, and a ragged tail"))
	f.Fuzz(func(t *testing.T, h uint64, q uint32, data []byte) {
		ids := make([]uint32, len(data)/4)
		for i := range ids {
			ids[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		checkFoldTiers(t, h, q, ids)
	})
}

var foldSink uint64

// BenchmarkFoldIDs prices foldIDs per call and per pair on both tiers, at
// one full block, two blocks and a one-lane tail, four and eight blocks.
func BenchmarkFoldIDs(b *testing.B) {
	rng := rand.New(rand.NewPCG(8, 17))
	for _, n := range []int{8, 17, 32, 64} {
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = rng.Uint32()
		}
		loop := func(b *testing.B) {
			h := uint64(0)
			for i := 0; b.Loop(); i++ {
				h = foldIDs(h, uint32(i), ids)
			}
			foldSink = h
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/pair")
		}
		b.Run(fmt.Sprintf("n=%d/vector", n), func(b *testing.B) {
			if !vectorFold {
				b.Skip("vector tier absent: " + missingTier)
			}
			loop(b)
		})
		b.Run(fmt.Sprintf("n=%d/scalar", n), func(b *testing.B) { scalarFold(func() { loop(b) }) })
	}
}

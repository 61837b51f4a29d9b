package grid

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/xrand"
)

// FuzzQueryAppendBufferReuse drives the buffered kernels with hostile
// buffer states: non-empty prefixes that must be preserved, buffers
// reused (aliased) across queries and layouts, and QueryBatch scratch
// recycled between calls. The properties checked:
//
//  1. QueryAppend only appends — buf[:len(buf)] is untouched.
//  2. The appended set matches Query's emissions (order-insensitive
//     digest), regardless of the incoming buffer's length or capacity.
//  3. A buffer that has already been through other queries (aliasing
//     the same backing array) never contaminates later results.
func FuzzQueryAppendBufferReuse(f *testing.F) {
	f.Add(uint64(1), uint16(300), float32(0.3), float32(0.4), float32(0.2), uint8(0))
	f.Add(uint64(7), uint16(1000), float32(0.0), float32(0.9), float32(0.8), uint8(4))
	f.Add(uint64(42), uint16(50), float32(0.5), float32(0.5), float32(0.05), uint8(2))
	// Outside the window contract — "whatever Query returns": a NaN corner
	// and an inverted rectangle (negative side), on both CSR layouts.
	nan := float32(math.NaN())
	f.Add(uint64(3), uint16(600), nan, float32(0.5), float32(0.9), uint8(4))
	f.Add(uint64(3), uint16(600), float32(0.5), nan, float32(0.9), uint8(5))
	f.Add(uint64(5), uint16(600), float32(0.5), float32(0.5), nan, uint8(4))
	f.Add(uint64(9), uint16(600), float32(0.5), float32(0.5), float32(-0.7), uint8(4))
	f.Add(uint64(9), uint16(600), float32(0.4), float32(0.6), float32(-0.01), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, qx, qy, qs float32, layoutPick uint8) {
		if n == 0 {
			n = 1
		}
		layouts := []Layout{LayoutLinked, LayoutInline, LayoutInlineXY, LayoutIntrusive, LayoutCSR, LayoutCSRXY}
		lay := layouts[int(layoutPick)%len(layouts)]
		const space = 1000
		bounds := geom.Rect{MaxX: space, MaxY: space}
		rng := xrand.New(seed)
		pts := make([]geom.Point, int(n))
		for i := range pts {
			pts[i] = geom.Point{X: rng.Float32() * space, Y: rng.Float32() * space}
		}
		g := MustNew(Config{Layout: lay, Scan: ScanRange, BS: 8, CPS: 16}, bounds, len(pts))
		g.Build(pts)

		clampQ := func(v float32) float32 {
			if v < 0 {
				v = -v
			}
			for v > 1 {
				v /= 2
			}
			return v
		}
		// A negative side keeps its sign: the window arrives inverted.
		side := clampQ(qs) * space
		if qs < 0 {
			side = -side
		}
		r := geom.Square(geom.Point{X: clampQ(qx) * space, Y: clampQ(qy) * space}, side)

		var want uint64
		wantN := 0
		g.Query(r, func(id uint32) { want = core.MixPair(want, 0, id); wantN++ })

		// A dirty prefix the kernel must preserve verbatim.
		prefix := []uint32{0xdeadbeef, 0xcafebabe, 7}
		buf := make([]uint32, len(prefix), len(prefix)+wantN/2+1)
		copy(buf, prefix)
		buf = g.QueryAppend(r, buf)
		for i, v := range prefix {
			if buf[i] != v {
				t.Fatalf("%s: QueryAppend clobbered buf[%d]: %x, want %x", g.Name(), i, buf[i], v)
			}
		}
		var got uint64
		for _, id := range buf[len(prefix):] {
			got = core.MixPair(got, 0, id)
		}
		if got != want || len(buf)-len(prefix) != wantN {
			t.Fatalf("%s: QueryAppend digest %x (%d ids), Query digest %x (%d ids)",
				g.Name(), got, len(buf)-len(prefix), want, wantN)
		}

		// Reuse the same backing array across a second, different query —
		// stale survivors from the first pass must not leak through.
		r2 := geom.Square(geom.Point{X: clampQ(qy) * space, Y: clampQ(qx) * space}, side/2)
		var want2 uint64
		wantN2 := 0
		g.Query(r2, func(id uint32) { want2 = core.MixPair(want2, 0, id); wantN2++ })
		buf = g.QueryAppend(r2, buf[:0])
		var got2 uint64
		for _, id := range buf {
			got2 = core.MixPair(got2, 0, id)
		}
		if got2 != want2 || len(buf) != wantN2 {
			t.Fatalf("%s: reused-buffer QueryAppend digest %x (%d ids), Query digest %x (%d ids)",
				g.Name(), got2, len(buf), want2, wantN2)
		}

		// QueryBatch over both rects with recycled scratch must agree with
		// the per-query kernels.
		offsets, flat := core.QueryBatchOf(g, g.Query)([]geom.Rect{r, r2}, nil, buf[:0])
		var b1, b2 uint64
		for _, id := range flat[offsets[0]:offsets[1]] {
			b1 = core.MixPair(b1, 0, id)
		}
		for _, id := range flat[offsets[1]:offsets[2]] {
			b2 = core.MixPair(b2, 0, id)
		}
		if b1 != want || b2 != want2 {
			t.Fatalf("%s: QueryBatch digests %x/%x, want %x/%x", g.Name(), b1, b2, want, want2)
		}
	})
}

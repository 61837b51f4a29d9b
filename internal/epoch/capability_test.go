package epoch

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/xrand"
)

// The epoch wrapper publishes immutable snapshots, so its buffered
// kernel has an extended shape — QueryAppend additionally reports the
// (epoch, digest) the scan observed. These tests pin the capability at
// runtime (the wrapper must remain a core.EpochQueryAppender behind the
// core.EpochIndex / core.EpochBoxIndex contracts), check that the
// buffered scan sees the same result set AND the same epoch pin as the
// callback scan, and hold the zero-allocation promise at steady state
// wherever the inner has a native buffered kernel (the callback-only
// families answer through core.QueryAppendOf's adapter, which allocates).

func capabilityRects(r *xrand.Rand, n int, ext float32) []geom.Rect {
	rects := make([]geom.Rect, n)
	for i := range rects {
		c := geom.Pt(r.Float32()*testBounds.MaxX, r.Float32()*testBounds.MaxY)
		rects[i] = geom.Square(c, ext)
	}
	return rects
}

func assertEpochAppendAgrees(t *testing.T, name string,
	query func(r geom.Rect, emit func(id uint32)) (uint64, uint64),
	queryAppend func(r geom.Rect, buf []uint32) ([]uint32, uint64, uint64),
	rects []geom.Rect, native bool) {
	t.Helper()
	var buf []uint32
	for i, r := range rects {
		var want uint64
		wantN := 0
		wantEp, wantDg := query(r, func(id uint32) { want = core.MixPair(want, 0, id); wantN++ })
		var ep, dg uint64
		buf, ep, dg = queryAppend(r, buf[:0])
		var got uint64
		for _, id := range buf {
			got = core.MixPair(got, 0, id)
		}
		if got != want || len(buf) != wantN {
			t.Fatalf("%s query %d: QueryAppend digest %x (%d ids), Query digest %x (%d ids)",
				name, i, got, len(buf), want, wantN)
		}
		if ep != wantEp || dg != wantDg {
			t.Fatalf("%s query %d: QueryAppend observed epoch %d/%x, Query observed %d/%x",
				name, i, ep, dg, wantEp, wantDg)
		}
	}

	if !native {
		return
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		buf, _, _ = queryAppend(rects[i%len(rects)], buf[:0])
		i++
	})
	if allocs != 0 {
		t.Errorf("%s: QueryAppend allocates %.1f times per query at steady state, want 0", name, allocs)
	}
}

func TestIndexForwardsEpochQueryAppender(t *testing.T) {
	const n = 2000
	r := xrand.New(21)
	for name, mk := range pointFamilies(n) {
		t.Run(name, func(t *testing.T) {
			var x core.EpochIndex = NewIndex(mk, Options{})
			qa, ok := x.(core.EpochQueryAppender)
			if !ok {
				t.Fatalf("%T does not forward core.EpochQueryAppender", x)
			}
			pts := randomPoints(r, n)
			x.Build(pts)
			// A published batch moves the epoch off zero, so the
			// observation check is not vacuous.
			if _, err := x.ApplyBatch(randomMoves(r, pts, 200)); err != nil {
				t.Fatal(err)
			}
			_, native := mk().(core.QueryAppender)
			assertEpochAppendAgrees(t, x.Name(), x.Query, qa.QueryAppend, capabilityRects(r, 40, 120), native)
		})
	}
}

func TestBoxIndexForwardsEpochQueryAppender(t *testing.T) {
	const n = 2000
	r := xrand.New(22)
	for name, mk := range boxFamilies(n) {
		t.Run(name, func(t *testing.T) {
			var x core.EpochBoxIndex = NewBoxIndex(mk, Options{})
			qa, ok := x.(core.EpochQueryAppender)
			if !ok {
				t.Fatalf("%T does not forward core.EpochQueryAppender", x)
			}
			boxes := randomBoxes(r, n)
			x.Build(boxes)
			if _, err := x.ApplyBatch(randomBoxMoves(r, boxes, 200)); err != nil {
				t.Fatal(err)
			}
			assertEpochAppendAgrees(t, x.Name(), x.Query, qa.QueryAppend, capabilityRects(r, 40, 120), true)
		})
	}
}

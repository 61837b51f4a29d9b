package shard

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

// The buffered-kernel capabilities are optional interfaces, so a
// wrapper that forgets to forward them silently downgrades every query
// to the per-result callback path — correct, but the exact slowdown
// this PR removes. These tests pin the forwarding at runtime: the
// engines must still satisfy the capabilities after construction, and
// the forwarded kernels must report the brute-force oracle's result sets.

func TestPointEngineCapabilities(t *testing.T) {
	cfg := testPointConfig()
	p := core.Params{Bounds: cfg.Bounds(), NumPoints: cfg.NumPoints}
	var idx core.Index = New(p, 2)
	if _, ok := idx.(core.QueryAppender); !ok {
		t.Fatalf("%T does not forward core.QueryAppender", idx)
	}

	gen := workload.MustNewGenerator(cfg)
	pts := gen.Positions(nil)
	idx.Build(pts)
	oracle := core.NewBruteForce()
	oracle.Build(pts)
	rects := queryRects(gen.Queriers(), gen.QueryRect)
	assertMatchesOracle(t, "shard.Index", oracle.QueryAppend, idx.(core.QueryAppender).QueryAppend, rects)
	assertZeroAllocSteadyState(t, "shard.Index", idx.(core.QueryAppender).QueryAppend, rects)
}

func TestBoxEngineCapabilities(t *testing.T) {
	cfg := testBoxConfig()
	p := core.Params{Bounds: cfg.Bounds(), NumPoints: cfg.NumPoints}
	var idx core.BoxIndex = NewBox(p, 2)
	if _, ok := idx.(core.QueryAppender); !ok {
		t.Fatalf("%T does not forward core.QueryAppender", idx)
	}

	gen := workload.MustNewBoxGenerator(cfg)
	boxes := gen.Rects(nil)
	idx.Build(boxes)
	oracle := core.NewBruteForceBoxes()
	oracle.Build(boxes)
	rects := queryRects(gen.Queriers(), gen.QueryRect)
	assertMatchesOracle(t, "shard.BoxIndex", oracle.QueryAppend, idx.(core.QueryAppender).QueryAppend, rects)
	assertZeroAllocSteadyState(t, "shard.BoxIndex", idx.(core.QueryAppender).QueryAppend, rects)
}

func queryRects(queriers []uint32, rectOf func(id uint32) geom.Rect) []geom.Rect {
	rects := make([]geom.Rect, len(queriers))
	for i, q := range queriers {
		rects[i] = rectOf(q)
	}
	return rects
}

// assertMatchesOracle folds the kernel's and the oracle's result sets
// into order-insensitive digests and demands equality per query.
func assertMatchesOracle(t *testing.T, name string,
	oracle, queryAppend func(r geom.Rect, buf []uint32) []uint32,
	rects []geom.Rect) {
	t.Helper()
	var buf, want []uint32
	for i, r := range rects {
		want = oracle(r, want[:0])
		buf = queryAppend(r, buf[:0])
		if got, wantD := digest(buf), digest(want); got != wantD || len(buf) != len(want) {
			t.Fatalf("%s query %d: QueryAppend digest %x (%d ids), oracle digest %x (%d ids)",
				name, i, got, len(buf), wantD, len(want))
		}
	}
}

// digest folds ids order-insensitively.
func digest(ids []uint32) uint64 {
	var d uint64
	for _, id := range ids {
		d = core.MixPair(d, 0, id)
	}
	return d
}

// assertZeroAllocSteadyState warms the reused buffer to the workload's
// high-water mark, then requires allocation-free queries.
func assertZeroAllocSteadyState(t *testing.T, name string,
	queryAppend func(r geom.Rect, buf []uint32) []uint32, rects []geom.Rect) {
	t.Helper()
	var buf []uint32
	for _, r := range rects {
		buf = queryAppend(r, buf[:0])
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		buf = queryAppend(rects[i%len(rects)], buf[:0])
		i++
	})
	if allocs != 0 {
		t.Errorf("%s: QueryAppend allocates %.1f times per query at steady state, want 0", name, allocs)
	}
}

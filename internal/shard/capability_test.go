package shard

import (
	"testing"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/geom"
	"repro/internal/workload"
)

// The buffered-kernel capabilities are optional interfaces, so a
// wrapper that forgets to forward them silently downgrades every query
// to the per-result callback path — correct, but the exact slowdown
// this PR removes. These tests pin the forwarding at runtime: the
// engines must still satisfy the capabilities after construction, and
// the forwarded kernels must report the same result sets as Query.

func TestPointEngineCapabilities(t *testing.T) {
	cfg := testPointConfig()
	p := core.Params{Bounds: cfg.Bounds(), NumPoints: cfg.NumPoints}
	var idx core.Index = New(p, 2)
	if _, ok := idx.(core.QueryAppender); !ok {
		t.Fatalf("%T does not forward core.QueryAppender", idx)
	}

	gen := workload.MustNewGenerator(cfg)
	idx.Build(gen.Positions(nil))
	rects := queryRects(gen.Queriers(), gen.QueryRect)
	assertKernelsAgree(t, "shard.Index", idx.Query, idx.(core.QueryAppender).QueryAppend, rects)
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
	idx.Build(gen.Rects(nil))
	rects := queryRects(gen.Queriers(), gen.QueryRect)
	assertKernelsAgree(t, "shard.BoxIndex", idx.Query, idx.(core.QueryAppender).QueryAppend, rects)
	assertZeroAllocSteadyState(t, "shard.BoxIndex", idx.(core.QueryAppender).QueryAppend, rects)
}

// The concurrent engines report per-shard (epoch, digest) observations,
// so their buffered kernel is the sharded-epoch flavour, not the plain
// QueryAppender.
func TestConcurrentEngineCapabilities(t *testing.T) {
	cfg := testPointConfig()
	p := core.Params{Bounds: cfg.Bounds(), NumPoints: cfg.NumPoints, Shards: 2}
	var c core.ShardedEpochIndex = NewConcurrent(p, epoch.Options{})
	qa, ok := c.(core.ShardedEpochQueryAppender)
	if !ok {
		t.Fatalf("%T does not forward core.ShardedEpochQueryAppender", c)
	}

	gen := workload.MustNewGenerator(cfg)
	c.Build(gen.Positions(nil))
	rects := queryRects(gen.Queriers(), gen.QueryRect)
	emitQ := func(r geom.Rect, emit func(id uint32)) {
		c.Query(r, emit, observeNop)
	}
	appendQ := func(r geom.Rect, buf []uint32) []uint32 {
		return qa.QueryAppend(r, buf, observeNop)
	}
	assertKernelsAgree(t, "shard.Concurrent", emitQ, appendQ, rects)
	assertZeroAllocSteadyState(t, "shard.Concurrent", appendQ, rects)
}

func TestBoxConcurrentEngineCapabilities(t *testing.T) {
	cfg := testBoxConfig()
	p := core.Params{Bounds: cfg.Bounds(), NumPoints: cfg.NumPoints, Shards: 2}
	var c core.ShardedEpochBoxIndex = NewBoxConcurrent(p, epoch.Options{})
	qa, ok := c.(core.ShardedEpochQueryAppender)
	if !ok {
		t.Fatalf("%T does not forward core.ShardedEpochQueryAppender", c)
	}

	gen := workload.MustNewBoxGenerator(cfg)
	c.Build(gen.Rects(nil))
	rects := queryRects(gen.Queriers(), gen.QueryRect)
	emitQ := func(r geom.Rect, emit func(id uint32)) {
		c.Query(r, emit, observeNop)
	}
	appendQ := func(r geom.Rect, buf []uint32) []uint32 {
		return qa.QueryAppend(r, buf, observeNop)
	}
	assertKernelsAgree(t, "shard.BoxConcurrent", emitQ, appendQ, rects)
	assertZeroAllocSteadyState(t, "shard.BoxConcurrent", appendQ, rects)
}

func observeNop(shard int, epoch, digest uint64) {}

func queryRects(queriers []uint32, rectOf func(id uint32) geom.Rect) []geom.Rect {
	rects := make([]geom.Rect, len(queriers))
	for i, q := range queriers {
		rects[i] = rectOf(q)
	}
	return rects
}

// assertKernelsAgree folds both kernels' result sets into
// order-insensitive digests and demands equality per query.
func assertKernelsAgree(t *testing.T, name string,
	query func(r geom.Rect, emit func(id uint32)),
	queryAppend func(r geom.Rect, buf []uint32) []uint32,
	rects []geom.Rect) {
	t.Helper()
	var buf []uint32
	for i, r := range rects {
		var want uint64
		wantN := 0
		query(r, func(id uint32) { want = core.MixPair(want, 0, id); wantN++ })
		buf = queryAppend(r, buf[:0])
		var got uint64
		for _, id := range buf {
			got = core.MixPair(got, 0, id)
		}
		if got != want || len(buf) != wantN {
			t.Fatalf("%s query %d: QueryAppend digest %x (%d ids), Query digest %x (%d ids)",
				name, i, got, len(buf), want, wantN)
		}
	}
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

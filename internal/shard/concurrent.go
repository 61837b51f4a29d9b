package shard

import (
	"errors"
	"runtime"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/geom"
	"repro/internal/obs"
)

// The epoch compositions satisfy the sharded concurrent driver's
// contracts.
var (
	_ core.ShardedEpochIndex         = (*Concurrent)(nil)
	_ core.ShardedEpochBoxIndex      = (*BoxConcurrent)(nil)
	_ core.ShardedEpochQueryAppender = (*Concurrent)(nil)
	_ core.ShardedEpochQueryAppender = (*BoxConcurrent)(nil)
)

// publication is one region's epoch wrapper: epoch.Index over points,
// epoch.BoxIndex over MBRs.
type publication[P any, M any] interface {
	Build(all []P)
	ApplyBatch(moves []M) (uint64, error)
	Query(r geom.Rect, emit func(id uint32)) (epoch, digest uint64)
	QueryAppend(r geom.Rect, buf []uint32) ([]uint32, uint64, uint64)
	Epoch() (uint64, uint64)
	Stats() epoch.Stats
	Instrument(r *obs.Registry)
}

// conc is the region-sharded engine for the concurrent
// (queries-during-updates) regime: every region is wrapped in its own
// epoch publication, so shards validate, publish, and degrade
// independently — an injected fault poisons one region's publish while
// the other shards keep advancing, and the per-shard publish barrier
// replaces one global stop-the-world swap. It embeds the same routing as
// the stop-the-world router: queries walk the same lattice span and
// report each shard's (epoch, digest) observation for the driver's
// per-shard oracle check, moves route by the same union of spans, and
// replicated geometries dedup inside each region's standalone Query.
type conc[P comparable, M moveOf[P]] struct {
	routing[P, M]
	opts epoch.Options
	// publish wraps a region factory in the geometry's epoch wrapper.
	publish func(newRegion func() *region[P], opts epoch.Options) publication[P, M]
	shards  []publication[P, M]
	reg     *obs.Registry
	errs    []error
}

// Concurrent is the per-region-epoch composition over points.
type Concurrent struct {
	conc[geom.Point, geom.Move]
}

// BoxConcurrent is the per-region-epoch composition over MBRs.
type BoxConcurrent struct {
	conc[geom.Rect, geom.BoxMove]
}

// NewConcurrent builds the sharded epoch composition. side comes from
// p.Shards; 0 defers to the tune shard-count ladder at Build.
func NewConcurrent(p core.Params, opts epoch.Options) *Concurrent {
	return &Concurrent{conc[geom.Point, geom.Move]{
		routing: newRouting[geom.Point, geom.Move](pointGeo, p, p.Shards),
		opts:    opts,
		publish: func(newRegion func() *region[geom.Point], opts epoch.Options) publication[geom.Point, geom.Move] {
			return epoch.NewIndex(func() core.Index { return newRegion() }, opts)
		},
	}}
}

// NewBoxConcurrent builds the sharded box epoch composition. side comes
// from p.Shards; 0 defers to the tune shard-count ladder at Build.
func NewBoxConcurrent(p core.Params, opts epoch.Options) *BoxConcurrent {
	return &BoxConcurrent{conc[geom.Rect, geom.BoxMove]{
		routing: newRouting[geom.Rect, geom.BoxMove](boxGeo, p, p.Shards),
		opts:    opts,
		publish: func(newRegion func() *region[geom.Rect], opts epoch.Options) publication[geom.Rect, geom.BoxMove] {
			return epoch.NewBoxIndex(func() core.BoxIndex { return newRegion() }, opts)
		},
	}}
}

// Name implements core.ShardedEpochIndex.
func (x *conc[P, M]) Name() string { return "epoch(" + x.name() + ")" }

// NumShards implements core.ShardedEpochIndex (valid after Build).
func (x *conc[P, M]) NumShards() int { return len(x.shards) }

// Build implements core.ShardedEpochIndex: each region's epoch wrapper
// builds over the FULL snapshot (the region self-scans for its
// members), in parallel across shards.
func (x *conc[P, M]) Build(all []P) {
	if x.settle(all) {
		x.shards = make([]publication[P, M], len(x.batches))
		for i := range x.shards {
			x.shards[i] = x.publish(func() *region[P] { return newRegion(&x.env, i) }, x.opts)
			x.shards[i].Instrument(x.reg)
		}
		x.errs = make([]error, len(x.shards))
	}
	forEachStealing(len(x.shards), runtime.GOMAXPROCS(0), func(i int) {
		x.shards[i].Build(all)
	})
}

// ApplyBatch implements core.ShardedEpochIndex: moves route to the
// shards they concern, then the affected shards apply and publish in
// parallel. A shard with no routed moves skips the tick entirely — its
// live epoch stays valid. On error the OTHER shards still published;
// the driver records every shard's epoch after every tick and merges
// the whole batch into the next tick, which is safe because regions
// treat replayed moves as no-ops (the id table, not the passed old
// geometry, is the authority).
func (x *conc[P, M]) ApplyBatch(moves []M) error {
	x.route(moves)
	forEachStealing(len(x.shards), runtime.GOMAXPROCS(0), func(i int) {
		x.errs[i] = nil
		if len(x.batches[i]) > 0 {
			_, x.errs[i] = x.shards[i].ApplyBatch(x.batches[i])
		}
	})
	return errors.Join(x.errs...)
}

// Query implements core.ShardedEpochIndex: fan out to the overlapped
// regions, reporting each shard's (epoch, digest) observation. Shard
// results are disjoint (by membership, or by boundary ownership where
// replicas straddle shards), so the merged stream is duplicate-free.
func (x *conc[P, M]) Query(r geom.Rect, emit func(id uint32), observe func(shard int, epoch, digest uint64)) {
	s := x.lat.spanOf(r)
	x.ins.fanout.Record(int64(s.cells()))
	for w := s.walk(); w.more(); w = w.next() {
		sid := x.lat.id(w.cx, w.cy)
		ep, dg := x.shards[sid].Query(r, emit)
		observe(sid, ep, dg)
	}
}

// QueryAppend implements core.ShardedEpochQueryAppender: the buffered
// fan-out. Each shard's contribution appends under that shard's epoch
// pin, with its (epoch, digest) observation reported through observe.
func (x *conc[P, M]) QueryAppend(r geom.Rect, buf []uint32, observe func(shard int, epoch, digest uint64)) []uint32 {
	s := x.lat.spanOf(r)
	x.ins.fanout.Record(int64(s.cells()))
	for w := s.walk(); w.more(); w = w.next() {
		sid := x.lat.id(w.cx, w.cy)
		var ep, dg uint64
		buf, ep, dg = x.shards[sid].QueryAppend(r, buf)
		observe(sid, ep, dg)
	}
	return buf
}

// ShardEpoch implements core.ShardedEpochIndex: shard i's live epoch
// number and digest.
func (x *conc[P, M]) ShardEpoch(i int) (uint64, uint64) { return x.shards[i].Epoch() }

// Composite folds the live per-shard digests into one engine-level
// digest (position-salted, so swapped shard states change it).
func (x *conc[P, M]) Composite() uint64 {
	parts := make([]uint64, len(x.shards))
	for i, sh := range x.shards {
		_, parts[i] = sh.Epoch()
	}
	return epoch.CompositeDigest(parts)
}

// Stats implements core.ShardedEpochIndex: lifecycle counters summed
// across shards.
func (x *conc[P, M]) Stats() core.EpochStats {
	var t core.EpochStats
	for _, sh := range x.shards {
		s := sh.Stats()
		t.Epochs += s.Epochs
		t.Degraded += s.Degraded
		t.Retries += s.Retries
		t.PanicsContained += s.PanicsContained
	}
	return t
}

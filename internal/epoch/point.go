package epoch

import (
	"repro/internal/core"
	"repro/internal/geom"
)

// The wrappers satisfy the concurrent driver's contracts.
var (
	_ core.EpochIndex         = (*Index)(nil)
	_ core.EpochBoxIndex      = (*BoxIndex)(nil)
	_ core.Counter            = (*Index)(nil)
	_ core.Counter            = (*BoxIndex)(nil)
	_ core.EpochQueryAppender = (*Index)(nil)
	_ core.EpochQueryAppender = (*BoxIndex)(nil)
)

// Index is the epoch-published wrapper around a point index: a
// core.Index whose queries drain lock-free on the live epoch while
// ApplyBatch maintains the shadow. See the package comment for the
// protocol.
type Index struct {
	pub[geom.Point, geom.Move]
	newInner func() core.Index
}

// NewIndex wraps the point index family produced by newInner. The
// factory is invoked once per buffer at Build — the two buffers need
// independent inner indexes — so it must return fresh instances, as all
// core.Factory implementations do.
func NewIndex(newInner func() core.Index, opts Options) *Index {
	x := &Index{newInner: newInner}
	x.opts = opts.withDefaults()
	x.ins = newIns()
	x.moveID = func(m geom.Move) uint32 { return m.ID }
	x.moveNew = func(m geom.Move) geom.Point { return m.New }
	x.fold = FoldMoves
	x.probePresent = func(b *buffer[geom.Point], m geom.Move) bool {
		// A region shard that does not own the new position sees an
		// emigration: the id must be GONE from its results there.
		owned := b.ops.owns == nil || b.ops.owns(m.New)
		return b.holds(m.New.Rect(), m.ID) == owned
	}
	x.probeAbsent = func(b *buffer[geom.Point], m geom.Move) bool {
		return m.Old == m.New || !b.holds(m.Old.Rect(), m.ID)
	}
	return x
}

// PointOwner is implemented by region-sharded point indexes
// (internal/shard): the index holds and reports only the objects whose
// position falls in its region, so the wrapper's membership probes must
// condition presence on ownership of the probed position.
type PointOwner interface {
	OwnsPoint(p geom.Point) bool
}

func newPointBuffer(idx core.Index, n int) *buffer[geom.Point] {
	b := &buffer[geom.Point]{snap: make([]geom.Point, n)}
	b.ops = indexOps[geom.Point]{
		name:        idx.Name,
		build:       idx.Build,
		update:      idx.Update,
		query:       idx.Query,
		queryAppend: core.QueryAppendOf(idx, idx.Query),
	}
	if c, ok := idx.(core.Counter); ok {
		b.ops.length = c.Len
	} else {
		b.ops.length = func() int { return len(b.snap) }
	}
	if ic, ok := idx.(core.InvariantChecker); ok {
		b.ops.check = ic.CheckInvariants
	}
	if ro, ok := idx.(PointOwner); ok {
		b.ops.owns = ro.OwnsPoint
	}
	return b
}

// Name reports the wrapped family ("epoch(...)" around the inner name,
// once a Build has instantiated it).
func (x *Index) Name() string {
	if b := x.live.Load(); b != nil {
		return "epoch(" + b.ops.name() + ")"
	}
	return "epoch"
}

// Build initializes both buffers from the snapshot and publishes
// epoch 0. Each buffer copies pts into its own private snapshot, so the
// caller's slice is never aliased by a published epoch.
func (x *Index) Build(pts []geom.Point) {
	a := newPointBuffer(x.newInner(), len(pts))
	b := newPointBuffer(x.newInner(), len(pts))
	copy(a.snap, pts)
	copy(b.snap, pts)
	x.build(a, b, SnapshotDigestPoints(pts))
}

// ApplyBatch applies one tick of moves to the shadow and publishes it,
// returning the new epoch. On error the batch is NOT applied: the last
// good epoch keeps serving, and the caller may merge the batch into the
// next tick's ApplyBatch (the wrapper sources each move's old position
// from its own snapshot, so merged batches replay safely).
func (x *Index) ApplyBatch(moves []geom.Move) (uint64, error) {
	return x.applyBatch(moves)
}

// Query implements core.EpochIndex: one lock-free probe on the live
// epoch, returning the epoch number and consistency digest it observed.
func (x *Index) Query(r geom.Rect, emit func(id uint32)) (uint64, uint64) {
	return x.query(r, emit)
}

// QueryAppend implements core.EpochQueryAppender: the buffered variant
// of Query. The whole inner scan runs under one epoch pin, so buf holds
// a consistent single-epoch result set.
func (x *Index) QueryAppend(r geom.Rect, buf []uint32) ([]uint32, uint64, uint64) {
	return x.queryAppend(r, buf)
}

// Epoch returns the live epoch number and digest.
func (x *Index) Epoch() (uint64, uint64) { return x.epochNow() }

// Stats returns the lifecycle counters.
func (x *Index) Stats() Stats { return x.stats() }

// Len implements core.Counter for the live epoch.
func (x *Index) Len() int {
	b := x.pin()
	if b == nil {
		return 0
	}
	defer b.active.Add(-1)
	return b.ops.length()
}

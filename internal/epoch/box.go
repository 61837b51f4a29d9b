package epoch

import (
	"repro/internal/core"
	"repro/internal/geom"
)

// BoxIndex is the epoch-published wrapper around a box (MBR) index —
// Index's counterpart over core.BoxIndex. See the package comment for
// the protocol.
type BoxIndex struct {
	pub[geom.Rect, geom.BoxMove]
	newInner func() core.BoxIndex
}

// NewBoxIndex wraps the box index family produced by newInner. The
// factory is invoked once per buffer at Build, so it must return fresh
// instances.
func NewBoxIndex(newInner func() core.BoxIndex, opts Options) *BoxIndex {
	x := &BoxIndex{newInner: newInner}
	x.opts = opts.withDefaults()
	x.ins = newIns()
	x.moveID = func(m geom.BoxMove) uint32 { return m.ID }
	x.moveNew = func(m geom.BoxMove) geom.Rect { return m.New }
	x.fold = FoldBoxMoves
	x.probePresent = func(b *buffer[geom.Rect], m geom.BoxMove) bool {
		// A region shard that is not the reference owner of the new
		// rectangle must NOT report the id for a self-query (the shard
		// owning the reference point does).
		owned := b.ops.owns == nil || b.ops.owns(m.New)
		return b.holds(m.New, m.ID) == owned
	}
	// Absence at the old rectangle is only assertable when old and new
	// are disjoint: an intersecting query cannot distinguish "still
	// stored at old" from "stored at new, which also intersects old".
	x.probeAbsent = func(b *buffer[geom.Rect], m geom.BoxMove) bool {
		return m.Old.Intersects(m.New) || !b.holds(m.Old, m.ID)
	}
	return x
}

// RectOwner is implemented by region-sharded box indexes
// (internal/shard): replicas exist in every overlapped shard but only
// the shard owning the reference point of a self-query (the rectangle's
// min corner) reports the object, so the wrapper's membership probes
// must condition presence on that ownership.
type RectOwner interface {
	OwnsRect(r geom.Rect) bool
}

func newBoxBuffer(idx core.BoxIndex, n int) *buffer[geom.Rect] {
	b := &buffer[geom.Rect]{snap: make([]geom.Rect, n)}
	b.ops = indexOps[geom.Rect]{
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
	if ro, ok := idx.(RectOwner); ok {
		b.ops.owns = ro.OwnsRect
	}
	return b
}

// Name reports the wrapped family.
func (x *BoxIndex) Name() string {
	if b := x.live.Load(); b != nil {
		return "epoch(" + b.ops.name() + ")"
	}
	return "epoch"
}

// Build initializes both buffers from the snapshot and publishes
// epoch 0.
func (x *BoxIndex) Build(rects []geom.Rect) {
	a := newBoxBuffer(x.newInner(), len(rects))
	b := newBoxBuffer(x.newInner(), len(rects))
	copy(a.snap, rects)
	copy(b.snap, rects)
	x.build(a, b, SnapshotDigestBoxes(rects))
}

// ApplyBatch applies one tick of box moves to the shadow and publishes
// it, returning the new epoch. Error semantics match Index.ApplyBatch.
func (x *BoxIndex) ApplyBatch(moves []geom.BoxMove) (uint64, error) {
	return x.applyBatch(moves)
}

// Query implements core.EpochBoxIndex: one lock-free probe on the live
// epoch, returning the epoch number and consistency digest it observed.
func (x *BoxIndex) Query(r geom.Rect, emit func(id uint32)) (uint64, uint64) {
	return x.query(r, emit)
}

// QueryAppend implements core.EpochQueryAppender: the buffered variant
// of Query, scanning under one epoch pin.
func (x *BoxIndex) QueryAppend(r geom.Rect, buf []uint32) ([]uint32, uint64, uint64) {
	return x.queryAppend(r, buf)
}

// Epoch returns the live epoch number and digest.
func (x *BoxIndex) Epoch() (uint64, uint64) { return x.epochNow() }

// Stats returns the lifecycle counters.
func (x *BoxIndex) Stats() Stats { return x.stats() }

// Len implements core.Counter for the live epoch.
func (x *BoxIndex) Len() int {
	b := x.pin()
	if b == nil {
		return 0
	}
	defer b.active.Add(-1)
	return b.ops.length()
}

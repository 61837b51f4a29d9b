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
	_ core.EpochLeaser        = (*Index)(nil)
	_ core.EpochLeaser        = (*BoxIndex)(nil)
)

// Index is the epoch-published wrapper around a point index: queries
// drain lock-free on the live epoch while ApplyBatch maintains the
// shadow. See the package comment for the protocol; every method is
// pub's, written once over the geometry.
type Index struct {
	pub[geom.Point, geom.Move]
}

// BoxIndex is the epoch-published wrapper around a box (MBR) index —
// the same publisher over core.BoxIndex.
type BoxIndex struct {
	pub[geom.Rect, geom.BoxMove]
}

// Owner is implemented by region-sharded indexes (internal/shard): the
// index reports only the objects whose geometry it owns — the points
// inside its region; of the MBR replicas that exist in every overlapped
// shard, only those whose self-query reference point (the rectangle's
// min corner) falls in its region — so the wrapper's membership probes
// must condition presence on that ownership.
type Owner[P any] interface {
	Owns(p P) bool
}

// geo is everything the publisher needs to know about an object
// geometry P moved by M; the two values below are the whole difference
// between Index and BoxIndex.
type geo[P, M any] struct {
	// move unpacks a move record.
	move func(m M) (id uint32, old, new P)
	// window is the query an object with geometry p must answer: its own
	// extent, a point being the degenerate rectangle. The membership
	// probes of validate are written over it, once.
	window func(p P) geom.Rect
	// digest is the epoch-0 digest of a build snapshot and fold chains
	// the epoch digest over one published batch.
	digest func(snap []P) uint64
	fold   func(d uint64, moves []M) uint64
}

var pointGeo = &geo[geom.Point, geom.Move]{
	move:   func(m geom.Move) (uint32, geom.Point, geom.Point) { return m.ID, m.Old, m.New },
	window: geom.Point.Rect,
	digest: SnapshotDigestPoints,
	fold:   FoldMoves,
}

var boxGeo = &geo[geom.Rect, geom.BoxMove]{
	move:   func(m geom.BoxMove) (uint32, geom.Rect, geom.Rect) { return m.ID, m.Old, m.New },
	window: func(r geom.Rect) geom.Rect { return r },
	digest: SnapshotDigestBoxes,
	fold:   FoldBoxMoves,
}

// NewIndex wraps the point index family produced by newInner. The
// factory is invoked once per buffer at Build — the two buffers need
// independent inner indexes — so it must return fresh instances, as all
// core.Factory implementations do.
func NewIndex(newInner func() core.Index, opts Options) *Index {
	x := &Index{}
	x.init(pointGeo, newInner, opts)
	return x
}

// NewBoxIndex wraps the box index family produced by newInner, under
// NewIndex's fresh-instance rule.
func NewBoxIndex(newInner func() core.BoxIndex, opts Options) *BoxIndex {
	x := &BoxIndex{}
	x.init(boxGeo, newInner, opts)
	return x
}

package shard

import (
	"fmt"
	"runtime"

	"repro/internal/callback"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/parutil"
	"repro/internal/tune"
)

// The routers satisfy the full optional-capability surface so the
// drivers' parallel paths engage.
var (
	_ core.Index              = (*Index)(nil)
	_ core.ParallelBuilder    = (*Index)(nil)
	_ core.BoxIndex           = (*BoxIndex)(nil)
	_ core.BoxParallelBuilder = (*BoxIndex)(nil)
	_ core.Counter            = (*Index)(nil)
	_ core.MemoryReporter     = (*Index)(nil)
	_ core.InvariantChecker   = (*Index)(nil)
	_ core.QueryAppender      = (*Index)(nil)
)

// router is the region-sharded engine: the lattice (fixed at the first
// build) and the regions over it, behind the core.Index / core.BoxIndex
// contract of its geometry. See the package comment for the ownership,
// routing, and merge rules.
type router[P comparable] struct {
	env[P]
	bounds geom.Rect
	side   int // 0 until the ladder picks at first build (auto mode)
	regs   []*region[P]
	n      int // the population of the last build

	members [][]uint32 // per-region build routing scratch
	fanned  [][]uint32 // per-worker x per-region parallel routing scratch
}

func newRouter[P comparable](g *geo[P], p core.Params, side int) router[P] {
	return router[P]{env: env[P]{geo: g, hints: p.Hints}, bounds: p.Bounds, side: side}
}

// Side returns the region-grid side (0 before an auto first build).
func (x *router[P]) Side() int { return x.side }

// Name implements core.Index.
func (x *router[P]) Name() string {
	if x.side < 1 {
		return x.geo.prefix + "shard[auto]"
	}
	return fmt.Sprintf("%sshard[%dx%d]", x.geo.prefix, x.side, x.side)
}

// settle fixes the lattice on the first snapshot, running the
// shard-count ladder over it when the side was not requested
// explicitly, and allocates the regions.
func (x *router[P]) settle(all []P) {
	if x.regs != nil {
		return
	}
	if x.side < 1 {
		st := x.geo.sample(all, x.bounds, x.hints)
		x.side = tune.ChooseShardSide(st, runtime.GOMAXPROCS(0))
	}
	x.lat = newLattice(x.bounds, x.side)
	x.ins.side.Set(int64(x.side))
	x.regs = make([]*region[P], x.side*x.side)
	for i := range x.regs {
		x.regs[i] = newRegion(&x.env, i)
	}
	x.members = make([][]uint32, len(x.regs))
}

// Index is the region-sharded point engine.
type Index struct {
	router[geom.Point]
}

// BoxIndex is the region-sharded box engine: replica-based membership
// and boundary-ownership dedup.
type BoxIndex struct {
	router[geom.Rect]
}

// New constructs a sharded point engine with an explicit region-grid
// side (>= 1).
func New(p core.Params, side int) *Index {
	return &Index{newRouter(pointGeo, p, max(side, 1))}
}

// NewAuto constructs a sharded point engine whose region-grid side is
// chosen by the tune shard-count ladder: from p.Shards when set, else
// from the first build snapshot's sampled statistics.
func NewAuto(p core.Params) *Index {
	return &Index{newRouter(pointGeo, p, p.Shards)}
}

// AutoFactory is the core.Factory for NewAuto (lineup key "shard-auto").
func AutoFactory(p core.Params) core.Index { return NewAuto(p) }

// NewBox constructs a sharded box engine with an explicit region-grid
// side (>= 1).
func NewBox(p core.Params, side int) *BoxIndex {
	return newBoxIndex(p, max(side, 1))
}

// AutoBoxFactory is the core.BoxFactory of lineup key "boxshard-auto":
// a sharded box engine whose region-grid side is chosen by the tune
// shard-count ladder (p.Shards overrides).
func AutoBoxFactory(p core.Params) core.BoxIndex { return newBoxIndex(p, p.Shards) }

// newBoxIndex forces tune's calibration, which the regions' box choice
// reads, so it runs at construction and outside any timed region.
func newBoxIndex(p core.Params, side int) *BoxIndex {
	tune.Calibrate()
	return &BoxIndex{newRouter(boxGeo, p, side)}
}

// RegionInfo is one region's population and tuning choice, for
// reporting.
type RegionInfo struct {
	CX, CY int
	Frame  geom.Rect
	Live   int
	Choice tune.Choice
}

// Regions returns per-region population and tuning choices (valid after
// the first build).
func (x *router[P]) Regions() []RegionInfo {
	out := make([]RegionInfo, 0, len(x.regs))
	for _, s := range x.regs {
		out = append(out, RegionInfo{CX: int(s.cx), CY: int(s.cy), Frame: s.frame, Live: len(s.items), Choice: s.choice})
	}
	return out
}

// Build implements core.Index: one routing pass partitions the snapshot
// by region (an object is listed in every region of its span), then
// each region builds its arena and inner index.
func (x *router[P]) Build(all []P) { x.buildWith(all, 1) }

// BuildParallel implements core.ParallelBuilder: regions are striped
// across workers with work-stealing. Region builds are independent and
// deterministic, so the result is identical to Build.
func (x *router[P]) BuildParallel(all []P, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	x.buildWith(all, workers)
}

// spread appends each id in [lo, hi) to the list of every region of its
// object's span.
func (x *router[P]) spread(all []P, lo, hi int, lists [][]uint32) {
	for i := range lists {
		lists[i] = lists[i][:0]
	}
	for id := lo; id < hi; id++ {
		for w := x.geo.span(&x.lat, all[id]).walk(); w.more(); w = w.next() {
			sid := x.lat.id(w.cx, w.cy)
			lists[sid] = append(lists[sid], uint32(id))
		}
	}
}

func (x *router[P]) buildWith(all []P, workers int) {
	x.settle(all)
	x.n = len(all)
	nr := len(x.regs)
	if workers <= 1 || nr == 1 || len(all) < 8192 {
		x.spread(all, 0, len(all), x.members)
		forEachStealing(nr, workers, func(i int) { x.regs[i].buildMembers(all, x.members[i]) })
		return
	}
	// Route in parallel: each worker spreads one contiguous chunk of the
	// snapshot into private per-region sublists, then each region
	// concatenates its sublists in worker order — preserving the
	// sequential path's global id order, so the result (and every
	// downstream digest) is identical to Build.
	if len(x.fanned) != workers*nr {
		x.fanned = make([][]uint32, workers*nr)
	}
	chunk := (len(all) + workers - 1) / workers
	var g parutil.Group
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, len(all))
		sub := x.fanned[w*nr : (w+1)*nr]
		g.Go(func() { x.spread(all, lo, hi, sub) })
	}
	g.Wait()
	forEachStealing(nr, workers, func(i int) {
		m := x.members[i][:0]
		for w := 0; w < workers; w++ {
			m = append(m, x.fanned[w*nr+i]...)
		}
		x.members[i] = m
		x.regs[i].buildMembers(all, m)
	})
}

// Query implements core.Index: QueryAppend's result, one emit per ID.
func (x *router[P]) Query(r geom.Rect, emit func(id uint32)) { callback.Query(x, r, emit) }

// QueryAppend implements core.QueryAppender: clip the window to the
// lattice span and fan out to the overlapped regions. A single query
// touches few regions (usually one), so the fan-out runs inline on the
// caller's goroutine — batch parallelism comes from the driver striping
// queriers across workers. Regions dedup only when the geometry
// replicates AND the window straddles regions; otherwise their results
// are disjoint as they stand. Either way region contributions are
// disjoint, so concatenating them into one buffer needs no post-merge.
//
//joinlint:hotpath
func (x *router[P]) QueryAppend(r geom.Rect, buf []uint32) []uint32 {
	s := x.lat.spanOf(r)
	x.ins.fanout.Record(int64(s.cells()))
	dedup := x.geo.replicates() && s.cells() > 1
	for w := s.walk(); w.more(); w = w.next() {
		buf = x.regs[x.lat.id(w.cx, w.cy)].queryAppend(r, buf, dedup)
	}
	return buf
}

// Update implements core.Index as a no-op: the engine is static, and the
// next Build routes the move from the snapshot.
func (x *router[P]) Update(id uint32, old, new P) {}

// Len implements core.Counter: objects, each counted once — in the
// region that owns it (region.owns) — as the grids and R-trees count
// objects and not the replicas they store.
func (x *router[P]) Len() int {
	n := 0
	for _, s := range x.regs {
		for _, p := range s.items {
			if s.owns(p) {
				n++
			}
		}
	}
	return n
}

// ReplicationFactor reports replicas per object.
func (x *BoxIndex) ReplicationFactor() float64 {
	if x.n == 0 {
		return 1
	}
	replicas := 0
	for _, s := range x.regs {
		replicas += len(s.items)
	}
	return float64(replicas) / float64(x.n)
}

// MemoryBytes implements core.MemoryReporter.
func (x *router[P]) MemoryBytes() int64 {
	var b int64
	for _, s := range x.regs {
		b += s.memoryBytes()
	}
	return b
}

// CheckInvariants implements core.InvariantChecker: every region's own
// invariants (which include that each member's span covers the region)
// plus the global membership count — every id lives somewhere, and in
// exactly one region unless the geometry replicates.
func (x *router[P]) CheckInvariants() error {
	for _, s := range x.regs {
		if err := s.CheckInvariants(); err != nil {
			return err
		}
	}
	holders := make([]uint32, x.n)
	for _, s := range x.regs {
		for _, id := range s.owner {
			if int(id) >= x.n {
				return fmt.Errorf("shard: region(%d,%d) holds id %d beyond population %d", s.cx, s.cy, id, x.n)
			}
			holders[id]++
		}
	}
	for id, h := range holders {
		if h == 0 || h > 1 && !x.geo.replicates() {
			return fmt.Errorf("shard: id %d is a member of %d regions", id, h)
		}
	}
	return nil
}

package shard

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/parutil"
	"repro/internal/tune"
)

// The routers satisfy the full optional-capability surface so the
// drivers' parallel and batch paths engage.
var (
	_ core.Index              = (*Index)(nil)
	_ core.ParallelBuilder    = (*Index)(nil)
	_ core.BatchUpdater       = (*Index)(nil)
	_ core.BoxIndex           = (*BoxIndex)(nil)
	_ core.BoxParallelBuilder = (*BoxIndex)(nil)
	_ core.BoxBatchUpdater    = (*BoxIndex)(nil)
	_ core.Counter            = (*Index)(nil)
	_ core.MemoryReporter     = (*Index)(nil)
	_ core.InvariantChecker   = (*Index)(nil)
	_ core.QueryAppender      = (*Index)(nil)
)

// move is the shape geom.Move and geom.BoxMove share; a routed M
// converts to it for field access at no cost.
type move[P any] struct {
	ID       uint32
	Old, New P
}

type moveOf[P any] interface {
	~struct {
		ID  uint32
		Old P
		New P
	}
}

// routing is the part of an engine that decides where things go: the
// lattice (fixed at the first build) and the move routing. The
// stop-the-world router below and the per-region-epoch composition
// (concurrent.go) both embed it, so neither restates the other's
// lattice arithmetic.
type routing[P comparable, M moveOf[P]] struct {
	env[P]
	bounds geom.Rect
	side   int // 0 until the ladder picks at first build (auto mode)
	// batches is the per-region move routing scratch.
	batches [][]M
}

// newRouting forces tune calibration so the per-shard family selection
// at first build stays outside any timed region.
func newRouting[P comparable, M moveOf[P]](g *geo[P], p core.Params, side int) routing[P, M] {
	tune.Calibrate()
	return routing[P, M]{env: env[P]{geo: g, hints: p.Hints}, bounds: p.Bounds, side: side}
}

// Side returns the region-grid side (0 before an auto first build).
func (x *routing[P, M]) Side() int { return x.side }

func (x *routing[P, M]) name() string {
	if x.side < 1 {
		return x.geo.prefix + "shard[auto]"
	}
	return fmt.Sprintf("%sshard[%dx%d]", x.geo.prefix, x.side, x.side)
}

// settle fixes the lattice on the first snapshot, running the
// shard-count ladder over it when the side was not requested
// explicitly. It reports whether this call did the fixing, i.e. whether
// the caller has regions to allocate.
func (x *routing[P, M]) settle(all []P) bool {
	if x.batches != nil {
		return false
	}
	if x.side < 1 {
		st := x.geo.sample(all, x.bounds, x.hints)
		x.side = tune.ChooseShardSide(st, runtime.GOMAXPROCS(0))
	}
	x.lat = newLattice(x.bounds, x.side)
	x.ins.side.Set(int64(x.side))
	x.batches = make([][]M, x.side*x.side)
	return true
}

// concerned calls visit for every region a move from old to new
// concerns: those in the union of the two spans that hold the object
// before or after (a point's move concerns its source and destination
// regions; a box's every region it stops, keeps or starts overlapping).
func (x *routing[P, M]) concerned(old, new P, visit func(sid int)) {
	o, n := x.geo.span(&x.lat, old), x.geo.span(&x.lat, new)
	for w := o.union(n).walk(); w.more(); w = w.next() {
		if o.has(w.cx, w.cy) || n.has(w.cx, w.cy) {
			visit(x.lat.id(w.cx, w.cy))
		}
	}
}

// route partitions the moves by concerned region into x.batches, each
// list in batch order.
func (x *routing[P, M]) route(moves []M) {
	for i := range x.batches {
		x.batches[i] = x.batches[i][:0]
	}
	for _, m := range moves {
		mv := move[P](m)
		x.concerned(mv.Old, mv.New, func(sid int) { x.batches[sid] = append(x.batches[sid], m) })
	}
}

// router is the stop-the-world engine: routing over side x side regions
// behind the core.Index / core.BoxIndex contract of its geometry. See
// the package comment for the ownership, routing, and merge rules.
type router[P comparable, M moveOf[P]] struct {
	routing[P, M]
	regs []*region[P]

	members [][]uint32 // per-region build routing scratch
	fanned  [][]uint32 // per-worker x per-region parallel routing scratch
}

func newRouter[P comparable, M moveOf[P]](g *geo[P], p core.Params, side int) router[P, M] {
	return router[P, M]{routing: newRouting[P, M](g, p, side)}
}

// Index is the region-sharded point engine.
type Index struct {
	router[geom.Point, geom.Move]
}

// BoxIndex is the region-sharded box engine: replica-based membership
// and boundary-ownership dedup.
type BoxIndex struct {
	router[geom.Rect, geom.BoxMove]
}

// New constructs a sharded point engine with an explicit region-grid
// side (>= 1).
func New(p core.Params, side int) *Index {
	return &Index{newRouter[geom.Point, geom.Move](pointGeo, p, max(side, 1))}
}

// NewAuto constructs a sharded point engine whose region-grid side is
// chosen by the tune shard-count ladder: from p.Shards when set, else
// from the first build snapshot's sampled statistics.
func NewAuto(p core.Params) *Index {
	return &Index{newRouter[geom.Point, geom.Move](pointGeo, p, p.Shards)}
}

// AutoFactory is the core.Factory for NewAuto (lineup key "shard-auto").
func AutoFactory(p core.Params) core.Index { return NewAuto(p) }

// NewBox constructs a sharded box engine with an explicit region-grid
// side (>= 1).
func NewBox(p core.Params, side int) *BoxIndex {
	return &BoxIndex{newRouter[geom.Rect, geom.BoxMove](boxGeo, p, max(side, 1))}
}

// AutoBoxFactory is the core.BoxFactory of lineup key "boxshard-auto":
// a sharded box engine whose region-grid side is chosen by the tune
// shard-count ladder (p.Shards overrides).
func AutoBoxFactory(p core.Params) core.BoxIndex {
	return &BoxIndex{newRouter[geom.Rect, geom.BoxMove](boxGeo, p, p.Shards)}
}

// Name implements core.Index.
func (x *router[P, M]) Name() string { return x.name() }

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
func (x *router[P, M]) Regions() []RegionInfo {
	out := make([]RegionInfo, 0, len(x.regs))
	for _, s := range x.regs {
		out = append(out, RegionInfo{CX: int(s.cx), CY: int(s.cy), Frame: s.frame, Live: s.live, Choice: s.choice})
	}
	return out
}

// Build implements core.Index: one routing pass partitions the snapshot
// by region (an object is listed in every region of its span), then
// each region builds its arena and inner index.
func (x *router[P, M]) Build(all []P) { x.buildWith(all, 1) }

// BuildParallel implements core.ParallelBuilder: regions are striped
// across workers with work-stealing. Region builds are independent and
// deterministic, so the result is identical to Build.
func (x *router[P, M]) BuildParallel(all []P, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	x.buildWith(all, workers)
}

// spread appends each id in [lo, hi) to the list of every region of its
// object's span.
func (x *router[P, M]) spread(all []P, lo, hi int, lists [][]uint32) {
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

func (x *router[P, M]) buildWith(all []P, workers int) {
	if x.settle(all) {
		x.regs = make([]*region[P], len(x.batches))
		for i := range x.regs {
			x.regs[i] = newRegion(&x.env, i)
		}
		x.members = make([][]uint32, len(x.regs))
	}
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

// Query implements core.Index: clip the window to the lattice span and
// fan out to the overlapped regions. A single query touches few regions
// (usually one), so the fan-out runs inline on the caller's goroutine —
// batch parallelism comes from the driver striping queriers across
// workers. Regions dedup only when the geometry replicates AND the
// window straddles regions; otherwise their results are disjoint as
// they stand.
func (x *router[P, M]) Query(r geom.Rect, emit func(id uint32)) {
	s := x.lat.spanOf(r)
	x.ins.fanout.Record(int64(s.cells()))
	dedup := x.geo.replicates() && s.cells() > 1
	for w := s.walk(); w.more(); w = w.next() {
		x.regs[x.lat.id(w.cx, w.cy)].query(r, emit, dedup)
	}
}

// QueryAppend implements core.QueryAppender: the buffered fan-out, with
// the same dedup rule as Query. Region contributions are disjoint, so
// concatenating them into one buffer needs no post-merge.
//
//joinlint:hotpath
func (x *router[P, M]) QueryAppend(r geom.Rect, buf []uint32) []uint32 {
	s := x.lat.spanOf(r)
	x.ins.fanout.Record(int64(s.cells()))
	dedup := x.geo.replicates() && s.cells() > 1
	for w := s.walk(); w.more(); w = w.next() {
		buf = x.regs[x.lat.id(w.cx, w.cy)].queryAppend(r, buf, dedup)
	}
	return buf
}

// Update implements core.Index: every concerned region adjusts its
// membership (move in place, park, or revive — region.Update).
func (x *router[P, M]) Update(id uint32, old, new P) {
	x.concerned(old, new, func(sid int) { x.regs[sid].Update(id, old, new) })
}

// CanBatchUpdates implements core.BatchUpdater.
func (x *router[P, M]) CanBatchUpdates(n int) bool {
	return len(x.regs) > 1 && n >= 64
}

// UpdateBatch implements core.BatchUpdater: one routing pass partitions
// the moves by concerned region, then regions apply their lists in
// parallel. Each region sees exactly its own moves in batch order and
// touches only private state, so the result is identical to per-move
// Update application with no cross-shard locking.
func (x *router[P, M]) UpdateBatch(moves []M, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	x.route(moves)
	forEachStealing(len(x.regs), workers, func(i int) {
		reg := x.regs[i]
		for _, m := range x.batches[i] {
			mv := move[P](m)
			reg.Update(mv.ID, mv.Old, mv.New)
		}
	})
}

// Len implements core.Counter: live members across regions (a
// replicated object counts once per overlapped region, mirroring
// BoxGrid's Len semantics of entries stored).
func (x *router[P, M]) Len() int {
	n := 0
	for _, s := range x.regs {
		n += s.live
	}
	return n
}

// ReplicationFactor reports live replicas per object.
func (x *BoxIndex) ReplicationFactor() float64 {
	if len(x.regs) == 0 || len(x.regs[0].lidOf) == 0 {
		return 1
	}
	return float64(x.Len()) / float64(len(x.regs[0].lidOf))
}

// MemoryBytes implements core.MemoryReporter.
func (x *router[P, M]) MemoryBytes() int64 {
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
func (x *router[P, M]) CheckInvariants() error {
	for _, s := range x.regs {
		if err := s.CheckInvariants(); err != nil {
			return err
		}
	}
	if len(x.regs) == 0 {
		return nil
	}
	for id := range x.regs[0].lidOf {
		holders := 0
		for _, s := range x.regs {
			if s.lidFor(uint32(id)) != NONE {
				holders++
			}
		}
		if holders == 0 || holders > 1 && !x.geo.replicates() {
			return fmt.Errorf("shard: id %d is a member of %d regions", id, holders)
		}
	}
	return nil
}

package tune

import (
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
)

// autoGeo is what the adaptive index needs to know about an object
// geometry P — the same sample / choose / construct triple
// internal/shard's geo[P] carries per region, plus the name prefix. The
// two values below are the whole difference between Auto and AutoBox.
type autoGeo[P any] struct {
	name   string
	sample func(snap []P, bounds geom.Rect, h core.WorkloadHints) Stats
	choose func(s Stats) Choice
	build  func(c Choice, p core.Params) core.IndexOf[P]
}

var (
	pointAuto = &autoGeo[geom.Point]{"auto", SamplePoints, ChoosePoint, Choice.NewPointIndex}
	boxAuto   = &autoGeo[geom.Rect]{"boxauto", SampleBoxes, ChooseBox, Choice.NewBoxIndex}
)

// unbuilt stands in for the chosen structure until the first Build: it
// holds nothing, so an adaptive index that has not seen a snapshot
// answers every query with no results, like any unbuilt family, and the
// delegating methods need no "chosen yet?" test of their own.
type unbuilt[P any] struct{}

func (unbuilt[P]) Name() string                                   { return "unbuilt" }
func (unbuilt[P]) Build([]P)                                      {}
func (unbuilt[P]) Query(geom.Rect, func(id uint32))               {}
func (unbuilt[P]) QueryAppend(_ geom.Rect, buf []uint32) []uint32 { return buf }
func (unbuilt[P]) Update(uint32, P, P)                            {}

// auto is the adaptive index over geometry P: a
// core.IndexOf[P] that defers choosing its structure until the first
// Build, when it samples the actual snapshot, runs the selector, and
// instantiates the winner. Every subsequent call
// delegates, so its output is bit-identical to the chosen static family
// by construction — the digest tests lean on exactly that.
//
// The selection is made once per instance (the drivers construct a
// fresh index per run, so one run = one decision; re-deciding mid-run
// would re-pay the structure's warm-up on every drift of the sample).
type auto[P any] struct {
	geo    *autoGeo[P]
	params core.Params
	inner  core.IndexOf[P]
	choice Choice
	chosen bool
	reg    *obs.Registry
	// appendKernel is the inner's buffered query kernel, resolved once
	// at selection time (native QueryAppend, or the callback adapter
	// for out-of-tree inners). Resolving here keeps QueryAppend itself
	// a plain indirect call: building the adapter closure per query
	// would heap-allocate on the hot path.
	appendKernel func(r geom.Rect, buf []uint32) []uint32
}

func newAuto[P any](g *autoGeo[P], p core.Params) auto[P] {
	return auto[P]{geo: g, params: p, inner: unbuilt[P]{}, appendKernel: unbuilt[P]{}.QueryAppend}
}

// Auto is the adaptive point index: on first Build it takes the CSR grid
// at the granularity of the point rule (ChoosePoint).
type Auto struct{ auto[geom.Point] }

// AutoBox is Auto for extended objects: on first Build it takes the
// two-layer classed box grid at the granularity of the box rule
// (ChooseBox).
type AutoBox struct{ auto[geom.Rect] }

var (
	_ core.Index              = (*Auto)(nil)
	_ core.ParallelBuilder    = (*Auto)(nil)
	_ core.BoxIndex           = (*AutoBox)(nil)
	_ core.BoxParallelBuilder = (*AutoBox)(nil)
	_ core.QueryAppender      = (*Auto)(nil)
)

// NewAuto returns an adaptive point index for the given parameters. The
// point rule reads only the population, so it needs no calibration.
func NewAuto(p core.Params) *Auto {
	return &Auto{newAuto(pointAuto, p)}
}

// NewAutoBox returns an adaptive box index for the given parameters. The
// box rule reads only the population, so it needs no calibration either;
// the hints in p reach the sampled Stats that Choice.Explain prints.
func NewAutoBox(p core.Params) *AutoBox {
	return &AutoBox{newAuto(boxAuto, p)}
}

// AutoFactory is the core.Factory of the adaptive point index — the
// lineup's "auto" key.
func AutoFactory(p core.Params) core.Index { return NewAuto(p) }

// AutoBoxFactory is the core.BoxFactory of the adaptive box index — the
// lineup's "boxauto" key.
func AutoBoxFactory(p core.Params) core.BoxIndex { return NewAutoBox(p) }

// Name implements core.IndexOf. Before the first Build it is just
// "auto" / "boxauto"; afterwards it carries the decision.
func (a *auto[P]) Name() string {
	if !a.chosen {
		return a.geo.name
	}
	return a.geo.name + "(" + a.choice.String() + ")"
}

// ensure samples the snapshot and instantiates the chosen structure on
// the first build.
func (a *auto[P]) ensure(snap []P) {
	if a.chosen {
		return
	}
	a.choice = a.geo.choose(a.geo.sample(snap, a.params.Bounds, a.params.Hints))
	a.chosen = true
	a.inner = a.geo.build(a.choice, a.params)
	a.appendKernel = core.QueryAppendOf(a.inner, a.inner.Query)
	obs.Instrument(a.inner, a.reg)
	publishChoice(a.reg, a.choice)
}

// Build implements core.IndexOf.
func (a *auto[P]) Build(snap []P) {
	a.ensure(snap)
	a.inner.Build(snap)
}

// BuildParallel implements core.ParallelBuilderOf, delegating to the
// chosen structure's BuildParallel when it has one. Neither that auto
// picks has (the CSR grid and BoxGrid2L build on one core), so it builds
// by Build; it stays because every IndexOf wrapper forwards the
// capability (joinlint's capforward).
func (a *auto[P]) BuildParallel(snap []P, workers int) {
	a.ensure(snap)
	if pb, ok := a.inner.(core.ParallelBuilderOf[P]); ok {
		pb.BuildParallel(snap, workers)
		return
	}
	a.inner.Build(snap)
}

// Query implements core.IndexOf.
func (a *auto[P]) Query(r geom.Rect, emit func(id uint32)) { a.inner.Query(r, emit) }

// QueryAppend implements core.QueryAppender, delegating to the kernel
// resolved at selection time (both families the selector picks have a
// native one; the callback adapter covers any other inner). The
// resolution does NOT happen here: building the adapter closure per
// query would heap-allocate on the hot path, which the escape gate
// forbids.
//
//joinlint:hotpath
func (a *auto[P]) QueryAppend(r geom.Rect, buf []uint32) []uint32 {
	return a.appendKernel(r, buf)
}

// Update implements core.IndexOf.
func (a *auto[P]) Update(id uint32, old, new P) { a.inner.Update(id, old, new) }

// Len implements core.Counter (0 before the first build).
func (a *auto[P]) Len() int {
	if c, ok := a.inner.(core.Counter); ok {
		return c.Len()
	}
	return 0
}

// MemoryBytes implements core.MemoryReporter.
func (a *auto[P]) MemoryBytes() int64 {
	if r, ok := a.inner.(core.MemoryReporter); ok {
		return r.MemoryBytes()
	}
	return 0
}

// CheckInvariants implements core.InvariantChecker, delegating to the
// chosen structure's audit when it has one (nil before the first build:
// an empty index has nothing to violate).
func (a *auto[P]) CheckInvariants() error {
	if ic, ok := a.inner.(core.InvariantChecker); ok {
		return ic.CheckInvariants()
	}
	return nil
}

// Choice returns the decision, and whether one has been made yet.
func (a *auto[P]) Choice() (Choice, bool) { return a.choice, a.chosen }

// ReplicationFactor reports the chosen structure's replication (1
// before the first build).
func (a *AutoBox) ReplicationFactor() float64 {
	if r, ok := a.inner.(interface{ ReplicationFactor() float64 }); ok {
		return r.ReplicationFactor()
	}
	return 1
}

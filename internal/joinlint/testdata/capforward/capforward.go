// Package capforward is the capforward analyzer fixture: wrapper types
// around inner indexes, some forwarding every optional capability and
// some deliberately broken. The `// want` comments are the expected
// diagnostics; the fixture runner in joinlint_test.go matches them.
package capforward

import (
	"repro/internal/core"
	"repro/internal/geom"
)

// BrokenWrap satisfies core.Index and stores an inner index but
// forwards no optional capability: the analyzer must demand all three.
type BrokenWrap struct { // want `BrokenWrap satisfies core\.IndexOf\[geom\.Point\] .* core\.QueryAppender` `BrokenWrap satisfies core\.IndexOf\[geom\.Point\] .* core\.ParallelBuilderOf` `BrokenWrap satisfies core\.IndexOf\[geom\.Point\] .* core\.BatchUpdaterOf`
	inner core.Index
}

func (w *BrokenWrap) Name() string                          { return "broken" }
func (w *BrokenWrap) Build(pts []geom.Point)                { w.inner.Build(pts) }
func (w *BrokenWrap) Query(r geom.Rect, emit func(uint32))  { w.inner.Query(r, emit) }
func (w *BrokenWrap) Update(id uint32, old, new geom.Point) { w.inner.Update(id, old, new) }

// GoodWrap forwards every capability the Index contract obliges.
type GoodWrap struct {
	inner core.Index
	app   func(r geom.Rect, buf []uint32) []uint32
}

func (w *GoodWrap) Name() string                          { return "good" }
func (w *GoodWrap) Build(pts []geom.Point)                { w.inner.Build(pts) }
func (w *GoodWrap) Query(r geom.Rect, emit func(uint32))  { w.inner.Query(r, emit) }
func (w *GoodWrap) Update(id uint32, old, new geom.Point) { w.inner.Update(id, old, new) }
func (w *GoodWrap) QueryAppend(r geom.Rect, buf []uint32) []uint32 {
	return w.app(r, buf)
}
func (w *GoodWrap) BuildParallel(pts []geom.Point, workers int) { w.inner.Build(pts) }
func (w *GoodWrap) CanBatchUpdates(n int) bool                  { return false }
func (w *GoodWrap) UpdateBatch(moves []geom.Move, workers int)  {}

// FactoryWrap hides the inner index behind a factory func field (the
// epoch wrapper's erasure pattern); the analyzer must still see it as a
// wrapper. It forwards everything except QueryAppend.
type FactoryWrap struct { // want `FactoryWrap satisfies core\.IndexOf\[geom\.Point\] .* core\.QueryAppender`
	newInner func() core.Index
}

func (w *FactoryWrap) Name() string                                { return "factory" }
func (w *FactoryWrap) Build(pts []geom.Point)                      {}
func (w *FactoryWrap) Query(r geom.Rect, emit func(uint32))        {}
func (w *FactoryWrap) Update(id uint32, old, new geom.Point)       {}
func (w *FactoryWrap) BuildParallel(pts []geom.Point, workers int) {}
func (w *FactoryWrap) CanBatchUpdates(n int) bool                  { return false }
func (w *FactoryWrap) UpdateBatch(moves []geom.Move, workers int)  {}

// nestedRegion holds the inner index one struct level down (the shard
// engine's shape).
type nestedRegion struct {
	idx core.Index
}

// NestedWrap must be recognised as a wrapper through the nested region
// struct. It forwards everything except QueryAppend.
type NestedWrap struct { // want `NestedWrap satisfies core\.IndexOf\[geom\.Point\] .* core\.QueryAppender`
	regs []nestedRegion
}

func (w *NestedWrap) Name() string                                { return "nested" }
func (w *NestedWrap) Build(pts []geom.Point)                      {}
func (w *NestedWrap) Query(r geom.Rect, emit func(uint32))        {}
func (w *NestedWrap) Update(id uint32, old, new geom.Point)       {}
func (w *NestedWrap) BuildParallel(pts []geom.Point, workers int) {}
func (w *NestedWrap) CanBatchUpdates(n int) bool                  { return false }
func (w *NestedWrap) UpdateBatch(moves []geom.Move, workers int)  {}

// forward is a generic forwarding struct over the object geometry P
// moved by M (the shape of tune.auto, epoch.pub and shard.router): it
// stores the inner index and forwards everything except BuildParallel.
type forward[P, M any] struct {
	inner core.IndexOf[P]
	app   func(r geom.Rect, buf []uint32) []uint32
}

func (w *forward[P, M]) Name() string                         { return "forward" }
func (w *forward[P, M]) Build(snap []P)                       { w.inner.Build(snap) }
func (w *forward[P, M]) Query(r geom.Rect, emit func(uint32)) { w.inner.Query(r, emit) }
func (w *forward[P, M]) Update(id uint32, old, new P)         { w.inner.Update(id, old, new) }
func (w *forward[P, M]) QueryAppend(r geom.Rect, buf []uint32) []uint32 {
	return w.app(r, buf)
}
func (w *forward[P, M]) CanBatchUpdates(n int) bool         { return false }
func (w *forward[P, M]) UpdateBatch(moves []M, workers int) {}

// EmbeddedBoxWrap is a named wrapper that embeds the generic forwarding
// struct at the box instantiation: the analyzer must see through the
// embedding (inner index and promoted methods both) and demand the one
// capability the embedded struct drops, at the box instantiation.
type EmbeddedBoxWrap struct { // want `EmbeddedBoxWrap satisfies core\.IndexOf\[geom\.Rect\] .* core\.ParallelBuilderOf \(BuildParallel\)`
	forward[geom.Rect, geom.BoxMove]
}

// EmbeddedWrap embeds the same struct at the point instantiation and
// supplies the missing capability itself: clean.
type EmbeddedWrap struct {
	forward[geom.Point, geom.Move]
}

func (w *EmbeddedWrap) BuildParallel(pts []geom.Point, workers int) { w.inner.Build(pts) }

// CrossedWrap forwards a batch-update path, but over the moves of the
// other geometry: no driver's BatchUpdater probe would ever find it.
type CrossedWrap struct { // want `CrossedWrap satisfies core\.IndexOf\[geom\.Point\] .* core\.BatchUpdaterOf`
	forward[geom.Point, geom.BoxMove]
}

func (w *CrossedWrap) BuildParallel(pts []geom.Point, workers int) { w.inner.Build(pts) }

// Standalone satisfies core.Index but stores no inner index — not a
// wrapper, so missing capabilities are fine (it may genuinely not have
// faster paths).
type Standalone struct {
	pts []geom.Point
}

func (s *Standalone) Name() string                          { return "standalone" }
func (s *Standalone) Build(pts []geom.Point)                { s.pts = pts }
func (s *Standalone) Query(r geom.Rect, emit func(uint32))  {}
func (s *Standalone) Update(id uint32, old, new geom.Point) {}

// brokenUnexported stores an inner index and misses capabilities, but
// is unexported: internal plumbing types are out of scope.
type brokenUnexported struct {
	inner core.Index
}

func (w *brokenUnexported) Name() string                          { return "unexported" }
func (w *brokenUnexported) Build(pts []geom.Point)                {}
func (w *brokenUnexported) Query(r geom.Rect, emit func(uint32))  {}
func (w *brokenUnexported) Update(id uint32, old, new geom.Point) {}

var (
	_ core.Index = (*BrokenWrap)(nil)
	_ core.Index = (*GoodWrap)(nil)
	_ core.Index = (*FactoryWrap)(nil)
	_ core.Index = (*NestedWrap)(nil)
	_ core.Index = (*Standalone)(nil)
	_ core.Index = (*EmbeddedWrap)(nil)
	_ core.Index = (*CrossedWrap)(nil)
	_ core.Index = (*brokenUnexported)(nil)

	_ core.BoxIndex = (*EmbeddedBoxWrap)(nil)
)

// AppendOnlyEpoch decorates an epoch-published index and forwards the
// buffered query but not the lease: the concurrent driver would drop to
// a pin per query behind it, so the analyzer must demand EpochLeaser.
type AppendOnlyEpoch struct { // want `AppendOnlyEpoch satisfies core\.EpochIndex .* core\.EpochLeaser`
	inner core.EpochIndex
}

func (w *AppendOnlyEpoch) Name() string           { return "appendonly" }
func (w *AppendOnlyEpoch) Build(pts []geom.Point) { w.inner.Build(pts) }
func (w *AppendOnlyEpoch) ApplyBatch(moves []geom.Move) (uint64, error) {
	return w.inner.ApplyBatch(moves)
}
func (w *AppendOnlyEpoch) Epoch() (uint64, uint64) { return w.inner.Epoch() }
func (w *AppendOnlyEpoch) Stats() core.EpochStats  { return w.inner.Stats() }
func (w *AppendOnlyEpoch) Query(r geom.Rect, emit func(uint32)) (uint64, uint64) {
	return w.inner.Query(r, emit)
}
func (w *AppendOnlyEpoch) QueryAppend(r geom.Rect, buf []uint32) ([]uint32, uint64, uint64) {
	return w.inner.(core.EpochQueryAppender).QueryAppend(r, buf)
}

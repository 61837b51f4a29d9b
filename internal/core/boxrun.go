package core

import (
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/workload"
)

// RunBoxes executes the iterated spatial join of a box index over an MBR
// workload: the same three-phase tick loop as Run, with the object
// geometry widened from points to rectangles. A join pair (q, id) means
// object id's MBR intersects the range query of querier q; the result
// digest is directly comparable across BoxIndex implementations.
func RunBoxes(idx BoxIndex, src workload.BoxSource, opts Options) *Result {
	obs.Instrument(idx, opts.Obs)
	return runTicks(boxEngine(idx, src), opts, 1)
}

// RunBoxesParallel is RunParallel for box indexes: the refresh, the build
// and the query phase fan out over the given number of worker goroutines
// (0 selects GOMAXPROCS), with queriers scheduled by the Morton code of
// their MBR centre. The result digest matches RunBoxes bit for bit.
func RunBoxesParallel(idx BoxIndex, src workload.BoxSource, opts Options, workers int) *Result {
	obs.Instrument(idx, opts.Obs)
	return runTicks(boxEngine(idx, src), opts, workers)
}

// boxEngine is pointEngine for a box index over an MBR workload.
func boxEngine(idx BoxIndex, src workload.BoxSource) *engine[geom.Rect] {
	e := newEngine(idx, src, src.NumBoxes())
	e.refresh = src.RefreshRects
	e.center = geom.Rect.Center
	e.updatePhase = updatePhaseOf(src.Updates, src.ApplyUpdates)
	return e
}

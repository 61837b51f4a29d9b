package core

import (
	"repro/internal/geom"
	"repro/internal/obs"
)

// SetMaxExactLatSamples shrinks the concurrent drivers' exact latency
// sample cap so external driver tests can force the bounded histogram
// percentile path on small workloads. Returns a restore func.
func SetMaxExactLatSamples(n int) (restore func()) {
	old := maxExactLatSamples
	maxExactLatSamples = n
	return func() { maxExactLatSamples = old }
}

// StampEveryQuery makes the concurrent drivers stamp all queryBlock
// queries of a block instead of a run of latSample: the series the
// sampled one stands for. Returns a restore func.
func StampEveryQuery() (restore func()) {
	old := latSample
	latSample = queryBlock
	return func() { latSample = old }
}

// StampedQueries is how many of n queriers claimed in blocks the
// concurrent drivers stamp for the latency series.
func StampedQueries(n int) int {
	return n/queryBlock*latSample + min(latSample, n%queryBlock)
}

// NewBlockServer binds one concurrent reader to a built index, as
// RunConcurrent does once per reader, and returns its per-block entry
// point: lease, observe, drain, release.
func NewBlockServer(x EpochIndex, queryRect func(q uint32) geom.Rect) func(block []uint32) {
	st := newReaderStates(1, 1, obs.NewHistogram(), func(log *epochLog) EpochLeaser { return leaserFor(x, log) })[0]
	return func(block []uint32) { st.serveBlock(queryRect, block) }
}

// SetCellOrdered pins the tick loop's query order at every worker count —
// every tick cell-ordered, or every tick in querier order — in place of
// the one-worker measured choice and the multi-worker cell order, so
// tests can hold the digest under either. Returns a restore func.
func SetCellOrdered(on bool) (restore func()) {
	old := querySchedule
	querySchedule = scheduleNever
	if on {
		querySchedule = scheduleAlways
	}
	return func() { querySchedule = old }
}

// CellOrderPays is the sequential driver's measured choice of query
// order, a pure function of the trial ticks' samples.
var CellOrderPays = cellOrderPays

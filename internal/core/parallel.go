package core

import (
	"repro/internal/obs"
	"repro/internal/workload"
)

// RunParallel executes the iterated join like Run but fans every phase of
// the tick out over the given number of worker goroutines (0 selects
// GOMAXPROCS); see runTicksParallel for the schedule. Indexes
// implementing ParallelBuilder build by sharded counting sort, and
// BatchUpdater implementations get the worker count for the bulk update
// path Run already takes.
func RunParallel(idx Index, src workload.Source, opts Options, workers int) *Result {
	obs.Instrument(idx, opts.Obs)
	return runTicksParallel(pointEngine(idx, src), opts, workers)
}

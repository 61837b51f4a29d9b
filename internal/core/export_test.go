package core

// SetMaxExactLatSamples shrinks the concurrent drivers' exact latency
// sample cap so external driver tests can force the bounded histogram
// percentile path on small workloads. Returns a restore func.
func SetMaxExactLatSamples(n int) (restore func()) {
	old := maxExactLatSamples
	maxExactLatSamples = n
	return func() { maxExactLatSamples = old }
}

// SetCellOrdered pins the sequential driver's query order — every tick
// cell-ordered, or every tick in querier order — in place of the measured
// choice, so tests can hold the digest under either. Returns a restore
// func.
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

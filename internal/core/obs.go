package core

import (
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// This file binds the drivers to internal/obs: the per-tick phase
// spans of the stop-the-world loop, the per-query latency and
// apply-phase spans of the concurrent loop, and the bounded latency
// recorder that replaced the unbounded exact-sample retention (ISSUE 10
// satellite). All instruments come from Options.Obs and no-op when it
// is nil — see internal/obs/README.md for the hot-path contract and
// the instrument name table.

// tickObs is the stop-the-world drivers' instrument set. The zero
// value (nil registry) makes every record a nil-check.
type tickObs struct {
	build, query, update    *obs.Histogram
	ticks, queries, updates *obs.Counter
	pairs                   *obs.Counter
	// cellOrdered is 1 when the last tick's query phase probed in cell
	// order, 0 when in querier order (engine.go, cellSchedule): past the
	// sequential driver's trial ticks it reads the run's measured choice.
	cellOrdered *obs.Gauge
}

func newTickObs(r *obs.Registry) tickObs {
	return tickObs{
		build:   r.Histogram("core.tick.build_ns"),
		query:   r.Histogram("core.tick.query_ns"),
		update:  r.Histogram("core.tick.update_ns"),
		ticks:   r.Counter("core.ticks"),
		queries: r.Counter("core.queries"),
		updates: r.Counter("core.updates"),
		pairs:   r.Counter("core.pairs"),

		cellOrdered: r.Gauge("core.tick.cell_ordered"),
	}
}

// tick folds one completed tick's phase times and counts in.
func (o *tickObs) tick(pt PhaseTimes, queries, updates int64, cellOrdered bool) {
	o.build.Record(int64(pt.Build))
	o.query.Record(int64(pt.Query))
	o.update.Record(int64(pt.Update))
	o.ticks.Inc()
	o.queries.Add(queries)
	o.updates.Add(updates)
	var ordered int64
	if cellOrdered {
		ordered = 1
	}
	o.cellOrdered.Set(ordered)
}

// concObs is the concurrent drivers' instrument set.
type concObs struct {
	reg         *obs.Registry
	tick, apply *obs.Histogram
	query       *obs.Histogram
	ticks       *obs.Counter
	queries     *obs.Counter
	updates     *obs.Counter
	failed      *obs.Counter
	violations  *obs.Gauge
}

func newConcObs(r *obs.Registry) concObs {
	return concObs{
		reg:        r,
		tick:       r.Histogram("core.concurrent.tick_ns"),
		apply:      r.Histogram("core.concurrent.apply_ns"),
		query:      r.Histogram("core.concurrent.query_ns"),
		ticks:      r.Counter("core.concurrent.ticks"),
		queries:    r.Counter("core.concurrent.queries"),
		updates:    r.Counter("core.concurrent.updates"),
		failed:     r.Counter("core.concurrent.failed_ticks"),
		violations: r.Gauge("core.concurrent.violations"),
	}
}

// latHist returns the per-query latency histogram the readers record
// into. It exists even with no registry attached: the histogram is what
// bounds latency memory on long runs, not an optional extra.
func (o *concObs) latHist() *obs.Histogram {
	if o.query != nil {
		return o.query
	}
	return obs.NewHistogram()
}

// maxExactLatSamples caps each reader's exact per-query latency
// samples. Short runs stay under it and report exact interpolated
// percentiles; past it the reader stops retaining samples (the shared
// obs histogram keeps every observation in constant memory) and the
// percentiles come from Histogram.Quantile, which agrees with the
// exact path within one bucket width. A var, not a const, so tests can
// force the histogram path with small workloads.
var maxExactLatSamples = 1 << 14

// latRecorder is one reader's latency collection: every observation
// feeds the shared histogram; the first maxExactLatSamples are also
// retained exactly. Observations come from a chain of completion
// stamps (start, then one lap per stamped query): a time.Now/time.Since
// pair around each query is three vDSO clock reads, a stamp is one. The
// concurrent driver opens one chain per claimed block and laps a run of
// latSample queries.
type latRecorder struct {
	hist    *obs.Histogram
	samples []time.Duration
	dropped int64
	base    time.Time
	prev    time.Duration
}

// start opens a chain of stamps on the calling worker: one monotonic
// read against the base the recorder's first start fixed.
func (l *latRecorder) start() {
	if l.base.IsZero() {
		l.base = time.Now()
	}
	l.prev = time.Since(l.base)
}

// lap records the interval since the previous stamp of the chain.
func (l *latRecorder) lap() {
	now := time.Since(l.base)
	l.record(now - l.prev)
	l.prev = now
}

// count is how many observations the recorder has taken.
func (l *latRecorder) count() int64 { return int64(len(l.samples)) + l.dropped }

// record is called on the reader hot loop.
func (l *latRecorder) record(d time.Duration) {
	l.hist.Record(int64(d))
	if len(l.samples) < maxExactLatSamples {
		l.samples = append(l.samples, d)
	} else {
		l.dropped++
	}
}

// latPercentiles merges the readers' recorders into p50/p95/p99: the
// exact interpolated percentiles when every sample was retained, the
// histogram estimate once any reader overflowed its cap.
func latPercentiles(recs []*latRecorder, hist *obs.Histogram) (p50, p95, p99 time.Duration) {
	var dropped int64
	total := 0
	for _, l := range recs {
		dropped += l.dropped
		total += len(l.samples)
	}
	if dropped > 0 {
		return time.Duration(hist.Quantile(0.50)),
			time.Duration(hist.Quantile(0.95)),
			time.Duration(hist.Quantile(0.99))
	}
	lat := make([]float64, 0, total)
	for _, l := range recs {
		for _, d := range l.samples {
			lat = append(lat, float64(d))
		}
	}
	qs := stats.Percentiles(lat, 0.50, 0.95, 0.99)
	return time.Duration(qs[0]), time.Duration(qs[1]), time.Duration(qs[2])
}

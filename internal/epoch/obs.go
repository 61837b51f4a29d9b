package epoch

import "repro/internal/obs"

// ins is the wrapper's instrument set, replacing the former ad-hoc
// atomic counters. The standalone counters always exist (the
// constructors create them) and are the exact per-wrapper source of
// truth behind Stats(). Instrument additionally binds the shared
// registry series — which aggregate across every wrapper attached to
// the same registry, e.g. all shards of a sharded engine — and the
// maintenance-phase span histograms. Registry fields no-op while nil,
// and every increment below is on the writer's cold path (once per
// tick, retry, or contained panic), so the double count costs nothing
// measurable.
type ins struct {
	reg *obs.Registry

	// Per-wrapper lifecycle counters backing Stats().
	epochs, degraded, retries, panics *obs.Counter

	// Registry-shared lifecycle series.
	rEpochs, rDegraded, rRetries, rPanics *obs.Counter

	// Registry-only: ticks whose first apply attempt took the bulk
	// (land + build) or the replay (per-move update) path.
	rBulk, rReplay *obs.Counter

	// Maintenance-phase spans of applyBatch.
	apply, validate, publish, quiesce *obs.Histogram
}

func newIns() ins {
	return ins{
		epochs:   obs.NewCounter(),
		degraded: obs.NewCounter(),
		retries:  obs.NewCounter(),
		panics:   obs.NewCounter(),
	}
}

// bind attaches the shared registry series. Call before Build; the
// wrapper does not support re-instrumentation with readers in flight.
func (i *ins) bind(r *obs.Registry) {
	if r == nil {
		return
	}
	i.reg = r
	i.rEpochs = r.Counter("epoch.epochs_published")
	i.rDegraded = r.Counter("epoch.degraded_ticks")
	i.rRetries = r.Counter("epoch.publish_retries")
	i.rPanics = r.Counter("epoch.panics_contained")
	i.rBulk = r.Counter("epoch.apply_bulk")
	i.rReplay = r.Counter("epoch.apply_replay")
	i.apply = r.Histogram("epoch.apply_ns")
	i.validate = r.Histogram("epoch.validate_ns")
	i.publish = r.Histogram("epoch.publish_ns")
	i.quiesce = r.Histogram("epoch.quiesce_ns")
}

func (i *ins) publishedEpoch(degraded bool) {
	i.epochs.Inc()
	i.rEpochs.Inc()
	if degraded {
		i.degraded.Inc()
		i.rDegraded.Inc()
	}
}

func (i *ins) exhaustedRetries() {
	i.degraded.Inc()
	i.rDegraded.Inc()
}

func (i *ins) retried() {
	i.retries.Inc()
	i.rRetries.Inc()
}

func (i *ins) containedPanic() {
	i.panics.Inc()
	i.rPanics.Inc()
}

// Instrument implements obs.Instrumentable (promoted to Index and
// BoxIndex): it binds the wrapper's lifecycle events to the shared
// "epoch.*" registry series and enables the maintenance-phase span
// histograms. The concurrent drivers call this ahead of Build.
func (x *pub[P, M]) Instrument(r *obs.Registry) { x.ins.bind(r) }

package tune

import "repro/internal/obs"

// Instrumentation of the adaptive indexes: at selection time (first
// Build) the decision and its predicted per-tick cost land in the
// registry, so a live snapshot shows which family is serving and what
// the cost model expected — the feed the ROADMAP's drift-adaptation
// item compares against the observed core.tick.* series to compute
// prediction residuals. Nothing here touches the delegating hot paths.

// Instrument implements obs.Instrumentable (promoted to Auto and
// AutoBox). Call before Build (the drivers do); the selection made at
// first build is then published.
func (a *auto[P]) Instrument(r *obs.Registry) { a.reg = r }

// publishChoice records a freshly made selection: the decision label,
// the winner's predicted tick cost, and a selection count (several
// selections on one registry — e.g. per-region tuning — keep the last
// label but count each decision). All calls are nil-safe on a nil
// registry.
func publishChoice(r *obs.Registry, c Choice) {
	r.SetLabel("tune.choice", c.String())
	if len(c.Ranking) > 0 {
		r.Gauge("tune.predicted_tick_ns").Set(int64(c.Ranking[0].TickNs))
	}
	r.Counter("tune.selections").Inc()
}

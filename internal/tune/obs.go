package tune

import "repro/internal/obs"

// Instrumentation of the adaptive indexes: at selection time (first
// Build) the decision lands in the registry, so a live snapshot shows
// which family is serving. Nothing here touches the delegating hot paths.

// Instrument implements obs.Instrumentable (promoted to Auto and
// AutoBox). Call before Build (the drivers do); the selection made at
// first build is then published.
func (a *auto[P]) Instrument(r *obs.Registry) { a.reg = r }

// publishChoice records a freshly made selection: the decision label and
// a selection count (several selections on one registry — e.g.
// per-region tuning — keep the last label but count each decision). All
// calls are nil-safe on a nil registry.
func publishChoice(r *obs.Registry, c Choice) {
	r.SetLabel("tune.choice", c.String())
	r.Counter("tune.selections").Inc()
}

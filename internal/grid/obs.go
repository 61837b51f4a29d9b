package grid

import "repro/internal/obs"

// Instrumentation of the grid families: one "grid.queries" counter
// incremented at the query kernel boundary (the QueryAppend entry, which
// Query goes through), never inside the BCE'd scan loops — the counter
// must not perturb the bounds-check baseline the joinlint gate pins. A
// nil counter (no registry attached) is a nil-check no-op per the
// internal/obs hot-path contract.

// Instrument implements obs.Instrumentable for the point grid.
func (g *Grid) Instrument(r *obs.Registry) {
	g.queries = r.Counter("grid.queries")
}

// Instrument implements obs.Instrumentable for the CSR box grid.
func (bg *BoxGrid) Instrument(r *obs.Registry) {
	bg.queries = r.Counter("grid.queries")
}

// Instrument implements obs.Instrumentable for the two-layer classed
// box grid.
func (bg *BoxGrid2L) Instrument(r *obs.Registry) {
	bg.queries = r.Counter("grid.queries")
}

// Package tune closes the loop the paper opens: *which* implementation
// is right depends on the workload, so pick it per run from the workload
// itself. Both choices are rules, pure functions of what the sampler saw:
//
//  1. a workload SAMPLER (this file) takes the population, the space and
//     the hinted query window and query:update mix, and for a box
//     snapshot the mean MBR side over a strided sample of it (which the
//     shard-count ladder reads);
//  2. a SELECTOR (select.go): ChoosePoint picks the CSR point grid at the
//     paper's tuned occupancy, 50 000 points at cps 64 (Figure 5b), and
//     ChooseBox the two-layer classed box grid (grid.BoxGrid2L) at the
//     same occupancy from the box anchor, 48 cells a side on the AVX-512
//     tier and 64 on the Go loops. Neither reads a calibration: a fitted
//     cost model picked no faster on either side (README, "Why a rule").
//
// The end-to-end entry points are the Auto / AutoBox indexes (auto.go):
// drop-in core.Index / core.BoxIndex implementations that sample the
// first snapshot they are built over, select a concrete structure, and
// delegate everything to it — so their output is bit-identical to the
// chosen static family by construction. They are wired into every
// command as -layout auto / -boxlayout auto (lineup keys "auto" and
// "boxauto").
package tune

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
)

// sampleCap bounds the sampler's work: at most this many objects are
// visited, strided evenly across the snapshot so the sample sees every
// region of the ID space (workload generators assign IDs independently
// of position, so a stride is as good as a shuffle).
const sampleCap = 2048

// Stats is what the sampler extracts from a snapshot, in at most one pass.
type Stats struct {
	// N is the population (objects, not replicas).
	N int
	// Space is the indexed square space.
	Space geom.Rect
	// MeanSide is the mean MBR side length (both axes pooled). Zero for
	// point workloads.
	MeanSide float32
	// QuerySide is the side length of the square query windows.
	QuerySide float32
	// Queriers and Updaters are the per-tick fractions of objects
	// querying and updating — the query:update mix the adaptive-layout
	// literature selects on.
	Queriers, Updaters float64
}

// String renders the sampled statistics the way the examples print them.
func (s Stats) String() string {
	side := s.Space.Width()
	return fmt.Sprintf("n=%d space=%.0f mean-side=%.0f qside=%.0f mix=%.0f%%q/%.0f%%u",
		s.N, side, s.MeanSide, s.QuerySide, s.Queriers*100, s.Updaters*100)
}

// sanitize clamps degenerate inputs — zero populations, inverted or
// NaN extents, out-of-range mixes — so every statistic is finite and
// every selected parameter is valid. It never rejects: the selector
// must return a usable choice for ANY input.
func (s Stats) sanitize() Stats {
	if s.N < 0 {
		s.N = 0
	}
	side := s.Space.Width()
	if !(side > 0) || math.IsInf(float64(side), 0) { // catches NaN and zero
		s.Space = geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
		side = 1
	}
	clampSide := func(v float32) float32 {
		if !(v > 0) { // NaN or non-positive
			return 0
		}
		if v > side {
			return side
		}
		return v
	}
	s.MeanSide = clampSide(s.MeanSide)
	if !(s.QuerySide > 0) {
		// Unknown query window: assume the paper's default ratio
		// (400 units on a 22,000-unit space ≈ 2% of the side).
		s.QuerySide = side / 55
	}
	if s.QuerySide > side {
		s.QuerySide = side
	}
	if !(s.Queriers >= 0) || s.Queriers > 1 {
		s.Queriers = 0.5
	}
	if !(s.Updaters >= 0) || s.Updaters > 1 {
		s.Updaters = 0.5
	}
	return s
}

// SamplePoints extracts the statistics the point rule reads — the
// population, plus the space and the hints — without visiting the
// snapshot.
func SamplePoints(pts []geom.Point, bounds geom.Rect, h core.WorkloadHints) Stats {
	return statsFromHints(len(pts), bounds, h).sanitize()
}

// SampleBoxes extracts workload statistics from an MBR snapshot: the
// mean side (both axes pooled) over at most sampleCap strided elements,
// and the hint-provided query window and mix.
func SampleBoxes(rects []geom.Rect, bounds geom.Rect, h core.WorkloadHints) Stats {
	s := statsFromHints(len(rects), bounds, h)
	stride := max(1, (len(rects)+sampleCap-1)/sampleCap)
	var sum float64
	sides := 0
	for i := 0; i < len(rects); i += stride {
		for _, side := range [2]float32{rects[i].Width(), rects[i].Height()} {
			if side >= 0 { // false for NaN and for an inverted rect
				sum += float64(side)
				sides++
			}
		}
	}
	if sides > 0 {
		s.MeanSide = float32(sum / float64(sides))
	}
	return s.sanitize()
}

// statsFromHints seeds a Stats with everything that does not need the
// snapshot pass. A fully-zero hints struct means "unknown" and falls
// back to the framework's default 50/50 mix; explicit zeros inside an
// otherwise-populated struct are respected (a pure-query workload
// really has Updaters == 0).
func statsFromHints(n int, bounds geom.Rect, h core.WorkloadHints) Stats {
	if h == (core.WorkloadHints{}) {
		h.Queriers, h.Updaters = 0.5, 0.5
	}
	return Stats{
		N:         n,
		Space:     bounds,
		QuerySide: h.QuerySize,
		Queriers:  h.Queriers,
		Updaters:  h.Updaters,
	}
}

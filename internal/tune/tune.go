// Package tune closes the loop the paper opens: *which* implementation
// is right depends on the workload, so pick it per run from the workload
// itself. The benchmark's traced ladder (grid.*, rtree.box.*) charts the
// decision surface — classed grids beat the STR box R-tree on queries at
// tuned granularities but pay replication and build tax, CSR-XY wins
// only at coarse grids, inline buckets win update-dominated ticks — and
// this package automates walking it:
//
//  1. a workload SAMPLER (this file) extracts, in one cheap pass over a
//     strided sample of the snapshot, the statistics the decision
//     surface depends on: population, extent distribution (mean / p95
//     MBR side), spatial skew, query-window selectivity, and the
//     query:update mix;
//  2. a calibrated COST MODEL (cost.go, calibrate.go): per-family
//     closed-form cost curves for build, query, and update whose
//     hardware constants are fitted once per process by tiny
//     microbenchmarks — a few milliseconds of running the real
//     structures over a small synthetic scene, the runtime analogue of
//     how internal/memsim shadows grid and R-tree traversals;
//  3. a SELECTOR (select.go) that sweeps the curves over candidate
//     parameters and returns the family + tuning (grid cells-per-side,
//     R-tree fanout) minimizing the predicted per-tick cost.
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
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
)

// sampleCap bounds the sampler's work: at most this many objects are
// visited, strided evenly across the snapshot so the sample sees every
// region of the ID space (workload generators assign IDs independently
// of position, so a stride is as good as a shuffle).
const sampleCap = 2048

// skewBins is the per-axis resolution of the occupancy histogram behind
// the skew factor.
const skewBins = 16

// Stats is what the sampler extracts from a snapshot — everything the
// cost curves need, and nothing that requires a second pass.
type Stats struct {
	// N is the population (objects, not replicas).
	N int
	// Space is the indexed square space.
	Space geom.Rect
	// MeanSide and P95Side describe the MBR side-length distribution
	// (both axes pooled). Zero for point workloads.
	MeanSide, P95Side float32
	// Skew is the candidate multiplier of spatial clustering: the
	// expected factor by which object-centred queries see more
	// candidates than under a uniform distribution (1 = uniform). It is
	// the unbiased collision estimate K·Σ nᵢ(nᵢ−1)/(n(n−1)) over a
	// K-bin occupancy histogram of the sampled centres.
	Skew float64
	// QuerySide is the side length of the square query windows.
	QuerySide float32
	// Queriers and Updaters are the per-tick fractions of objects
	// querying and updating — the query:update mix the adaptive-layout
	// literature selects on.
	Queriers, Updaters float64
	// Sampled is how many objects the sampling pass actually visited.
	Sampled int
}

// String renders the sampled statistics the way the examples print them.
func (s Stats) String() string {
	side := s.Space.Width()
	return fmt.Sprintf("n=%d space=%.0f mean-side=%.0f p95-side=%.0f skew=%.2f qside=%.0f mix=%.0f%%q/%.0f%%u (sampled %d)",
		s.N, side, s.MeanSide, s.P95Side, s.Skew, s.QuerySide, s.Queriers*100, s.Updaters*100, s.Sampled)
}

// sanitize clamps degenerate inputs — zero populations, inverted or
// NaN extents, out-of-range mixes — so every downstream curve is finite
// and every selected parameter is valid. It never rejects: the selector
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
	s.P95Side = clampSide(s.P95Side)
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
	if !(s.Skew >= 1) {
		s.Skew = 1
	}
	return s
}

// SamplePoints extracts workload statistics from a point snapshot in one
// pass over at most sampleCap strided elements.
func SamplePoints(pts []geom.Point, bounds geom.Rect, h core.WorkloadHints) Stats {
	s := statsFromHints(len(pts), bounds, h)
	var hist [skewBins * skewBins]int
	n := 0
	forEachSampled(len(pts), func(i int) {
		binOf(&hist, bounds, pts[i].X, pts[i].Y)
		n++
	})
	s.Sampled = n
	s.Skew = skewFactor(hist[:], n)
	return s.sanitize()
}

// SampleBoxes extracts workload statistics from an MBR snapshot in one
// pass over at most sampleCap strided elements: extent distribution
// (mean and p95 side, both axes pooled), centre skew, and the hint-
// provided query/update mix.
func SampleBoxes(rects []geom.Rect, bounds geom.Rect, h core.WorkloadHints) Stats {
	s := statsFromHints(len(rects), bounds, h)
	var hist [skewBins * skewBins]int
	sides := make([]float32, 0, 2*sampleCap)
	var sum float64
	n := 0
	forEachSampled(len(rects), func(i int) {
		r := rects[i]
		w, ht := r.Width(), r.Height()
		if w >= 0 && !math.IsNaN(float64(w)) {
			sides = append(sides, w)
			sum += float64(w)
		}
		if ht >= 0 && !math.IsNaN(float64(ht)) {
			sides = append(sides, ht)
			sum += float64(ht)
		}
		c := r.Center()
		binOf(&hist, bounds, c.X, c.Y)
		n++
	})
	s.Sampled = n
	s.Skew = skewFactor(hist[:], n)
	if len(sides) > 0 {
		s.MeanSide = float32(sum / float64(len(sides)))
		sort.Slice(sides, func(i, j int) bool { return sides[i] < sides[j] })
		s.P95Side = sides[(len(sides)-1)*95/100]
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

// forEachSampled visits at most sampleCap indices of [0, n), evenly
// strided.
func forEachSampled(n int, visit func(i int)) {
	if n <= 0 {
		return
	}
	stride := 1
	if n > sampleCap {
		stride = (n + sampleCap - 1) / sampleCap
	}
	for i := 0; i < n; i += stride {
		visit(i)
	}
}

// binOf increments the histogram bin of (x, y), clamping coordinates on
// or outside the space into the border bins exactly like the grids do.
func binOf(hist *[skewBins * skewBins]int, bounds geom.Rect, x, y float32) {
	bx := axisBin(x-bounds.MinX, bounds.Width())
	by := axisBin(y-bounds.MinY, bounds.Height())
	hist[by*skewBins+bx]++
}

func axisBin(d, side float32) int {
	if !(side > 0) {
		return 0
	}
	f := float64(d) / float64(side) * skewBins
	if !(f > 0) { // NaN or below the space
		return 0
	}
	if f >= skewBins {
		return skewBins - 1
	}
	return int(f)
}

// skewFactor is the unbiased estimator of K·Σ pᵢ² from bin counts: the
// factor by which a query landing on a random OBJECT (not a random
// location) sees more neighbours than under uniformity. 1 for uniform
// data; ≥ 1 always.
func skewFactor(hist []int, n int) float64 {
	if n < 2 {
		return 1
	}
	var coll float64
	for _, c := range hist {
		coll += float64(c) * float64(c-1)
	}
	f := float64(len(hist)) * coll / (float64(n) * float64(n-1))
	if f < 1 {
		return 1
	}
	return f
}

package grid

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

// The four branchless filters, tier against tier: appendFilterPts,
// appendFilterXY, appendMasked1 / appendMasked2 / appendMasked with the
// vector routines of filter_amd64.s in front of their loops, and the loops
// alone (scalarTier), which are the reference. Everything here compares
// returned slices element for element.

func requireVectorTier(t *testing.T) {
	t.Helper()
	if !vectorKernels {
		t.Skip("vector tier absent: " + missingTier)
	}
}

// filterArena is one run's worth of candidates in every form a filter
// reads: candidate j has ID ids[j] and four coordinates c[j], the first two
// also its point (pts[ids[j]], and xy[2j:2j+2]), all four its plane values.
type filterArena struct {
	ids  []uint32
	pts  []geom.Point
	xy   []float32
	bg   *BoxGrid2L
	c    [][4]float32
	name string
}

// newFilterArena lays n candidates out behind a permuted ID arena, every
// slice exactly as long as its contents.
func newFilterArena(name string, n int, seed uint64, coord func(rng *xrand.Rand) float32) *filterArena {
	rng := xrand.New(seed)
	a := &filterArena{name: name, ids: make([]uint32, n), pts: make([]geom.Point, n), xy: make([]float32, 2*n),
		bg: &BoxGrid2L{mx: make([]float32, n), my: make([]float32, n), nx: make([]float32, n), ny: make([]float32, n)},
		c:  make([][4]float32, n)}
	for j := range a.ids {
		a.ids[j] = uint32(j)
	}
	rng.Shuffle(n, func(i, j int) { a.ids[i], a.ids[j] = a.ids[j], a.ids[i] })
	for j, id := range a.ids {
		c := [4]float32{coord(rng), coord(rng), coord(rng), coord(rng)}
		a.c[j] = c
		a.pts[id] = geom.Point{X: c[0], Y: c[1]}
		a.xy[2*j], a.xy[2*j+1] = c[0], c[1]
		a.bg.mx[j], a.bg.my[j], a.bg.nx[j], a.bg.ny[j] = c[0], c[1], c[2], c[3]
	}
	a.bg.ids = a.ids
	return a
}

// arenaFilter is one of the five entry points over candidates [lo, hi) of
// an arena, a rectangle's four floats serving as whatever bounds it takes.
// planes is how many one-sided plane tests it makes (0: a point window).
type arenaFilter struct {
	name   string
	planes int
	run    func(lo, hi int, r geom.Rect, buf []uint32) []uint32
}

func (a *filterArena) filters() []arenaFilter {
	return []arenaFilter{
		{"appendFilterPts", 0, func(lo, hi int, r geom.Rect, buf []uint32) []uint32 {
			return appendFilterPts(a.ids[lo:hi], a.pts, r, buf)
		}},
		{"appendFilterXY", 0, func(lo, hi int, r geom.Rect, buf []uint32) []uint32 {
			return appendFilterXY(a.ids[lo:hi], a.xy[2*lo:2*hi], r, buf)
		}},
		{"appendMasked1", 1, func(lo, hi int, r geom.Rect, buf []uint32) []uint32 {
			return a.bg.appendMasked1(uint32(lo), uint32(hi), a.bg.my, r.MinY, buf)
		}},
		{"appendMasked2", 2, func(lo, hi int, r geom.Rect, buf []uint32) []uint32 {
			return a.bg.appendMasked2(uint32(lo), uint32(hi), a.bg.nx, r.MaxX, a.bg.my, r.MinY, buf)
		}},
		{"appendMasked", 4, func(lo, hi int, r geom.Rect, buf []uint32) []uint32 {
			return a.bg.appendMasked(uint32(lo), uint32(hi), r.MinX, r.MaxX, r.MinY, r.MaxY, buf)
		}},
	}
}

const (
	filterPrefix = 3          // IDs already in buf, which a filter must leave alone
	filterCanary = 0xDEADBEEF // fills the capacity past the slots reserve promises
)

// checkTiers runs one filter over one run on both tiers and compares: the
// same IDs in the same order, the prefix kept, and nothing written past the
// len(seg) slots after it. slack is the capacity beyond those slots; a
// negative one makes reserve grow the buffer.
func checkTiers(t *testing.T, what string, n, slack int, run func(buf []uint32) []uint32) {
	t.Helper()
	var out [2][]uint32
	for tier := range out {
		buf := make([]uint32, filterPrefix, max(filterPrefix, filterPrefix+n+slack))
		for i := range buf[:cap(buf)] {
			buf[:cap(buf)][i] = filterCanary + uint32(i)
		}
		if tier == 0 {
			scalarTier(func() { out[tier] = run(buf) })
		} else {
			out[tier] = run(buf)
		}
		got := out[tier]
		for i, v := range got[:filterPrefix] {
			if v != filterCanary+uint32(i) {
				t.Fatalf("%s, tier %d: prefix slot %d overwritten with %#x", what, tier, i, v)
			}
		}
		if slack >= 0 {
			if &got[0] != &buf[0] {
				t.Fatalf("%s, tier %d: buffer reallocated with %d slots free for %d candidates", what, tier, n+slack, n)
			}
			for i, v := range buf[:cap(buf)][filterPrefix+n:] {
				if v != filterCanary+uint32(filterPrefix+n+i) {
					t.Fatalf("%s, tier %d: slot %d past the reserved region overwritten with %#x", what, tier, i, v)
				}
			}
		}
	}
	if !slices.Equal(out[0], out[1]) {
		t.Fatalf("%s: vector tier returned\n%v\nscalar loop\n%v", what, out[1][filterPrefix:], out[0][filterPrefix:])
	}
}

// sweepRuns checks every filter of a against every rectangle over lengths
// 0..70 at slice offsets 0..15.
func sweepRuns(t *testing.T, a *filterArena, rects []geom.Rect) {
	hits, tested := 0, 0
	for _, f := range a.filters() {
		for ri, r := range rects {
			for off := 0; off < 16; off++ {
				for n := 0; n <= 70; n++ {
					slack := 4
					if (off+n)%5 == 0 {
						slack = -1 - n/2 // short of capacity: reserve appends the shortfall
					}
					what := fmt.Sprintf("%s/%s, rect %d %v, run [%d:%d]", a.name, f.name, ri, r, off, off+n)
					checkTiers(t, what, n, slack, func(buf []uint32) []uint32 {
						out := f.run(off, off+n, r, buf)
						hits, tested = hits+len(out)-filterPrefix, tested+n
						return out
					})
				}
			}
		}
	}
	t.Logf("%s: %d of %d candidate tests passed the filter", a.name, hits/2, tested/2)
}

// TestFilterTiersAgreeOnDensities: no candidate passing, all of them, and a
// mix; and bounds bit-equal to a candidate's own coordinates, one side at a
// time and all four at once (a difference of +0 passes on both tiers).
func TestFilterTiersAgreeOnDensities(t *testing.T) {
	requireVectorTier(t)
	a := newFilterArena("finite", 70+15, 1, func(rng *xrand.Rand) float32 { return rng.Float32() * 100 })
	rects := []geom.Rect{
		// The point filters read a window; a plane kernel passes value >= bound.
		{MinX: -1, MinY: -1, MaxX: 101, MaxY: 101},   // every point
		{MinX: -1, MinY: -1, MaxX: -1, MaxY: -1},     // every plane value, no point
		{MinX: 200, MinY: 200, MaxX: 300, MaxY: 300}, // nothing, on any filter
		{MinX: 25, MinY: 25, MaxX: 75, MaxY: 75},     // a quarter of the points
		{MinX: 50, MinY: 50, MaxX: 50, MaxY: 50},     // half of each plane
		{MinX: 10, MinY: 90, MaxX: 90, MaxY: 95},     // a tenth of each plane
	}
	for _, j := range []int{0, 7, 8, 15, 16, 40, 84} {
		c := a.c[j]
		rects = append(rects,
			geom.Rect{MinX: c[0], MinY: -1, MaxX: 101, MaxY: 101},
			geom.Rect{MinX: -1, MinY: c[1], MaxX: 101, MaxY: 101},
			geom.Rect{MinX: -1, MinY: -1, MaxX: c[0], MaxY: 101},
			geom.Rect{MinX: -1, MinY: -1, MaxX: 101, MaxY: c[1]},
			geom.Rect{MinX: c[0], MinY: c[1], MaxX: c[2], MaxY: c[3]})
	}
	sweepRuns(t, a, rects)
}

// specials are the values the sign trick's finite-coordinate contract
// excludes, and its neighbours: both tiers must make the same thing of them.
var specials = []float32{
	float32(math.NaN()), math.Float32frombits(0xFFC00000), math.Float32frombits(0x7F800001), // +qNaN, -qNaN, sNaN
	float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.Float32frombits(0x007FFFFF), // denormals
	math.MaxFloat32, -math.MaxFloat32, 1, -1, 50, 50.000004,
}

// TestFilterTiersAgreeOnSpecials draws coordinates and bounds alike from
// specials. Neither tier claims a meaning for a NaN or an infinity here —
// both take the sign of the same IEEE difference — and this pins that they
// agree anyway, so a contract for such inputs is settled in one place.
func TestFilterTiersAgreeOnSpecials(t *testing.T) {
	requireVectorTier(t)
	pick := func(rng *xrand.Rand) float32 { return specials[rng.Intn(len(specials))] }
	a := newFilterArena("specials", 70+15, 2, pick)
	rng := xrand.New(3)
	rects := []geom.Rect{{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}}
	for len(rects) < 40 {
		rects = append(rects, geom.Rect{MinX: pick(rng), MinY: pick(rng), MaxX: pick(rng), MaxY: pick(rng)})
	}
	sweepRuns(t, a, rects)
}

// TestFilterTiersShareTheNaNContract: a point with a positive NaN
// coordinate passes the sign trick (NaN - min keeps the NaN's clear sign)
// where Query's comparisons reject it. Both tiers, or neither.
func TestFilterTiersShareTheNaNContract(t *testing.T) {
	pts := []geom.Point{{X: float32(math.NaN()), Y: 5}, {X: 5, Y: 5}, {X: 5, Y: math.Float32frombits(0xFFC00000)}}
	xy := []float32{pts[0].X, pts[0].Y, pts[1].X, pts[1].Y, pts[2].X, pts[2].Y}
	r := geom.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	want := []uint32{0, 1} // the negative NaN fails, as in Query
	check := func(tier string) {
		if got := appendFilterPts([]uint32{0, 1, 2}, pts, r, nil); !slices.Equal(got, want) {
			t.Errorf("%s tier, appendFilterPts: %v, want %v", tier, got, want)
		}
		if got := appendFilterXY([]uint32{0, 1, 2}, xy, r, nil); !slices.Equal(got, want) {
			t.Errorf("%s tier, appendFilterXY: %v, want %v", tier, got, want)
		}
	}
	scalarTier(func() { check("scalar") })
	requireVectorTier(t)
	check("vector")
}

// TestFilterRejectsForeignID: an arena ID at or past len(pts) panics with
// the runtime's index error, on either tier and wherever it sits in the
// run — the vector gather checks a block's IDs before it reads through
// them. The table is cut from a longer one, so a tier that skipped the check
// would read a live point and return instead of faulting.
func TestFilterRejectsForeignID(t *testing.T) {
	backing := make([]geom.Point, 64)
	pts := backing[:40]
	r := geom.Rect{MinX: -1, MinY: -1, MaxX: 1, MaxY: 1}
	attempt := func(what string, seg []uint32) {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true)) // a wild read fails the test, not the process
		defer func() {
			err, _ := recover().(runtime.Error)
			if err == nil || !strings.Contains(err.Error(), "index out of range") {
				t.Errorf("%s: run %v over %d points: recovered %v, want an index panic", what, seg, len(pts), err)
			}
		}()
		appendFilterPts(seg, pts, r, nil)
	}
	for _, n := range []int{1, 7, 8, 9, 16, 21} {
		for at := 0; at < n; at++ {
			for _, bad := range []uint32{uint32(len(pts)), uint32(len(pts)) + 9, 1 << 31, math.MaxUint32} {
				seg := make([]uint32, n)
				seg[at] = bad
				scalarTier(func() { attempt("scalar tier", seg) })
				if vectorKernels {
					attempt("vector tier", seg)
				}
			}
		}
	}
	if !vectorKernels {
		t.Log("scalar tier only; vector tier absent: " + missingTier)
	}
}

// TestFilterRunAtTheEndOfItsArena: runs that end on the last element of
// arrays allocated at exactly their length, so a tail block that read or
// wrote one lane too many would leave its allocation (run under -race in
// CI, whose allocator pads nothing in).
func TestFilterRunAtTheEndOfItsArena(t *testing.T) {
	requireVectorTier(t)
	r := geom.Rect{MinX: 20, MinY: 20, MaxX: 80, MaxY: 80}
	for total := 1; total <= 72; total++ {
		a := newFilterArena(fmt.Sprintf("exact-%d", total), total, uint64(total), func(rng *xrand.Rand) float32 { return rng.Float32() * 100 })
		for _, f := range a.filters() {
			for n := 1; n <= min(total, 17); n++ {
				what := fmt.Sprintf("%s/%s, run [%d:%d] of %d", a.name, f.name, total-n, total, total)
				checkTiers(t, what, n, 0, func(buf []uint32) []uint32 { return f.run(total-n, total, r, buf) })
			}
		}
	}
}

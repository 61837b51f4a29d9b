package grid

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

// BoxGrid2L's planes of quanta, and the three kernels that filter a run on
// them (appendMasked1 / appendMasked2 / appendMasked: filterPlanes1, 2 and
// 4 in front of their loops on the vector tier, the loops alone on the
// scalar one), held to the test the float32 planes made before them
// (floatPlanes) — bit for bit, in the same order, on both tiers, wherever
// that is defined (floatUndefined) — and, where edges and bounds are finite and
// none of them a zero (whose sign the difference keeps), to the same tests
// as comparisons (checkBrute). The fill, quantFill on the vector tier, is
// held to its loop. The cases put edges and window edges on, and one ulp
// either side of, quantum boundaries and cell edges, on the space's edges,
// at +0 and -0, past the space, and a window edge bit-equal to a rect's on
// each side.

// planeKernel is one kernel over some planes: run filters slots [lo, hi)
// of bg under the tests of w it reads, which tests names.
type planeKernel struct {
	name  string
	tests []uint32
	run   func(bg *BoxGrid2L, lo, hi uint32, w *[4]edgeBound, buf []uint32) []uint32
}

var edgeNames = [4]string{"MinX", "MinY", "MaxX", "MaxY"}

// planeKernels are the kernels of every arity: one plane on each edge, the
// two planes of each corner of a query span, and all four.
func planeKernels() []planeKernel {
	var ks []planeKernel
	for e := range uint32(4) {
		ks = append(ks, planeKernel{"appendMasked1/" + edgeNames[e], []uint32{e},
			func(bg *BoxGrid2L, lo, hi uint32, w *[4]edgeBound, buf []uint32) []uint32 {
				return bg.appendMasked1(lo, hi, w[e], buf)
			}})
	}
	for _, x := range []uint32{edgeMinX, edgeMaxX} {
		for _, y := range []uint32{edgeMinY, edgeMaxY} {
			ks = append(ks, planeKernel{"appendMasked2/" + edgeNames[x] + edgeNames[y], []uint32{x, y},
				func(bg *BoxGrid2L, lo, hi uint32, w *[4]edgeBound, buf []uint32) []uint32 {
					return bg.appendMasked2(lo, hi, w[x], w[y], buf)
				}})
		}
	}
	return append(ks, planeKernel{"appendMasked", []uint32{0, 1, 2, 3},
		func(bg *BoxGrid2L, lo, hi uint32, w *[4]edgeBound, buf []uint32) []uint32 {
			return bg.appendMasked(lo, hi, w, buf)
		}})
}

// floatPlanes is the filter the float32 planes made: the IDs of seg whose
// rect's edges, in plane form, less the bounds of the tests named have a
// clear sign. A noBound test passes every edge, as its -boxInf passed
// every finite one (an infinite edge is outside the contract, and an edge
// of -inf failed it).
func floatPlanes(rects []geom.Rect, seg []uint32, w *[4]edgeBound, tests []uint32) []uint32 {
	var out []uint32
	for _, id := range seg {
		var m uint32
		for _, e := range tests {
			if w[e] != noBound(e) {
				m |= math.Float32bits(edgeOf(&rects[id], e) - w[e].b)
			}
		}
		if m>>31 == 0 {
			out = append(out, id)
		}
	}
	return out
}

// checkBrute holds got, a kernel's answer over seg, to the tests as
// comparisons in place of the sign of a difference — MaxX >= bound for a
// max edge, MinX <= -bound for a min — candidate by candidate wherever
// every edge and bound compared is finite and nonzero, and returns how
// many candidates it held.
func checkBrute(t *testing.T, what string, rects []geom.Rect, seg, got []uint32, w *[4]edgeBound, tests []uint32) int {
	t.Helper()
	inContract := func(v float32) bool { return v != 0 && !math.IsInf(float64(v), 0) && v == v }
	in := make([]bool, len(rects))
	for _, id := range got {
		in[id] = true
	}
	held := 0
	for _, id := range seg {
		pass, ok := true, true
		for _, e := range tests {
			v, b := edgeOf(&rects[id], e), w[e].b
			ok = ok && inContract(v) && inContract(b)
			pass = pass && v >= b
		}
		if !ok {
			continue
		}
		held++
		if in[id] != pass {
			t.Fatalf("%s: rect %d %v under %v: kernel says %v, brute force %v", what, id, rects[id], *w, !pass, pass)
		}
	}
	return held
}

// floatUndefined reports whether the float planes' answer may differ from
// the kernels' under w: an edge or a bound is NaN, whose quantum proves
// nothing, or an edge is infinite where w holds a noBound test, which
// passes every quantum and failed an edge of -inf in plane form.
func floatUndefined(rects []geom.Rect, w *[4]edgeBound) bool {
	isNaN := func(v float32) bool { return v != v }
	sentinel := false
	for e, b := range w {
		if isNaN(b.b) {
			return true
		}
		sentinel = sentinel || b == noBound(uint32(e))
	}
	return slices.ContainsFunc(rects, func(r geom.Rect) bool {
		for _, v := range [4]float32{r.MinX, r.MinY, r.MaxX, r.MaxY} {
			if isNaN(v) || sentinel && math.IsInf(float64(v), 0) {
				return true
			}
		}
		return false
	})
}

// checkPlaneRun runs kernel k over slots [lo, hi) of bg under w on both
// tiers, behind a kept prefix, and wants floatPlanes' answer unless
// undefined (floatUndefined) and the tiers' common one everywhere; it
// returns that answer.
func checkPlaneRun(t *testing.T, what string, bg *BoxGrid2L, k planeKernel, lo, hi int, w *[4]edgeBound, undefined bool) []uint32 {
	t.Helper()
	var got [][]uint32
	mapTiers(func(tier string) {
		out := k.run(bg, uint32(lo), uint32(hi), w, []uint32{filterCanary, filterCanary + 1})
		if out[0] != filterCanary || out[1] != filterCanary+1 {
			t.Fatalf("%s, %s tier, %s: prefix overwritten: %#x %#x", what, tier, k.name, out[0], out[1])
		}
		got = append(got, out[2:])
	})
	for _, g := range got[1:] {
		if !slices.Equal(g, got[0]) {
			t.Fatalf("%s, %s: vector tier %v, scalar %v", what, k.name, g, got[0])
		}
	}
	if !undefined {
		if want := floatPlanes(bg.rects, bg.ids[lo:hi], w, k.tests); !slices.Equal(got[0], want) {
			t.Fatalf("%s, %s: %v, the float planes %v", what, k.name, got[0], want)
		}
	}
	return got[0]
}

// boxQuantCoords are the coordinates of one axis of bounds the cases draw
// edges from: quantum boundaries and cell edges and one ulp about them,
// the space's edges (quantCoords), +0 and -0, and values past the space.
func boxQuantCoords(bg *BoxGrid2L, lo, hi float32) []float32 {
	cell := bg.bounds.Width() / float32(bg.cps)
	edges := axisEdges(&bg.mapper, lo, hi, bg.cps)
	return append(quantCoords(&bg.mapper, lo, hi, edges), 0, float32(math.Copysign(0, -1)), lo-cell, hi+cell)
}

// boxQuantCases returns rects and windows over a box grid of cps on bounds:
// edges drawn from boxQuantCoords, upright and inverted, rects partly
// outside the space and larger than it, windows hanging over each side of
// it, and windows whose edge is bit-equal to a rect's facing edge.
func boxQuantCases(bounds geom.Rect, cps int, seed uint64) (*BoxGrid2L, []geom.Rect, []geom.Rect) {
	bg := MustNewBoxGrid2L(cps, bounds, 0)
	xs, ys := boxQuantCoords(bg, bounds.MinX, bounds.MaxX), boxQuantCoords(bg, bounds.MinY, bounds.MaxY)
	r := xrand.New(seed)
	pick := func(vs []float32) float32 { return vs[r.Intn(len(vs))] }
	span := func(vs []float32) (float32, float32) {
		a, b := pick(vs), pick(vs)
		return min(a, b), max(a, b)
	}
	w, cell := bounds.Width(), bounds.Width()/float32(cps)
	rects := []geom.Rect{bounds, geom.R(bounds.MinX-w, bounds.MinY-w, bounds.MaxX+w, bounds.MaxY+w),
		geom.R(bounds.MinX-cell, bounds.MinY+w/3, bounds.MinX+cell, bounds.MaxY+cell)}
	for i := range 240 {
		x0, x1 := span(xs)
		y0, y1 := span(ys)
		switch i % 8 {
		case 6:
			x0, x1 = x1, x0 // inverted on x where they differ
		case 7:
			y0, y1 = y1, y0
		}
		rects = append(rects, geom.Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1})
	}
	for range 40 {
		c := geom.Pt(r.Range(bounds.MinX, bounds.MaxX), r.Range(bounds.MinY, bounds.MaxY))
		rects = append(rects, geom.Square(c, r.Range(0, 4*cell)))
	}
	windows := []geom.Rect{bounds,
		geom.R(bounds.MinX-w/4, bounds.MinY, bounds.MinX+w/4, bounds.MaxY), geom.R(bounds.MaxX-w/4, bounds.MinY, bounds.MaxX+w/4, bounds.MaxY),
		geom.R(bounds.MinX, bounds.MinY-w/4, bounds.MaxX, bounds.MinY+w/4), geom.R(bounds.MinX, bounds.MaxY-w/4, bounds.MaxX, bounds.MaxY+w/4)}
	for i := range 60 {
		x0, x1 := span(xs)
		y0, y1 := span(ys)
		win := geom.Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}
		if i%2 == 1 { // an edge bit-equal to a rect's facing edge
			rc := rects[r.Intn(len(rects))]
			switch i / 2 % 4 {
			case 0:
				win.MinX = rc.MaxX
			case 1:
				win.MaxX = rc.MinX
			case 2:
				win.MinY = rc.MaxY
			case 3:
				win.MaxY = rc.MinY
			}
		}
		windows = append(windows, win)
	}
	return bg, rects, windows
}

// boxQuantArena fills bg's arena with rects in a seeded order, on the
// scalar tier.
func boxQuantArena(bg *BoxGrid2L, rects []geom.Rect, seed uint64) {
	ids := make([]uint32, len(rects))
	for k, id := range xrand.New(seed).Perm(len(rects)) {
		ids[k] = uint32(id)
	}
	*bg = *newPlaneGrid(bg.bounds, rects, ids)
}

// windowTests returns w's tests, and with every one in turn, and all but
// one, replaced by noBound: appendNarrow's windows of a cell first or last
// on an axis alone.
func windowTests(bg *BoxGrid2L, win geom.Rect) [][4]edgeBound {
	_, w := bg.windowOf(win)
	out := [][4]edgeBound{w}
	for e := range uint32(4) {
		v := w
		v[e] = noBound(e)
		u := [4]edgeBound{noBound(0), noBound(1), noBound(2), noBound(3)}
		u[e] = w[e]
		out = append(out, v, u)
	}
	return out
}

// TestBoxQuantTiersAgreeWithExact holds every kernel, on both tiers, to the
// float planes and to brute force over boxQuantCases at four granularities
// over three spaces, on whole arenas and on runs of every length from 0 to
// 33 (every tail a block of sixteen can leave, twice).
func TestBoxQuantTiersAgreeWithExact(t *testing.T) {
	if !vectorKernels {
		t.Log("scalar tier only; vector tier absent: " + missingTier)
	}
	brute := 0
	for si, bounds := range mapSpaces {
		for _, cps := range []int{13, 48, 64, 96} {
			bg, rects, windows := boxQuantCases(bounds, cps, uint64(si*100+cps))
			boxQuantArena(bg, rects, uint64(cps))
			for wi, win := range windows {
				for ti, w := range windowTests(bg, win) {
					undefined := floatUndefined(rects, &w)
					for _, k := range planeKernels() {
						what := fmt.Sprintf("%v cps=%d window %d %v tests %d", bounds, cps, wi, win, ti)
						got := checkPlaneRun(t, what, bg, k, 0, len(rects), &w, undefined)
						brute += checkBrute(t, what+", "+k.name, rects, bg.ids, got, &w, k.tests)
						if ti > 0 {
							continue
						}
						for n := 0; n <= 33; n++ {
							lo := (wi*37 + n) % (len(rects) - n + 1)
							checkPlaneRun(t, fmt.Sprintf("%s, run [%d:%d]", what, lo, lo+n), bg, k, lo, lo+n, &w, undefined)
						}
					}
				}
			}
		}
	}
	t.Logf("%d candidate tests held to brute force", brute)
	if brute == 0 {
		t.Error("no candidate was held to brute force")
	}
}

// TestBoxQuantTiesDecidedExactly puts every candidate of a run on a tie:
// the window's edges are each candidate's own edges in turn, so the
// kernels' second pass, and its gathers, decide every block; runs of every
// length from 0 to 33.
func TestBoxQuantTiesDecidedExactly(t *testing.T) {
	bounds := geom.R(0, 0, 22000, 22000)
	rects := randomBoxes(xrand.New(7), 200, bounds, 0, 250)
	for i := range rects {
		if i%3 == 0 { // the same edges, on every side, as candidate 0
			rects[i] = rects[0]
		}
	}
	bg := MustNewBoxGrid2L(48, bounds, 0)
	boxQuantArena(bg, rects, 8)
	ties := 0
	for _, win := range []geom.Rect{
		{MinX: rects[0].MaxX, MinY: rects[0].MaxY, MaxX: rects[0].MinX, MaxY: rects[0].MinY}, // every edge on its facing edge
		rects[0],
		{MinX: nudge(rects[0].MaxX, 1), MinY: nudge(rects[0].MaxY, -1), MaxX: nudge(rects[0].MinX, -1), MaxY: nudge(rects[0].MinY, 1)},
	} {
		for _, w := range windowTests(bg, win) {
			for _, k := range planeKernels() {
				ties += bg.tiesOf(0, uint32(len(rects)), pick(&w, k.tests)...)
				for n := 0; n <= 33; n++ {
					checkPlaneRun(t, fmt.Sprintf("window %v, run [0:%d]", win, n), bg, k, 0, n, &w, false)
				}
			}
		}
	}
	if ties == 0 {
		t.Error("no candidate tied")
	}
}

// pick returns the tests of w that tests names.
func pick(w *[4]edgeBound, tests []uint32) []edgeBound {
	out := make([]edgeBound, len(tests))
	for i, e := range tests {
		out[i] = w[e]
	}
	return out
}

// TestQuantFillTiersAgree holds quantFill to fillQuanta's loop, and both
// to quantaOf, over runs of every length from 0 to 40 of rects with edges
// on and about quantum boundaries, at the specials (NaN, infinities, ±0,
// denormals) and far past the space.
func TestQuantFillTiersAgree(t *testing.T) {
	for si, bounds := range mapSpaces {
		bg, rects, _ := boxQuantCases(bounds, 48, uint64(si))
		r := xrand.New(uint64(si))
		for range 60 {
			s := func() float32 { return specials[r.Intn(len(specials))] }
			rects = append(rects, geom.Rect{MinX: s(), MinY: s(), MaxX: s(), MaxY: s()})
		}
		ids := make([]uint32, len(rects))
		for k, id := range r.Perm(len(rects)) {
			ids[k] = uint32(id)
		}
		for n := 0; n <= 40; n++ {
			lo := (n * 31) % (len(ids) - n + 1)
			run := ids[lo : lo+n]
			mapTiers(func(tier string) {
				var q [4][]uint16
				for e := range q {
					q[e] = make([]uint16, n)
				}
				fillQuanta(&bg.mapper, rects, run, &q)
				for k, id := range run {
					want := quantaOf(&bg.mapper, &rects[id])
					if got := [4]uint16{q[0][k], q[1][k], q[2][k], q[3][k]}; got != want {
						t.Fatalf("%v, %s tier, run of %d: slot %d, rect %v: quanta %v, quantaOf %v", bounds, tier, n, k, rects[id], got, want)
					}
				}
			})
		}
	}
}

// FuzzBoxQuantTiers holds every plane kernel, on both tiers, to the float
// planes on fuzzer-chosen spaces, windows and rects (sixteen bytes a rect)
// wherever their answer is defined (floatUndefined), and to brute force where every value compared
// is finite and nonzero; the tiers to each other, and the fill's tiers to
// quantaOf, everywhere.
func FuzzBoxQuantTiers(f *testing.F) {
	nz, nan, inf := float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1))
	b := geom.R(0, 0, 22000, 22000)
	bg := MustNewBoxGrid2L(48, b, 0)
	q1 := quantEdge(&bg.mapper, 0, 777)
	// Edges on a quantum boundary and one ulp either side of it, against
	// windows on the same three.
	f.Add(uint16(47), float32(0), float32(22000), q1, q1, nudge(q1, 1), nudge(q1, -1),
		bytesOf(nudge(q1, -1), q1, q1, nudge(q1, 1), q1, nudge(q1, -1), nudge(q1, 1), q1, nudge(q1, 1), nudge(q1, 1), nudge(q1, -1), nudge(q1, -1)))
	// A window edge bit-equal to a rect's facing edge on each side.
	f.Add(uint16(12), float32(0), float32(22000), float32(500), float32(700), float32(900), float32(1100),
		bytesOf(100, 100, 500, 800, 900, 100, 1200, 800, 600, 100, 800, 700, 600, 1100, 800, 1300))
	// MinX and MinY of +0 and -0, against window edges at +0 and -0.
	f.Add(uint16(63), float32(-5000), float32(10000), nz, float32(0), float32(0), nz,
		bytesOf(0, 0, 10, 10, nz, nz, 10, 10, -10, -10, 0, nz, -10, -10, nz, 0))
	// Windows hanging over the space, rects partly outside it and larger
	// than it, and inverted ones.
	f.Add(uint16(95), float32(11000), float32(11000), float32(10000), float32(21000), float32(23000), float32(30000),
		bytesOf(10500, 10500, 11500, 11500, 21000, 21000, 23000, 23000, 0, 0, 40000, 40000, 15000, 12000, 14000, 13000, 1e30, -1e30, -1e30, 1e30))
	// Outside the contract: NaN, infinities and the window's own specials.
	f.Add(uint16(13), float32(-7000), float32(22000), nan, float32(-inf), inf, float32(0),
		bytesOf(nan, 5, 50, 60, 5, 5, nan, nan, -inf, -inf, inf, inf, 400, nan, 500, inf))
	// An infinite MinY under noBound tests, in a space on either side of
	// the rect (the fuzzer's first two finds).
	tiny := math.Float32frombits(0x30303030)
	for _, lo := range []float32{-7000, -28000} {
		f.Add(uint16(9), lo, float32(22028), nan, -inf, inf, float32(0), bytesOf(tiny, inf, tiny, tiny))
	}
	f.Fuzz(func(t *testing.T, cpsPick uint16, lo, side, x0, y0, x1, y1 float32, data []byte) {
		cps, bounds := fuzzSpace(cpsPick, lo, side, 1<<10)
		c := floatsOf(data)
		rects := make([]geom.Rect, len(c)/4)
		for i := range rects {
			rects[i] = geom.Rect{MinX: c[4*i], MinY: c[4*i+1], MaxX: c[4*i+2], MaxY: c[4*i+3]}
		}
		bg := MustNewBoxGrid2L(cps, bounds, 0)
		boxQuantArena(bg, rects, uint64(len(rects)))
		mapTiers(func(tier string) {
			var q [4][]uint16
			for e := range q {
				q[e] = make([]uint16, len(rects))
			}
			fillQuanta(&bg.mapper, rects, bg.ids, &q)
			for k, id := range bg.ids {
				if got, want := [4]uint16{q[0][k], q[1][k], q[2][k], q[3][k]}, quantaOf(&bg.mapper, &rects[id]); got != want {
					t.Fatalf("%v, %s tier: rect %v fills %v, quantaOf %v", bounds, tier, rects[id], got, want)
				}
			}
		})
		for _, w := range windowTests(bg, geom.Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}) {
			undefined := floatUndefined(rects, &w)
			for _, k := range planeKernels() {
				what := fmt.Sprintf("%v cps=%d", bounds, cps)
				got := checkPlaneRun(t, what, bg, k, 0, len(rects), &w, undefined)
				checkBrute(t, what+", "+k.name, rects, bg.ids, got, &w, k.tests)
			}
		}
	})
}

package grid

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

// The quantised filter of LayoutCSR (a one-run appendRunList: filterRuns
// on the vector tier, the exact test on the scalar one) and its definition,
// filterQLoop, held to the exact filter, appendFilterPts, which is what
// every decision they take without the base table must agree with: bit for
// bit, in the same order, on both tiers, for every position but NaN, whose
// quanta prove nothing (quantOf). The cases put points and window edges
// on, and one ulp either side of, quantum boundaries and column edges,
// points one ulp inside the space's maximum, and windows past the space or
// inverted; the windows of Grid.QueryAppend that are NaN never reach a
// filter, and are held to brute force through QueryAppend.

// quantStore is a LayoutCSR store over bounds whose arena is pts in a
// seeded order: the filter reads it as it reads a run of a built arena.
func quantStore(bounds geom.Rect, pts []geom.Point, seed uint64) *csrStore {
	st := &csrStore{mapper: newMapper(bounds, RefactoredCPS, RefactoredCPS<<columnShift), shift: columnShift, pts: pts}
	st.slots = make([]csrSlot, len(pts))
	for k, id := range xrand.New(seed).Perm(len(pts)) {
		st.slots[k] = csrSlot{uint32(id), st.mapper.quantOf(pts[id])}
	}
	return st
}

// quantEdge is the least float32 of the axis starting at lo whose quantum
// is j: the boundary between quanta j-1 and j, found as axisEdges finds a
// cell edge.
func quantEdge(m *mapper, lo float32, j uint32) float32 {
	return leastOf(lo, int(j), func(d float32) int { return int(m.fixed(d) >> 16) })
}

// quantCoords are the coordinates of one axis the tests put points and
// window edges on: each of a few quantum boundaries and one ulp either
// side, the same about the first inner edges of the axis (columns in x,
// rows in y) and the boundary of their quanta, the space's edges and one
// ulp inside them, and values past the space.
func quantCoords(m *mapper, lo, hi float32, edges []float32) []float32 {
	var out []float32
	for _, j := range []uint32{1, 2, 777, quantSteps / 3, quantSteps / 2, quantSteps - 2, quantSteps - 1} {
		out = append(out, ulpsAround([]float32{quantEdge(m, lo, j)})...)
	}
	inner := edges[1 : len(edges)-1]
	for _, e := range inner[:min(3, len(inner))] {
		out = append(out, ulpsAround([]float32{e, quantEdge(m, lo, m.fixed(e-lo)>>16)})...)
	}
	return append(out, lo, nudge(lo, 1), nudge(hi, -1), hi, lo-1, hi+1, hi+1e6)
}

// quantCases returns, for a CSR grid of cps over bounds, points with every
// pairing of quantCoords (the in-contract ones among them count on both
// sides of every boundary) and random ones, and windows whose edges are
// drawn from the same coordinates, random windows, the whole space, and
// windows past it and inverted.
func quantCases(bounds geom.Rect, cps int, seed uint64) ([]geom.Point, []geom.Rect) {
	g := MustNew(Config{Layout: LayoutCSR, Scan: ScanRange, BS: 1, CPS: cps}, bounds, 0)
	xs := quantCoords(&g.csr.mapper, bounds.MinX, bounds.MaxX, g.colEdges())
	ys := quantCoords(&g.csr.mapper, bounds.MinY, bounds.MaxY, g.rowEdges())
	r := xrand.New(seed)
	var pts []geom.Point
	for i, x := range xs {
		for j := range 3 {
			pts = append(pts, geom.Pt(x, ys[(i+7*j)%len(ys)]))
		}
	}
	pts = append(pts, randomPoints(r, 200, bounds)...)
	w := bounds.Width()
	rects := []geom.Rect{bounds, geom.R(bounds.MaxX+1, bounds.MinY, bounds.MaxX+w, bounds.MaxY),
		geom.R(bounds.MinX-w, bounds.MinY-w, bounds.MinX-1, bounds.MinY-1), geom.R(bounds.MinX-w, bounds.MinY-w, bounds.MaxX+w, bounds.MaxY+w)}
	for i := range 60 {
		x0, x1 := xs[r.Intn(len(xs))], xs[r.Intn(len(xs))]
		y0, y1 := ys[(3*i+1)%len(ys)], ys[r.Intn(len(ys))]
		rects = append(rects, geom.R(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1)),
			geom.Rect{MinX: max(x0, x1), MinY: y0, MaxX: min(x0, x1), MaxY: y1}) // x inverted where x0 != x1
	}
	for range 20 {
		c := geom.Pt(r.Range(bounds.MinX, bounds.MaxX), r.Range(bounds.MinY, bounds.MaxY))
		rects = append(rects, geom.Square(c, r.Range(0, w/4)))
	}
	return pts, rects
}

// filterRun is a query's filter of slots [lo, hi) of st on the tier it
// runs on: a one-run list, the run filtered whole, through appendRunList —
// filterRuns on the vector tier, the exact test on the scalar one.
func filterRun(st *csrStore, lo, hi int, w quantWindow, r geom.Rect, buf []uint32) []uint32 {
	return st.appendRunList([]csrRun{{uint32(lo), uint32(hi), uint32(hi), uint32(hi)}}, w, r, buf)
}

// quantDecisions is the quantised filter of slots [lo, hi) of st on the
// tier it runs on: filterRuns, through filterRun, on the vector tier, and
// its definition, filterQLoop, on the scalar one, whose filterRun takes
// the exact test instead.
func quantDecisions(st *csrStore, lo, hi int, w quantWindow, r geom.Rect, buf []uint32) []uint32 {
	if vectorKernels {
		return filterRun(st, lo, hi, w, r, buf)
	}
	return filterQLoop(st.slots[lo:hi], st.pts, w, r, reserve(buf, hi-lo), len(buf))
}

// checkQuantRun holds filterRun and quantDecisions over slots [lo, hi)
// of st to the exact filter of the same IDs on each tier, and wants nothing
// written outside the slots the filter reserves past a kept prefix.
func checkQuantRun(t *testing.T, what string, st *csrStore, lo, hi int, r geom.Rect) {
	t.Helper()
	ids := st.appendIDs(uint32(lo), uint32(hi), nil)
	var want []uint32
	scalarTier(func() { want = appendFilterPts(ids, st.pts, r, nil) })
	w := windowOf(&st.mapper, r)
	mapTiers(func(tier string) {
		for name, filter := range map[string]func(buf []uint32) []uint32{
			"filterRun":      func(buf []uint32) []uint32 { return filterRun(st, lo, hi, w, r, buf) },
			"quantDecisions": func(buf []uint32) []uint32 { return quantDecisions(st, lo, hi, w, r, buf) },
		} {
			got := filter([]uint32{filterCanary, filterCanary + 1})
			if got[0] != filterCanary || got[1] != filterCanary+1 {
				t.Fatalf("%s, %s tier, %s: prefix overwritten: %#x %#x", what, tier, name, got[0], got[1])
			}
			if !slices.Equal(got[2:], want) {
				t.Fatalf("%s, %s tier: %s returned\n%v\nthe exact filter\n%v", what, tier, name, got[2:], want)
			}
		}
	})
}

// TestQuantTiersAgreeWithExact runs every tail length 0 to 64, and runs at
// every offset of a block, of the quantised filter against the exact one,
// on both tiers, over the cases of quantCases at three granularities over
// three spaces.
func TestQuantTiersAgreeWithExact(t *testing.T) {
	if !vectorKernels {
		t.Log("scalar tier only; vector tier absent: " + missingTier)
	}
	for si, bounds := range mapSpaces {
		for _, cps := range []int{1, 13, 64} {
			pts, rects := quantCases(bounds, cps, uint64(si*100+cps))
			st := quantStore(bounds, pts, uint64(cps))
			for ri, r := range rects {
				for n := 0; n <= 64; n++ {
					lo := (ri * 37) % (len(pts) - n + 1)
					checkQuantRun(t, fmt.Sprintf("%v cps=%d rect %d %v, run [%d:%d]", bounds, cps, ri, r, lo, lo+n), st, lo, lo+n, r)
				}
			}
			checkQuantRun(t, fmt.Sprintf("%v cps=%d, whole arena", bounds, cps), st, 0, len(pts), bounds)
		}
	}
}

// TestQuantWindowsOutsideTheContract holds a CSR grid to brute force on
// windows past the space, inverted ones and ones with a NaN corner, over
// points that include the space's corners and points one ulp inside its
// maximum: the filter decides the first two kinds by their quanta, and the
// row kernel sends the last to no filter.
func TestQuantWindowsOutsideTheContract(t *testing.T) {
	nan := float32(math.NaN())
	b := testBounds
	pts := append(randomPoints(xrand.New(41), 3000, b),
		geom.Pt(b.MinX, b.MinY), geom.Pt(b.MaxX, b.MaxY), geom.Pt(nudge(b.MaxX, -1), nudge(b.MaxY, -1)),
		geom.Pt(nudge(b.MaxX, -1), 500), geom.Pt(500, nudge(b.MaxY, -1)), geom.Pt(b.MaxX, 500), geom.Pt(500, b.MaxY))
	var rects []geom.Rect
	for _, v := range []float32{b.MaxX, nudge(b.MaxX, -1), nudge(b.MaxX, 1), b.MaxX + 100, 1e30} {
		rects = append(rects,
			geom.R(v, b.MinY, v+50, b.MaxY), geom.R(b.MinX, v, b.MaxX, v+50),
			geom.R(nudge(v, -1), nudge(v, -1), v, v), geom.R(900, 900, v, v))
	}
	for _, c := range [][4]float32{
		{600, 100, 400, 900}, {100, 600, 900, 400}, {600, 600, 400, 400}, {5000, 10, -5000, 20}, // inverted
		{nan, 100, 900, 900}, {100, nan, 900, 900}, {100, 100, nan, 900}, {100, 100, 900, nan}, {nan, nan, nan, nan},
	} {
		rects = append(rects, geom.Rect{MinX: c[0], MinY: c[1], MaxX: c[2], MaxY: c[3]})
	}
	g := MustNew(CSR(), b, len(pts))
	g.Build(pts)
	mapTiers(func(tier string) {
		var buf []uint32
		for _, r := range rects {
			buf = g.QueryAppend(r, buf[:0])
			got := map[uint32]bool{}
			for _, id := range buf {
				got[id] = true
			}
			sameSet(t, got, bruteQuery(pts, r), fmt.Sprintf("%s tier, window %v", tier, r))
		}
	})
}

// FuzzQuantTiers holds filterRun on both tiers to the exact filter on
// fuzzer-chosen spaces, windows and points (eight bytes a point), where
// neither the window nor a point is NaN, and filterRuns to its definition,
// filterQLoop (quantDecisions on each tier), everywhere; for finite points
// and a finite window, none of them -0, the answer is brute force's,
// Point.In. (The quanta depend on the space alone: the granularity picks
// nothing here but keeps fuzzSpace's inputs.)
func FuzzQuantTiers(f *testing.F) {
	p := ulpOff.p
	f.Add(ulpOff.cps, ulpOff.lo, ulpOff.side, p.X, p.Y, nudge(p.X, 400), nudge(p.Y, 1),
		bytesOf(p.X, p.Y, nudge(p.X, -1), nudge(p.Y, 1), nudge(p.X, 1), nudge(p.Y, -1), 18791.666, 14000))
	f.Add(uint16(63), float32(0), float32(22000), float32(0), float32(0), float32(22000), float32(22000),
		bytesOf(float32(math.NaN()), 5, float32(math.Copysign(0, -1)), float32(math.Inf(1)), 1e30, -1e30, 22000, 0, 21999.998, 343.75, 85.9375, 100))
	f.Add(uint16(0), float32(-5), float32(10), float32(-1), float32(-1), float32(1), float32(2),
		bytesOf(-5, -5, 5, 5, 0, 0, 4.9999995, -5.0000005, 2.5, 2.5, 1, 2, 3, 4, 5, 6, 7, 8, -1, -1, 1, 2))
	// A -0 on a window edge at 0, which the sign trick rejects.
	f.Add(uint16(63), float32(-68), float32(22000), float32(-65), float32(0), float32(22000), float32(22000),
		bytesOf(math.Float32frombits(0x30303030), float32(math.Copysign(0, -1))))
	f.Fuzz(func(t *testing.T, cpsPick uint16, lo, side, x0, y0, x1, y1 float32, data []byte) {
		cps, bounds := fuzzSpace(cpsPick, lo, side, MaxCSRCPS)
		c := floatsOf(data)
		pts := make([]geom.Point, len(c)/2)
		for i := range pts {
			pts[i] = geom.Pt(c[2*i], c[2*i+1])
		}
		st := quantStore(bounds, pts, uint64(len(pts)))
		r := geom.Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}
		w := windowOf(&st.mapper, r)
		var decided, filtered [][]uint32
		mapTiers(func(string) {
			decided = append(decided, quantDecisions(st, 0, len(pts), w, r, nil))
			filtered = append(filtered, filterRun(st, 0, len(pts), w, r, nil))
		})
		for _, got := range decided[1:] {
			if !slices.Equal(got, decided[0]) {
				t.Fatalf("cps=%d %v, window %v: filterQ %v, filterQLoop %v", cps, bounds, r, got, decided[0])
			}
		}
		isNaN := func(v float32) bool { return v != v }
		if isNaN(x0) || isNaN(y0) || isNaN(x1) || isNaN(y1) || slices.ContainsFunc(pts, func(p geom.Point) bool { return isNaN(p.X) || isNaN(p.Y) }) {
			return
		}
		want := appendFilterPts(st.appendIDs(0, uint32(len(pts)), nil), pts, r, nil)
		for _, got := range append(filtered, decided[0]) {
			if !slices.Equal(got, want) {
				t.Fatalf("cps=%d %v, window %v: quantised filter %v, exact %v", cps, bounds, r, got, want)
			}
		}
		// Brute force holds where the sign trick's contract does: finite
		// values, and no -0, which an edge at 0 subtracts to -0 and rejects
		// where Point.In admits it (appendFilterPts).
		inContract := func(v float32) bool { return !math.IsInf(float64(v), 0) && !(v == 0 && math.Signbit(float64(v))) }
		if !inContract(x0) || !inContract(y0) || !inContract(x1) || !inContract(y1) {
			return
		}
		in := map[uint32]bool{}
		for _, id := range want {
			in[id] = true
		}
		for id, p := range pts {
			if inContract(p.X) && inContract(p.Y) && p.In(r) != in[uint32(id)] {
				t.Fatalf("cps=%d %v, window %v: point %d %v in the window: %v, filters say %v", cps, bounds, r, id, p, p.In(r), in[uint32(id)])
			}
		}
	})
}

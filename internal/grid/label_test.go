package grid

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
)

// The counting sort's mapping pass, tier against tier: labelPoints and
// spanPass with labelPts / spanRects (label_amd64.s) in front of their
// loops, and the loops alone (scalarTier), every output held to the
// definition, columnMapper.labelOf and cellMapper.spanOf, element by
// element, and checked for writes past the objects it was given.

const (
	labelBlock = 8 // points a labelPts block
	spanBlock  = 4 // rectangles a spanRects block
	mapCanary  = 0xDEADBEEF
	mapSlack   = 9 // canary slots past the objects, more than a block's worth of spans
)

// mapTiers runs f once on each tier this process has, naming it.
func mapTiers(f func(tier string)) {
	scalarTier(func() { f("scalar") })
	if vectorKernels {
		f("vector")
	}
}

// checkLabelTiers fails t unless labelPoints writes m.labelOf(p) for every
// point of pts, and nothing past them, on each tier.
func checkLabelTiers(t *testing.T, what string, m *columnMapper, pts []geom.Point) {
	t.Helper()
	mapTiers(func(tier string) {
		out := make([]uint32, len(pts)+mapSlack)
		for i := range out {
			out[i] = mapCanary
		}
		labelPoints(m, pts, out)
		for i, p := range pts {
			if want := m.labelOf(p); out[i] != want {
				t.Fatalf("%s, %s tier: label of point %d of %d %v (%#x, %#x) is %d, labelOf says %d",
					what, tier, i, len(pts), p, math.Float32bits(p.X), math.Float32bits(p.Y), out[i], want)
			}
		}
		for i, v := range out[len(pts):] {
			if v != mapCanary {
				t.Fatalf("%s, %s tier: slot %d past %d points overwritten with %#x", what, tier, i, len(pts), v)
			}
		}
	})
}

// checkSpanTiers is checkLabelTiers for spanPass against m.spanOf.
func checkSpanTiers(t *testing.T, what string, m *cellMapper, rects []geom.Rect) {
	t.Helper()
	canary := cellSpan{mapCanary & 0xffff, mapCanary >> 16, mapCanary & 0xffff, mapCanary >> 16}
	mapTiers(func(tier string) {
		out := make([]cellSpan, len(rects)+mapSlack)
		for i := range out {
			out[i] = canary
		}
		spanPass(m, rects, out)
		for i, r := range rects {
			if want := m.spanOf(r); out[i] != want {
				t.Fatalf("%s, %s tier: span of rect %d of %d %v is %+v, spanOf says %+v", what, tier, i, len(rects), r, out[i], want)
			}
		}
		for i, v := range out[len(rects):] {
			if v != canary {
				t.Fatalf("%s, %s tier: slot %d past %d rects overwritten with %+v", what, tier, i, len(rects), v)
			}
		}
	})
}

// mapSpecials are the coordinates outside the mappers' finite in-space
// contract: NaN of either sign, the infinities, both zeros, denormals, and
// values far enough out that their product overflows int.
var mapSpecials = []float32{
	float32(math.NaN()), math.Float32frombits(0xFFC00000), math.Float32frombits(0x7F800001),
	float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	1e30, -1e30, math.MaxFloat32, -math.MaxFloat32, 1 << 31, -(1 << 31),
}

// ulpsAround returns every edge and the floats one ulp either side of it.
func ulpsAround(edges []float32) []float32 {
	out := make([]float32, 0, 3*len(edges))
	for _, e := range edges {
		out = append(out, nudge(e, -1), e, nudge(e, 1))
	}
	return out
}

// withSpecials returns vals with mapSpecials and a point outside either
// end of the space added.
func withSpecials(vals []float32, min, max float32) []float32 {
	return append(append(vals, mapSpecials...), min-1, max+1, min-1e6, max+1e6)
}

// mapSpaces are the squares the tier tests map over: the benchmark's
// space, the quarter of it where TestPointWithinUlpOfEdge's point lies,
// and one whose two minima differ.
var mapSpaces = []geom.Rect{geom.R(0, 0, 22000, 22000), geom.R(11000, 11000, 22000, 22000), geom.R(-7000, 3000, 15000, 25000)}

var mapCPS = []int{1, 13, 48, 64, 96, 192}

// labelCases returns a CSR grid's mapper over bounds at cps and points
// that put, in turn, every x within an ulp of every column edge and every
// y within an ulp of every row edge, each paired with a value of the other
// axis' list, then every special against every special and against a
// value of the space.
func labelCases(bounds geom.Rect, cps int) (*columnMapper, []geom.Point) {
	g := MustNew(Config{Layout: LayoutCSR, Scan: ScanRange, BS: 1, CPS: cps}, bounds, 0)
	xs := withSpecials(ulpsAround(g.colXs), bounds.MinX, bounds.MaxX)
	ys := withSpecials(ulpsAround(g.ys), bounds.MinY, bounds.MaxY)
	var pts []geom.Point
	for i := range max(len(xs), len(ys)) {
		pts = append(pts, geom.Pt(xs[i%len(xs)], ys[(7*i+3)%len(ys)]))
	}
	mid := bounds.Center()
	for _, a := range mapSpecials {
		pts = append(pts, geom.Pt(a, mid.Y), geom.Pt(mid.X, a))
		for _, b := range mapSpecials {
			pts = append(pts, geom.Pt(a, b))
		}
	}
	return &g.csr.mapper, pts
}

// spanCases is labelCases for the box grids' mapper: every value of the
// edge-and-special list appears in each of a rectangle's four fields, the
// fields drawn at different strides so that inverted, degenerate and
// space-covering rectangles all occur.
func spanCases(bounds geom.Rect, cps int) (*cellMapper, []geom.Rect) {
	m := testMapper(cps, bounds)
	cell := bounds.Width() / float32(cps)
	xs := withSpecials(ulpsAround(m.edges(bounds.MinX, bounds.MaxX, cell)), bounds.MinX, bounds.MaxX)
	ys := withSpecials(ulpsAround(m.edges(bounds.MinY, bounds.MaxY, cell)), bounds.MinY, bounds.MaxY)
	var rects []geom.Rect
	for i := range max(len(xs), len(ys)) {
		rects = append(rects, geom.Rect{
			MinX: xs[i%len(xs)], MinY: ys[(3*i+1)%len(ys)],
			MaxX: xs[(5*i+2)%len(xs)], MaxY: ys[(11*i+3)%len(ys)],
		})
	}
	return &m, rects
}

// sweepLengths checks every length from 0 to 2*block+1 over n objects: the
// whole run cut into consecutive pieces of that length, so every object is
// mapped at every lane of a full block and of every tail.
func sweepLengths(n, block int, check func(lo, hi int)) {
	check(0, n)
	for k := 0; k <= 2*block+1; k++ {
		if k == 0 {
			check(0, 0)
			continue
		}
		for lo := 0; lo < n; lo += k {
			check(lo, min(lo+k, n))
		}
	}
}

// TestLabelTiersAgree holds labelPts to labelOf at every tail length, on
// every cell and column edge ±1 ulp on both axes, and on NaN, ±Inf, −0 and
// coordinates far outside the space, at six granularities over three spaces.
func TestLabelTiersAgree(t *testing.T) {
	if !vectorKernels {
		t.Log("scalar tier only; vector tier absent: " + missingTier)
	}
	for _, bounds := range mapSpaces {
		for _, cps := range mapCPS {
			m, pts := labelCases(bounds, cps)
			sweepLengths(len(pts), labelBlock, func(lo, hi int) {
				checkLabelTiers(t, fmt.Sprintf("%v cps=%d [%d:%d]", bounds, cps, lo, hi), m, pts[lo:hi])
			})
		}
	}
}

// TestSpanTiersAgree is TestLabelTiersAgree for spanRects and spanOf.
func TestSpanTiersAgree(t *testing.T) {
	if !vectorKernels {
		t.Log("scalar tier only; vector tier absent: " + missingTier)
	}
	for _, bounds := range mapSpaces {
		for _, cps := range mapCPS {
			m, rects := spanCases(bounds, cps)
			sweepLengths(len(rects), spanBlock, func(lo, hi int) {
				checkSpanTiers(t, fmt.Sprintf("%v cps=%d [%d:%d]", bounds, cps, lo, hi), m, rects[lo:hi])
			})
		}
	}
}

// TestSpanTiersAtMaxBoxCPS: at the finest box grid the clamp's n-1 is
// 65535, the largest value the uint16 narrowing keeps.
func TestSpanTiersAtMaxBoxCPS(t *testing.T) {
	bounds := geom.R(0, 0, MaxBoxCPS, MaxBoxCPS)
	m := testMapper(MaxBoxCPS, bounds)
	var rects []geom.Rect
	for _, v := range withSpecials([]float32{0, 1, 65534, 65535, 65535.5, 65536, nudge(65536, -1)}, 0, MaxBoxCPS) {
		rects = append(rects, geom.Rect{MinX: v, MinY: 0, MaxX: v, MaxY: MaxBoxCPS}, geom.Rect{MinX: -1, MinY: v, MaxX: 1e9, MaxY: v})
	}
	checkSpanTiers(t, "cps=MaxBoxCPS", &m, rects)
}

// fuzzSpace turns fuzzer-chosen granularity and space into a valid square:
// cps in [1, limit], a finite minimum and a positive finite side (the
// benchmark's space when the fuzzer's is not).
func fuzzSpace(cps uint16, lo, side float32, limit int) (int, geom.Rect) {
	if !(side > 0 && side < 1e30) || !(lo > -1e30 && lo < 1e30) || lo+side == lo {
		lo, side = 0, 22000
	}
	return 1 + int(cps)%limit, geom.R(lo, lo, lo+side, lo+side)
}

// floatsOf reads data as little-endian float32s, a ragged tail dropped.
func floatsOf(data []byte) []float32 {
	f := make([]float32, len(data)/4)
	for i := range f {
		f[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
	}
	return f
}

// bytesOf is floatsOf's inverse, for seed corpora.
func bytesOf(f ...float32) []byte {
	b := make([]byte, 0, 4*len(f))
	for _, v := range f {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// ulpOff is TestPointWithinUlpOfEdge's case: a point one ulp from a cell
// edge on a space whose cell width is not float32-exact.
var ulpOff = struct {
	cps      uint16
	lo, side float32
	p        geom.Point
}{47, 11000, 11000, geom.Pt(18791.666, 13924.974)}

// FuzzLabelTiers holds the two label tiers together on fuzzer-chosen
// granularities, spaces and points (eight bytes a point).
func FuzzLabelTiers(f *testing.F) {
	p := ulpOff.p
	f.Add(ulpOff.cps, ulpOff.lo, ulpOff.side, bytesOf(p.X, p.Y, nudge(p.X, -1), nudge(p.Y, 1), nudge(p.X, 1), nudge(p.Y, -1)))
	f.Add(uint16(63), float32(0), float32(22000), bytesOf(float32(math.NaN()), float32(math.Copysign(0, -1)), float32(math.Inf(1)), 1e30, -1e30, 22000, 0, 21999.998, 343.75, 85.9375))
	f.Add(uint16(0), float32(-5), float32(10), bytesOf(-5, -5, 5, 5, 0, 0, 4.9999995, -5.0000005, 2.5, 2.5, 1, 2, 3, 4, 5, 6, 7, 8))
	f.Fuzz(func(t *testing.T, cpsPick uint16, lo, side float32, data []byte) {
		cps, bounds := fuzzSpace(cpsPick, lo, side, MaxCSRCPS)
		rows := testMapper(cps, bounds)
		m := newColumnMapper(rows, columnsOf(rows, columnShift))
		c := floatsOf(data)
		pts := make([]geom.Point, len(c)/2)
		for i := range pts {
			pts[i] = geom.Pt(c[2*i], c[2*i+1])
		}
		checkLabelTiers(t, fmt.Sprintf("cps=%d %v", cps, bounds), &m, pts)
	})
}

// FuzzSpanTiers is FuzzLabelTiers for spans (sixteen bytes a rectangle).
func FuzzSpanTiers(f *testing.F) {
	p := ulpOff.p
	f.Add(ulpOff.cps, ulpOff.lo, ulpOff.side, bytesOf(p.X, p.Y, nudge(p.X, 1), nudge(p.Y, 1), nudge(p.X, -1), nudge(p.Y, -1), p.X, p.Y))
	f.Add(uint16(47), float32(0), float32(22000), bytesOf(float32(math.NaN()), float32(math.Copysign(0, -1)), float32(math.Inf(1)), 1e30, -1e30, 22000, 0, 21999.998, 343.75, 85.9375, 100, 50))
	f.Add(uint16(math.MaxUint16), float32(0), float32(MaxBoxCPS), bytesOf(0, 65535, 65535.5, 65536, -1, 1e9, 65535, 65534))
	f.Fuzz(func(t *testing.T, cpsPick uint16, lo, side float32, data []byte) {
		cps, bounds := fuzzSpace(cpsPick, lo, side, MaxBoxCPS)
		m := testMapper(cps, bounds)
		c := floatsOf(data)
		rects := make([]geom.Rect, len(c)/4)
		for i := range rects {
			rects[i] = geom.Rect{MinX: c[4*i], MinY: c[4*i+1], MaxX: c[4*i+2], MaxY: c[4*i+3]}
		}
		checkSpanTiers(t, fmt.Sprintf("cps=%d %v", cps, bounds), &m, rects)
	})
}

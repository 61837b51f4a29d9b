package grid

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
)

// The cell walk decides "skip", "filter" and "copy whole" from the edge
// tables while entries are placed by the multiplicative mapper; these
// tests pin the two to each other at the only coordinates where they can
// disagree — within a few ulps of a cell edge.

var pointLayouts = []Layout{LayoutLinked, LayoutInline, LayoutInlineXY, LayoutIntrusive, LayoutCSR, LayoutCSRXY}

// nudge moves v by n ulps (negative n towards -inf).
func nudge(v float32, n int) float32 {
	dir := float32(math.Inf(1))
	if n < 0 {
		dir, n = float32(math.Inf(-1)), -n
	}
	for ; n > 0; n-- {
		v = math.Nextafter32(v, dir)
	}
	return v
}

// assertKernelsMatchBrute holds both query kernels of g against brute
// force over pts for every query: zero misses, zero extras.
func assertKernelsMatchBrute(t *testing.T, g *Grid, pts []geom.Point, queries []geom.Rect) {
	t.Helper()
	var buf []uint32
	for _, q := range queries {
		want := bruteQuery(pts, q)
		sameSet(t, collect(g, q), want, fmt.Sprintf("%s emit %v", g.Name(), q))
		buf = g.QueryAppend(q, buf[:0])
		got := make(map[uint32]bool, len(buf))
		for _, id := range buf {
			if got[id] {
				t.Fatalf("%s append %v: id %d reported twice", g.Name(), q, id)
			}
			got[id] = true
		}
		sameSet(t, got, want, fmt.Sprintf("%s append %v", g.Name(), q))
	}
}

// TestPointWithinUlpOfEdge is the reproducer: with a cell width that is
// not float32-exact the additive edge table put this point's cell edge
// one ulp on the wrong side of it, and the walk skipped the cell.
func TestPointWithinUlpOfEdge(t *testing.T) {
	for _, tc := range []struct {
		bounds geom.Rect
		cps    int
		p      geom.Point
	}{
		{geom.R(11000, 11000, 22000, 22000), 48, geom.Pt(18791.666, 13924.974)},
	} {
		for _, layout := range pointLayouts {
			cfg := Config{Layout: layout, Scan: ScanRange, BS: RefactoredBS, CPS: tc.cps}
			g := MustNew(cfg, tc.bounds, 1)
			pts := []geom.Point{tc.p}
			g.Build(pts)
			assertKernelsMatchBrute(t, g, pts, []geom.Rect{tc.p.Rect()})
		}
	}
}

// edgeProbes places a point within ±4 ulps of every interior cell edge of a
// cps-per-side grid over bounds, on both axes, and probes each with a
// degenerate window (the epoch validator's membership probe) and with
// windows one cell wide on either side of it (so whole-cell copies are
// exercised too).
func edgeProbes(bounds geom.Rect, cps int) (pts []geom.Point, queries []geom.Rect) {
	cell := bounds.Width() / float32(cps)
	for c := 1; c < cps; c++ {
		// Off-edge coordinate of each probe: mid-cell, varying with c.
		mid := float32(c-1)*cell + cell/3
		for d := -4; d <= 4; d++ {
			pts = append(pts,
				geom.Pt(nudge(bounds.MinX+float32(c)*cell, d), bounds.MinY+mid),
				geom.Pt(bounds.MinX+mid, nudge(bounds.MinY+float32(c)*cell, d)))
		}
	}
	queries = make([]geom.Rect, 0, 3*len(pts))
	for _, p := range pts {
		queries = append(queries, p.Rect(),
			geom.R(p.X, p.Y, p.X+cell, p.Y+cell),
			geom.R(p.X-cell, p.Y-cell, p.X, p.Y))
	}
	return pts, queries
}

// TestEdgeUlpNeighbourhood holds every point layout and both kernels to
// brute force on edgeProbes. (TestCSRRunPathMatchesCellWalk repeats the
// probes on a CSR arena that is not dense.)
func TestEdgeUlpNeighbourhood(t *testing.T) {
	for _, bounds := range []geom.Rect{geom.R(0, 0, 22000, 22000), geom.R(11000, 11000, 22000, 22000)} {
		for _, cps := range []int{13, 48, 64, 96, 192} {
			pts, queries := edgeProbes(bounds, cps)
			for _, layout := range pointLayouts {
				cfg := Config{Layout: layout, Scan: ScanRange, BS: RefactoredBS, CPS: cps}
				t.Run(fmt.Sprintf("%v/cps=%d/%s", bounds, cps, layout), func(t *testing.T) {
					g := MustNew(cfg, bounds, len(pts))
					g.Build(pts)
					assertKernelsMatchBrute(t, g, pts, queries)
				})
			}
		}
	}
}

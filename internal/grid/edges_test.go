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

// columnProbes is edgeProbes for the x-columns of a CSR grid (cols of them
// over bounds, in rows of a cps-per-side grid): a point within ±4 ulps of
// every stride-th interior column edge, probed with a degenerate window and
// with windows that begin, or end, on the point, reach a little over three
// columns to the other side and contain the point's row — so the run path
// filters the column of the probed edge, copies the ones between and
// filters the far one.
func columnProbes(bounds geom.Rect, cps, cols, stride int) (pts []geom.Point, queries []geom.Rect) {
	cell, col := bounds.Width()/float32(cps), bounds.Width()/float32(cols)
	for c := 1; c < cols; c += stride {
		y := bounds.MinY + float32(c%cps)*cell + cell/3
		for d := -4; d <= 4; d++ {
			pts = append(pts, geom.Pt(nudge(bounds.MinX+float32(c)*col, d), y))
		}
	}
	queries = make([]geom.Rect, 0, 3*len(pts))
	for _, p := range pts {
		queries = append(queries, p.Rect(),
			geom.R(p.X, p.Y-1.2*cell, p.X+3.3*col, p.Y+1.2*cell),
			geom.R(p.X-3.3*col, p.Y-1.2*cell, p.X, p.Y+1.2*cell))
	}
	return pts, queries
}

// TestEdgeUlpNeighbourhood holds every point layout and both kernels to
// brute force on edgeProbes, and the CSR layouts on columnProbes as well: 52,
// 192 and 384 columns are widths float32 cannot hold exactly, like the 13,
// 48 and 96 cells they refine. (TestCSRRunPathMatchesCellWalk repeats the
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
					if g.csr == nil || cps > 96 {
						return
					}
					colPts, colQueries := columnProbes(bounds, cps, g.cols.cps, 1)
					g.Build(colPts)
					assertKernelsMatchBrute(t, g, colPts, colQueries)
				})
			}
		}
	}
}

// TestColumnsRefineCells pins what lets everything outside the dense run
// path ignore the columns: the column mapper and the cell mapper are one
// function at two resolutions. At every column edge, a few ulps around it
// and where the additive formula would have put it, column>>shift is the
// cell the grid's own mapper names, as the store's label is (its own copy
// of the clamp included); every column edge is the least float32 of its
// column; and every (1<<shift)th one is the cell edge, bit for bit.
func TestColumnsRefineCells(t *testing.T) {
	for _, bounds := range []geom.Rect{geom.R(0, 0, 22000, 22000), geom.R(11000, 11000, 22000, 22000), testBounds} {
		for _, cps := range []int{1, 13, 48, 64, 96, 100, 192} {
			for shift := uint(0); shift <= 3; shift++ {
				g, err := newGrid(Config{Layout: LayoutCSR, Scan: ScanRange, BS: 1, CPS: cps}, bounds, 0, shift)
				if err != nil {
					t.Fatal(err)
				}
				cols := g.cols.cps
				if cols != cps<<shift || len(g.colXs) != cols+1 || g.csr.shift != shift {
					t.Fatalf("cps=%d shift=%d: %d columns, %d edges, store shift %d", cps, shift, cols, len(g.colXs), g.csr.shift)
				}
				agree := func(x float32) {
					t.Helper()
					d := x - bounds.MinX
					if col, cell := g.cols.axisCell(d), g.axisCell(d); col>>shift != cell {
						t.Fatalf("%v cps=%d shift=%d: x=%v lies in column %d (cell %d) and in cell %d", bounds, cps, shift, x, col, col>>shift, cell)
					}
					p := geom.Pt(x, bounds.MinY+bounds.Height()/3)
					if label := g.csr.mapper.labelOf(p); int(label>>shift) != g.cellIndexFor(p) {
						t.Fatalf("%v cps=%d shift=%d: %v labelled %d (cell %d), the grid says cell %d", bounds, cps, shift, p, label, label>>shift, g.cellIndexFor(p))
					}
				}
				// Beyond the space both clamp, to the same side.
				inf := float32(math.Inf(1))
				for _, x := range []float32{-inf, bounds.MinX - 1e9, nudge(bounds.MinX, -1), nudge(bounds.MaxX, 1), bounds.MaxX + 1e9, inf, float32(math.NaN())} {
					agree(x)
				}
				width := bounds.Width() / float32(cols)
				for f := 0; f <= cols; f++ {
					e := g.colXs[f]
					for d := -4; d <= 4; d++ {
						agree(nudge(e, d))
						agree(nudge(bounds.MinX+float32(f)*width, d))
					}
					if f%(1<<shift) == 0 && e != g.xs[f>>shift] {
						t.Fatalf("%v cps=%d shift=%d: column edge %d is %v, cell edge %d is %v", bounds, cps, shift, f, e, f>>shift, g.xs[f>>shift])
					}
					if f == 0 || f == cols {
						continue
					}
					if got := g.cols.axisCell(e - bounds.MinX); got != f {
						t.Fatalf("%v cps=%d shift=%d: column edge %d = %v maps to column %d", bounds, cps, shift, f, e, got)
					}
					if got := g.cols.axisCell(nudge(e, -1) - bounds.MinX); got != f-1 {
						t.Fatalf("%v cps=%d shift=%d: one ulp below column edge %d = %v maps to column %d", bounds, cps, shift, f, e, got)
					}
				}
			}
		}
	}
}

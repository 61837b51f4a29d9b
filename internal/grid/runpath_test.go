package grid

// The differential test of the CSR layouts' query walk (csrStore.appendRuns,
// the run path): held against the per-cell walk of the inline layout and
// brute force on every kind of window.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

// kernelWindows returns the query set of the differential test for g: the
// span shapes the run path distinguishes, in columns and in cells, window
// edges on and one ulp around column edges (in y, cell edges), and the
// rectangles outside the input contract of a well-formed window, for which
// the contract is "whatever Query returns".
func kernelWindows(g *Grid) []geom.Rect {
	cps, cols, xs, ys, colXs := g.cfg.CPS, g.mapper.cols, g.cellEdges(), g.rowEdges(), g.colEdges()
	b := g.bounds
	w := b.Width() / float32(cps)
	type extent struct{ lo, hi float32 }
	// spans lists extents covering exactly 1, 2 and 3 of an axis' n units of
	// width u (starting a third of the way in) and the whole axis.
	spans := func(e []float32, n int, u float32) []extent {
		c := n / 3
		return []extent{
			{e[c] + u/4, e[c] + u/2},
			{e[c] + u/4, e[c+1] + u/2},
			{e[c] + u/4, e[c+2] + u/2},
			{e[0], e[n]},
		}
	}
	var out []geom.Rect
	for _, x := range append(spans(colXs, cols, b.Width()/float32(cols)), spans(xs, cps, w)...) {
		for _, y := range spans(ys, cps, w) {
			out = append(out, geom.R(x.lo, y.lo, x.hi, y.hi))
		}
	}
	// Edges snapped onto unit edges, and one ulp to either side: in x from a
	// column edge that is no cell edge, for spans of 2, 3, 4 and 6 columns
	// (the last crosses a cell edge at four columns to the cell); in y from a
	// cell edge, for spans of 2 and 3 rows.
	snapped := func(e []float32, c int, ks ...int) (out []extent) {
		for _, k := range ks {
			for _, d0 := range []int{-1, 0, 1} {
				for _, d1 := range []int{-1, 0, 1} {
					out = append(out, extent{nudge(e[c], d0), nudge(e[c+k], d1)})
				}
			}
		}
		return out
	}
	c := cps / 2
	for _, x := range snapped(colXs, cols/2+1, 1, 2, 3, 5) {
		for _, y := range snapped(ys, c, 1, 2) {
			out = append(out, geom.R(x.lo, y.lo, x.hi, y.hi))
		}
	}
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	// raw keeps its corners as given; geom.R would put them in order.
	raw := func(x0, y0, x1, y1 float32) geom.Rect { return geom.Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1} }
	mid := b.MinX + b.Width()/2
	out = append(out,
		// Partly and wholly outside the space.
		geom.R(b.MinX-500, b.MinY-500, b.MinX+300, b.MinY+300),
		geom.R(b.MaxX-200, b.MaxY-2*w-10, b.MaxX+1000, b.MaxY+1000),
		geom.R(b.MinX-5000, b.MinY-100, b.MaxX+5000, b.MaxY+100),
		geom.R(b.MinX-900, b.MinY, b.MinX-100, b.MaxY),
		geom.R(b.MaxX+1000, b.MaxY+1000, b.MaxX+2000, b.MaxY+2000),
		geom.R(b.MinX, b.MinY-900, b.MaxX, b.MinY-100),
		// Zero-area: a row-long and a column-long segment, and a point.
		geom.R(b.MinX, mid, b.MaxX, mid),
		geom.R(mid, b.MinY, mid, b.MaxY),
		geom.R(mid, mid, mid, mid),
		// Inverted: across cells and inside one, on either axis and both.
		raw(mid+3*w, b.MinY, mid-3*w, b.MaxY),
		raw(xs[c]+0.6*w, b.MinY, xs[c]+0.4*w, b.MaxY),
		raw(b.MinX, mid+3*w, b.MaxX, mid-3*w),
		raw(b.MinX, ys[c]+0.6*w, b.MaxX, ys[c]+0.4*w),
		raw(mid+w, mid+w, mid-w, mid-w),
		// Infinite edges.
		raw(-inf, -inf, inf, inf),
		raw(-inf, mid, mid, inf),
		raw(mid, -inf, inf, mid),
		raw(inf, inf, inf, inf),
		raw(-inf, -inf, -inf, -inf),
		raw(inf, b.MinY, -inf, b.MaxY),
		// NaN in each field of a window that otherwise covers the space (so
		// an unchecked interior copy or filter would report everything).
		raw(nan, b.MinY, b.MaxX, b.MaxY),
		raw(b.MinX, nan, b.MaxX, b.MaxY),
		raw(b.MinX, b.MinY, nan, b.MaxY),
		raw(b.MinX, b.MinY, b.MaxX, nan),
		raw(nan, nan, nan, nan),
	)
	return out
}

// TestCSRRunPathMatchesCellWalk answers one query set three ways — by
// QueryAppend on the CSR arena (the run path), by QueryAppend on the inline
// layout over the same points (the per-cell walk, under Algorithm 1 for
// full-scan and Algorithm 2 for range-scan; the CSR layouts answer by
// Algorithm 2 only), and by brute force — and wants identical sorted ID
// lists, a dirty buffer prefix intact, and a buffer never sized for more
// than the cells a window touches. The cell counts give 52, 192, 256 and
// 384 columns: all but the third of a width float32 cannot hold exactly.
func TestCSRRunPathMatchesCellWalk(t *testing.T) {
	bounds := geom.R(0, 0, 22000, 22000)
	prefix := []uint32{0xdeadbeef, 7}
	for _, layout := range []Layout{LayoutCSR, LayoutCSRXY} {
		for _, cps := range []int{13, 48, 64, 96} {
			for _, scan := range []Scan{ScanRange, ScanFull} {
				t.Run(fmt.Sprintf("%s/cps=%d/%s", layout, cps, scan), func(t *testing.T) {
					g := MustNew(Config{Layout: layout, Scan: ScanRange, BS: 1, CPS: cps}, bounds, 0)
					walk := MustNew(Config{Layout: LayoutInline, Scan: scan, BS: RefactoredBS, CPS: cps}, bounds, 0)
					r := xrand.New(uint64(71 + cps))
					edgePts, edgeQueries := edgeProbes(g)
					// About fifty of the column edges; TestEdgeUlpNeighbourhood
					// probes every one.
					colPts, colQueries := columnProbes(g, 1+g.mapper.cols/50)
					edgePts, edgeQueries = append(edgePts, colPts...), append(edgeQueries, colQueries...)
					windows := kernelWindows(g)

					// One directory row holds the whole herd.
					xs, ys, w := g.cellEdges(), g.rowEdges(), bounds.Width()/float32(cps)
					row := geom.R(bounds.MinX, ys[cps/2], bounds.MaxX, nudge(ys[cps/2+1], -1))
					populations := []struct {
						name    string
						pts     []geom.Point
						queries []geom.Rect
					}{
						{"uniform+edges", append(randomPoints(r, 3000, bounds), edgePts...), append(edgeQueries, windows...)},
						{"one row", randomPoints(r, 2000, row), windows},
						{"empty", nil, windows},
					}
					for _, pop := range populations {
						pts := pop.pts
						g.Build(pts)
						walk.Build(pts)
						for _, q := range pop.queries {
							var want []uint32
							for id, p := range pts {
								if p.In(q) {
									want = append(want, uint32(id))
								}
							}
							buf := g.QueryAppend(q, slices.Clone(prefix))
							if !slices.Equal(buf[:len(prefix)], prefix) {
								t.Fatalf("%s, %v: QueryAppend clobbered the buffer prefix: %x", pop.name, q, buf[:len(prefix)])
							}
							got := buf[len(prefix):]
							slices.Sort(got)
							if !slices.Equal(got, want) {
								t.Fatalf("%s, %v: QueryAppend reports %d ids, brute force %d\n got %v\nwant %v",
									pop.name, q, len(got), len(want), got, want)
							}
							cells := walk.QueryAppend(q, nil)
							slices.Sort(cells)
							if !slices.Equal(got, cells) {
								t.Fatalf("%s, %v: the run path reports %d ids, the per-cell walk %d", pop.name, q, len(got), len(cells))
							}
						}
					}

					// A one-cell window reserves for the cells it touches, on either
					// side: Algorithm 1 walks the whole directory but must not size
					// the buffer by it.
					herd := populations[1].pts
					cell := geom.Square(geom.Pt(xs[cps/2]+w/2, ys[cps/2]+w/2), w/4)
					for _, side := range []*Grid{g, walk} {
						side.Build(herd)
						if buf := side.QueryAppend(cell, nil); cap(buf) > len(herd)/4 {
							t.Errorf("%s: a one-cell window over a row of %d grew the buffer to %d slots", side.Name(), len(herd), cap(buf))
						}
					}
				})
			}
		}
	}
}

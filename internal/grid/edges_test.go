package grid

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
)

// The cell walk decides "skip", "filter" and "copy whole" from the
// window's cells, and entries are placed in cells by the same map
// (mapper): these tests pin the two to each other, and to brute force, at
// the only coordinates where a float map could disagree with them — within
// a few ulps of a cell or column edge. An edge is the least float32 the
// map sends to a cell, found here by bisection (leastOf); the grid itself
// keeps no edge.

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

// floatOrder maps a float32 to an integer in the order of the float32s,
// and orderFloat maps it back: a float's IEEE bits, but for a negative
// float its magnitude's bits negated less one, so -0 is -1, just below
// +0's 0.
func floatOrder(f float32) int64 {
	b := math.Float32bits(f)
	if b>>31 != 0 {
		return -int64(b&0x7fffffff) - 1
	}
	return int64(b)
}

func orderFloat(k int64) float32 {
	if k < 0 {
		return math.Float32frombits(uint32(-(k + 1)) | 1<<31)
	}
	return math.Float32frombits(uint32(k))
}

// leastOf is the least float32 v whose offset from min at maps to k or
// beyond, for a monotone at that maps min to less than k and +Inf to k or
// more: a bisection over the order of the float32s between them, about 32
// steps wherever the boundary lies. (Where the boundary is at 0 and min is
// not, v-min does not change across about a billion floats around it, so
// a walk one ulp at a time takes seconds.)
func leastOf(min float32, k int, at func(d float32) int) float32 {
	lo, hi := floatOrder(min), floatOrder(float32(math.Inf(1)))
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if at(orderFloat(mid)-min) >= k {
			hi = mid
		} else {
			lo = mid
		}
	}
	return orderFloat(hi)
}

// axisEdges returns the n+1 edges of an axis of n cells (or columns) over
// [min, max] under m: edge c is the least float32 m maps to cell c, the
// outer ones are the space's own. Every entry of cell c lies in
// [edges[c], edges[c+1]).
func axisEdges(m *mapper, min, max float32, n int) []float32 {
	e := make([]float32, n+1)
	e[0], e[n] = min, max
	for c := 1; c < n; c++ {
		e[c] = leastOf(min, c, func(d float32) int { return index(m.fixed(d), n) })
	}
	return e
}

// colEdges, cellEdges and rowEdges are g's edges of its x units (columns
// for the CSR layouts, cells for the others), of its cells in x, and of its
// rows.
func (g *Grid) colEdges() []float32 {
	return axisEdges(&g.mapper, g.bounds.MinX, g.bounds.MaxX, g.mapper.cols)
}

func (g *Grid) cellEdges() []float32 {
	return axisEdges(&g.mapper, g.bounds.MinX, g.bounds.MaxX, g.mapper.rows)
}

func (g *Grid) rowEdges() []float32 {
	return axisEdges(&g.mapper, g.bounds.MinY, g.bounds.MaxY, g.mapper.rows)
}

// TestPointWithinUlpOfEdge is the reproducer: with a cell width that is
// not float32-exact the additive edge table put this point's cell edge
// one ulp on the wrong side of it, and the walk skipped the cell. The
// point is probed, and so is every float within 4 ulps of each edge of its
// cell, on both axes.
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
			xs, ys := g.cellEdges(), g.rowEdges()
			c := g.mapper.cellOf(tc.p)
			for d := -4; d <= 4; d++ {
				for _, e := range []float32{xs[c%tc.cps], xs[c%tc.cps+1]} {
					pts = append(pts, geom.Pt(nudge(e, d), tc.p.Y))
				}
				for _, e := range []float32{ys[c/tc.cps], ys[c/tc.cps+1]} {
					pts = append(pts, geom.Pt(tc.p.X, nudge(e, d)))
				}
			}
			g.Build(pts)
			queries := []geom.Rect{}
			for _, p := range pts {
				queries = append(queries, p.Rect())
			}
			assertKernelsMatchBrute(t, g, pts, queries)
		}
	}
}

// edgeProbes places a point within ±4 ulps of every interior cell edge of
// g, on both axes, and probes each with a degenerate window (the epoch
// validator's membership probe) and with windows one cell wide on either
// side of it (so whole-cell copies are exercised too).
func edgeProbes(g *Grid) (pts []geom.Point, queries []geom.Rect) {
	bounds, cps := g.bounds, g.cfg.CPS
	xs, ys := g.cellEdges(), g.rowEdges()
	cell := bounds.Width() / float32(cps)
	for c := 1; c < cps; c++ {
		// Off-edge coordinate of each probe: mid-cell, varying with c.
		mid := float32(c-1)*cell + cell/3
		for d := -4; d <= 4; d++ {
			pts = append(pts,
				geom.Pt(nudge(xs[c], d), bounds.MinY+mid),
				geom.Pt(bounds.MinX+mid, nudge(ys[c], d)))
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

// columnProbes is edgeProbes for the x-columns of a CSR grid g: a point
// within ±4 ulps of every stride-th interior column edge, probed with a
// degenerate window and with windows that begin, or end, on the point,
// reach a little over three columns to the other side and contain the
// point's row — so the run path filters the column of the probed edge,
// copies the ones between and filters the far one.
func columnProbes(g *Grid, stride int) (pts []geom.Point, queries []geom.Rect) {
	bounds, cps, cols := g.bounds, g.cfg.CPS, g.mapper.cols
	xs := g.colEdges()
	cell, col := bounds.Width()/float32(cps), bounds.Width()/float32(cols)
	for c := 1; c < cols; c += stride {
		y := bounds.MinY + float32(c%cps)*cell + cell/3
		for d := -4; d <= 4; d++ {
			pts = append(pts, geom.Pt(nudge(xs[c], d), y))
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
// 48 and 96 cells they refine. The spaces centred on 0 put an interior edge
// at 0, where the probes' edges are found by bisection (leastOf): a walk one
// ulp at a time took seconds a grid there.
func TestEdgeUlpNeighbourhood(t *testing.T) {
	for _, bounds := range []geom.Rect{geom.R(0, 0, 22000, 22000), geom.R(11000, 11000, 22000, 22000), geom.R(-5, -5, 5, 5), geom.R(-1, -1, 1, 1)} {
		for _, cps := range []int{13, 48, 64, 96, 192} {
			for _, layout := range pointLayouts {
				cfg := Config{Layout: layout, Scan: ScanRange, BS: RefactoredBS, CPS: cps}
				t.Run(fmt.Sprintf("%v/cps=%d/%s", bounds, cps, layout), func(t *testing.T) {
					g := MustNew(cfg, bounds, 0)
					pts, queries := edgeProbes(g)
					g.Build(pts)
					assertKernelsMatchBrute(t, g, pts, queries)
					if g.csr == nil || cps > 96 {
						return
					}
					colPts, colQueries := columnProbes(g, 1)
					g.Build(colPts)
					assertKernelsMatchBrute(t, g, colPts, colQueries)
				})
			}
		}
	}
}

// TestColumnsRefineCells pins what lets everything outside the run path
// ignore the columns: a column is the cell at a finer resolution of the
// same fixed-point position. At every column edge, a few ulps around it and
// where the additive formula would have put it, column>>shift is the cell
// the grid names, and so is the store's label>>shift; every column begins
// at the integer ⌈f·2³²/cols⌉, and its edge is the least float32 whose
// position reaches that integer; and every (1<<shift)th column edge is the
// cell edge, bit for bit.
func TestColumnsRefineCells(t *testing.T) {
	for _, bounds := range []geom.Rect{geom.R(0, 0, 22000, 22000), geom.R(11000, 11000, 22000, 22000), testBounds, geom.R(-5, -5, 5, 5), geom.R(-1, -1, 1, 1)} {
		for _, cps := range []int{1, 13, 48, 64, 96, 100, 192} {
			for shift := uint(0); shift <= 3; shift++ {
				g, err := newGrid(Config{Layout: LayoutCSR, Scan: ScanRange, BS: 1, CPS: cps}, bounds, 0, shift)
				if err != nil {
					t.Fatal(err)
				}
				m := &g.mapper
				cols := m.cols
				if cols != cps<<shift || m.rows != cps || g.csr.shift != shift || g.csr.mapper != *m {
					t.Fatalf("cps=%d shift=%d: %d columns, %d rows, store shift %d", cps, shift, cols, m.rows, g.csr.shift)
				}
				agree := func(x float32) {
					t.Helper()
					f := m.fixed(x - bounds.MinX)
					if col, cell := index(f, cols), index(f, cps); col>>shift != cell {
						t.Fatalf("%v cps=%d shift=%d: x=%v lies in column %d (cell %d) and in cell %d", bounds, cps, shift, x, col, col>>shift, cell)
					}
					p := geom.Pt(x, bounds.MinY+bounds.Height()/3)
					if label := g.csr.mapper.labelOf(p); int(label>>shift) != g.mapper.cellOf(p) {
						t.Fatalf("%v cps=%d shift=%d: %v labelled %d (cell %d), the grid says cell %d", bounds, cps, shift, p, label, label>>shift, g.mapper.cellOf(p))
					}
				}
				// Beyond the space both clamp, to the same side.
				inf := float32(math.Inf(1))
				for _, x := range []float32{-inf, bounds.MinX - 1e9, nudge(bounds.MinX, -1), nudge(bounds.MaxX, 1), bounds.MaxX + 1e9, inf, float32(math.NaN())} {
					agree(x)
				}
				xs, cells := g.colEdges(), g.cellEdges()
				width := bounds.Width() / float32(cols)
				for f := 0; f <= cols; f++ {
					e := xs[f]
					for d := -4; d <= 4; d++ {
						agree(nudge(e, d))
						agree(nudge(bounds.MinX+float32(f)*width, d))
					}
					if f%(1<<shift) == 0 && e != cells[f>>shift] {
						t.Fatalf("%v cps=%d shift=%d: column edge %d is %v, cell edge %d is %v", bounds, cps, shift, f, e, f>>shift, cells[f>>shift])
					}
					if f == 0 || f == cols {
						continue
					}
					begin := uint32((uint64(f)<<32 + uint64(cols) - 1) / uint64(cols))
					if index(begin, cols) != f || index(begin-1, cols) != f-1 {
						t.Fatalf("cps=%d shift=%d: column %d does not begin at %d", cps, shift, f, begin)
					}
					if got := m.fixed(e - bounds.MinX); got < begin {
						t.Fatalf("%v cps=%d shift=%d: column edge %d = %v is at %d, before the column's %d", bounds, cps, shift, f, e, got, begin)
					}
					if got := m.fixed(nudge(e, -1) - bounds.MinX); got >= begin {
						t.Fatalf("%v cps=%d shift=%d: one ulp below column edge %d = %v is at %d, in the column (%d)", bounds, cps, shift, f, e, got, begin)
					}
				}
			}
		}
	}
}

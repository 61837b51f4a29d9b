package grid

// Tests of the CSR arena's dense state and of the two shapes of the
// buffered row kernel it selects (csrStore.appendRow): the state's
// transitions, and the run path held against the per-cell walk, the
// callback Query and brute force on every kind of window.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

// loosen clears the arena's dense state and nothing else: entry id crosses
// into the cell of via and comes back, which leaves every segment full and
// every overflow empty (the entry returns to the slack it left) but the
// flag down, so the per-cell walk answers over the same arena.
func loosen(tb testing.TB, g *Grid, pts []geom.Point, id uint32, via geom.Point) {
	tb.Helper()
	if g.cellIndexFor(pts[id]) == g.cellIndexFor(via) {
		tb.Fatalf("loosen: %v and %v share a cell", pts[id], via)
	}
	g.Update(id, pts[id], via)
	g.Update(id, via, pts[id])
	if g.csr.dense {
		tb.Fatal("loosen: arena still dense")
	}
}

// columnRect returns the extent of the column holding p: its x-column of
// its directory row.
func columnRect(g *Grid, p geom.Point) geom.Rect {
	f := int(g.csr.mapper.labelOf(p))
	col, row := f%g.cols.cps, f/g.cols.cps
	return geom.Rect{MinX: g.colXs[col], MinY: g.ys[row], MaxX: g.colXs[col+1], MaxY: g.ys[row+1]}
}

// otherColumn returns a point in the cell of p and in another column of it.
func otherColumn(g *Grid, p geom.Point) geom.Point {
	cr := columnRect(g, p)
	for _, x := range []float32{cr.MaxX + cr.Width()/2, cr.MinX - cr.Width()/2} {
		q := geom.Pt(x, p.Y)
		if g.cellIndexFor(q) == g.cellIndexFor(p) && g.csr.mapper.labelOf(q) != g.csr.mapper.labelOf(p) {
			return q
		}
	}
	panic(fmt.Sprintf("no second column in the cell of %v", p))
}

func TestCSRDenseStateTransitions(t *testing.T) {
	r := xrand.New(61)
	for _, cfg := range []Config{CSR(), CSRXY()} {
		t.Run(cfg.DisplayName(), func(t *testing.T) {
			pts := randomPoints(r, updateN, testBounds)
			g := MustNew(cfg, testBounds, len(pts))
			cs := g.csr
			expect := func(want bool, after string) {
				t.Helper()
				if cs.dense != want {
					t.Fatalf("after %s: dense = %v, want %v", after, cs.dense, want)
				}
				if err := g.CheckInvariants(); err != nil {
					t.Fatalf("after %s: %v", after, err)
				}
			}
			g.Build(pts)
			expect(true, "Build")

			// A move inside one column: csr writes nothing; csrxy rewrites the
			// pair where it lies. Neither opens a segment.
			centre := columnRect(g, pts[0]).Center()
			g.Update(0, pts[0], centre)
			pts[0] = centre
			expect(true, "a same-column Update")

			// A move to another column of the same cell touches no segment
			// either, but the entry now lies in the wrong column's stretch.
			to := otherColumn(g, pts[0])
			g.Update(0, pts[0], to)
			pts[0] = to
			expect(false, "a same-cell, column-crossing Update")
			g.Build(pts)

			to = otherCell(r, g, pts[1])
			g.Update(1, pts[1], to)
			pts[1] = to
			expect(false, "one cell-crossing Update")

			for _, workers := range []int{1, 2, 4} {
				g.BuildParallel(pts, workers)
				expect(true, fmt.Sprintf("BuildParallel(%d)", workers))
			}

			// A batch leaves the arena dense unless it relocated an entry out
			// of its column.
			for _, shape := range batchShapes(g) {
				snap := slices.Clone(shape.pts)
				g.Build(snap)
				g.UpdateBatch(shape.moves, 1)
				copy(snap, land(shape.pts, shape.moves))
				rescattered := shape.rescatter(cs.xy != nil)
				expect(rescattered || !shape.crossers, fmt.Sprintf("UpdateBatch %q (re-scatters: %v)", shape.name, rescattered))
			}

			// The store interface's own build: every entry lands in overflow.
			g.Build(pts)
			cs.reset(pts)
			if cs.dense {
				t.Fatal("after reset: still dense")
			}
			for i, p := range pts {
				cs.insertAt(g.cellIndexFor(p), uint32(i), p)
			}
			expect(false, "reset + insertAt")

			// removeAt alone must drop the state: the swap-delete leaves a stale
			// ID in the slot it vacates, which only counts fences off.
			g.Build(pts)
			if !cs.removeAt(g.cellIndexFor(pts[2]), 2) {
				t.Fatal("entry 2 not found")
			}
			if cs.dense {
				t.Fatal("after removeAt: still dense")
			}
		})
	}
}

// TestCheckCSRAuditsDenseFlag holds the audit to what the run path assumes
// of an arena flagged dense: full segments, empty overflows, offsets
// monotone column by column, and in every column's stretch exactly the
// entries labelled with it.
func TestCheckCSRAuditsDenseFlag(t *testing.T) {
	pts := randomPoints(xrand.New(67), 500, testBounds)
	g := MustNew(CSR(), testBounds, len(pts))
	cs := g.csr
	// twoColumns finds a cell with entries in two of its columns, and returns
	// the second of the two columns.
	twoColumns := func() int {
		for c := range cs.counts {
			for f := c<<cs.shift + 1; f < (c+1)<<cs.shift; f++ {
				if cs.starts[f] > cs.starts[c<<cs.shift] && cs.starts[f+1] > cs.starts[f] {
					return f
				}
			}
		}
		t.Fatal("no cell with two occupied columns")
		return 0
	}
	for name, corrupt := range map[string]func(){
		"slack and overflow": func() {
			to := otherCell(xrand.New(69), g, pts[1])
			g.Update(1, pts[1], to)
			pts[1] = to
			if err := g.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			cs.dense = true // a lie: entry 1 left slack behind and sits in an overflow
		},
		"an entry in another column's stretch": func() {
			f := twoColumns()
			a, b := cs.starts[f]-1, cs.starts[f]
			cs.ids[a], cs.ids[b] = cs.ids[b], cs.ids[a]
		},
		"a column offset past the next": func() {
			f := twoColumns()
			cs.starts[f] = cs.starts[f+1] + 1
		},
		"a column offset one entry early": func() {
			cs.starts[twoColumns()]--
		},
		"a label of another column of the cell": func() {
			f := twoColumns()
			cs.cellOf[cs.ids[cs.starts[f]]] = uint32(f - 1)
		},
	} {
		g.Build(pts)
		if err := g.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		corrupt()
		if err := g.CheckInvariants(); err == nil {
			t.Errorf("%s: not detected on an arena flagged dense", name)
		}
	}
}

// kernelWindows returns the query set of the differential test for g: the
// span shapes the run path distinguishes, in columns and in cells, window
// edges on and one ulp around column edges (in y, cell edges), and the
// rectangles outside the input contract of a well-formed window, for which
// the contract is "whatever Query returns".
func kernelWindows(g *Grid) []geom.Rect {
	cps, cols, xs, ys := g.cfg.CPS, g.cols.cps, g.xs, g.ys
	b := g.bounds
	w := g.cellSize
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
	for _, x := range append(spans(g.colXs, cols, b.Width()/float32(cols)), spans(xs, cps, w)...) {
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
	for _, x := range snapped(g.colXs, cols/2+1, 1, 2, 3, 5) {
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

// TestCSRRunPathMatchesCellWalk answers one query set four ways — by
// QueryAppend on a dense arena (the run path under ScanRange), by
// QueryAppend on the same arena with the state dropped (the per-cell walk),
// by the callback Query, and by brute force — and wants four identical
// sorted ID lists, a dirty buffer prefix intact, and a buffer never sized
// for more than the cells a window touches. In between it checks the arena
// with one entry in another column of its cell (nothing moved, the column
// order gone), with one entry away from home (slack in one cell, overflow
// in another) and with one entry removed through the store interface. The
// cell counts give 52, 192, 256 and 384 columns: all but the third of a
// width float32 cannot hold exactly.
func TestCSRRunPathMatchesCellWalk(t *testing.T) {
	bounds := geom.R(0, 0, 22000, 22000)
	prefix := []uint32{0xdeadbeef, 7}
	for _, layout := range []Layout{LayoutCSR, LayoutCSRXY} {
		for _, cps := range []int{13, 48, 64, 96} {
			for _, scan := range []Scan{ScanRange, ScanFull} {
				t.Run(fmt.Sprintf("%s/cps=%d/%s", layout, cps, scan), func(t *testing.T) {
					g := MustNew(Config{Layout: layout, Scan: scan, BS: 1, CPS: cps}, bounds, 0)
					r := xrand.New(uint64(71 + cps))
					edgePts, edgeQueries := edgeProbes(bounds, cps)
					// About fifty of the column edges; TestEdgeUlpNeighbourhood
					// probes every one, on a dense arena.
					colPts, colQueries := columnProbes(bounds, cps, g.cols.cps, 1+g.cols.cps/50)
					edgePts, edgeQueries = append(edgePts, colPts...), append(edgeQueries, colQueries...)
					windows := kernelWindows(g)

					// One directory row holds the whole herd.
					row := geom.R(bounds.MinX, g.ys[cps/2], bounds.MaxX, nudge(g.ys[cps/2+1], -1))
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
						check := func(state string, skip uint32) {
							t.Helper()
							for _, q := range pop.queries {
								var want []uint32
								for id, p := range pts {
									if p.In(q) && uint32(id) != skip {
										want = append(want, uint32(id))
									}
								}
								var emitted []uint32
								g.Query(q, func(id uint32) { emitted = append(emitted, id) })
								slices.Sort(emitted)
								buf := g.QueryAppend(q, slices.Clone(prefix))
								if !slices.Equal(buf[:len(prefix)], prefix) {
									t.Fatalf("%s, %s, %v: QueryAppend clobbered the buffer prefix: %x", pop.name, state, q, buf[:len(prefix)])
								}
								got := buf[len(prefix):]
								slices.Sort(got)
								if !slices.Equal(emitted, want) {
									t.Fatalf("%s, %s, %v: Query reports %d ids, brute force %d", pop.name, state, q, len(emitted), len(want))
								}
								if !slices.Equal(got, emitted) {
									t.Fatalf("%s, %s, %v: QueryAppend reports %d ids, Query %d\n got %v\nwant %v",
										pop.name, state, q, len(got), len(emitted), got, emitted)
								}
							}
						}
						const none = math.MaxUint32
						g.Build(pts)
						if !g.csr.dense {
							t.Fatalf("%s: arena not dense after Build", pop.name)
						}
						check("dense", none)
						if len(pts) == 0 {
							continue
						}

						// One entry in another column of its cell: the walk's answers
						// cannot change, the run path must stand down.
						home, aside := pts[2], otherColumn(g, pts[2])
						g.Update(2, home, aside)
						pts[2] = aside
						// A window on the entry alone: a run over its new column
						// would not reach the stretch it still lies in.
						pop.queries = append(pop.queries, aside.Rect())
						check("one entry a column aside", none)
						pop.queries = pop.queries[:len(pop.queries)-1]
						g.Update(2, aside, home)
						pts[2] = home
						g.Build(pts)

						// One entry away from home, far from most windows...
						home, away := pts[0], geom.Pt(bounds.MaxX-1, bounds.MaxY-1)
						g.Update(0, home, away)
						pts[0] = away
						check("one entry away", none)
						// ...and back: every segment full again, the state still down.
						g.Update(0, away, home)
						pts[0] = home
						if g.csr.dense {
							t.Fatalf("%s: arena dense after two relocations", pop.name)
						}
						check("loose", none)

						g.Build(pts)
						if !g.st.removeAt(g.cellIndexFor(pts[1]), 1) {
							t.Fatalf("%s: entry 1 not found", pop.name)
						}
						check("one entry removed", 1)
					}

					// A one-cell window reserves for the cells it touches, in either
					// state and under either scan: Algorithm 1 walks the whole
					// directory but must not size the buffer by it.
					herd := populations[1].pts
					cell := geom.Square(geom.Pt(g.xs[cps/2]+g.cellSize/2, g.ys[cps/2]+g.cellSize/2), g.cellSize/4)
					for _, state := range []string{"dense", "loose"} {
						g.Build(herd)
						if state == "loose" {
							loosen(t, g, herd, 0, geom.Pt(bounds.MaxX-1, bounds.MaxY-1))
						}
						if buf := g.QueryAppend(cell, nil); cap(buf) > len(herd)/4 {
							t.Errorf("%s: a one-cell window over a row of %d grew the buffer to %d slots", state, len(herd), cap(buf))
						}
					}
				})
			}
		}
	}
}

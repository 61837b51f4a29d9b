package grid

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Micro-benchmarks for the grid's three operations across layouts.
// bench_test.go at the repository root measures whole ticks; these
// isolate the per-operation costs that Section 3 reasons about.

func benchPoints(n int) []geom.Point {
	r := xrand.New(1)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(r.Range(0, 1000), r.Range(0, 1000))
	}
	return pts
}

func benchLayouts() []Config {
	return []Config{
		{Name: "linked", Layout: LayoutLinked, Scan: ScanRange, BS: 4, CPS: 13},
		{Name: "inline", Layout: LayoutInline, Scan: ScanRange, BS: 20, CPS: 64},
		{Name: "inline-xy", Layout: LayoutInlineXY, Scan: ScanRange, BS: 20, CPS: 64},
		{Name: "intrusive", Layout: LayoutIntrusive, Scan: ScanRange, BS: 1, CPS: 64},
		{Name: "csr", Layout: LayoutCSR, Scan: ScanRange, BS: 1, CPS: 64},
	}
}

// csrContenders pits the paper's winning inline configuration against the
// CSR layout at the paper tuning (bs=20, cps=64) and at a much finer grid
// (cps=256) where cells hold only a couple of entries each — the regime
// where chained buckets waste most of each cache line and contiguity
// matters most.
func csrContenders() []Config {
	return []Config{
		{Name: "inline/cps=64", Layout: LayoutInline, Scan: ScanRange, BS: RefactoredBS, CPS: 64},
		{Name: "csr/cps=64", Layout: LayoutCSR, Scan: ScanRange, BS: 1, CPS: 64},
		{Name: "csrxy/cps=64", Layout: LayoutCSRXY, Scan: ScanRange, BS: 1, CPS: 64},
		{Name: "inline/cps=256", Layout: LayoutInline, Scan: ScanRange, BS: RefactoredBS, CPS: 256},
		{Name: "csr/cps=256", Layout: LayoutCSR, Scan: ScanRange, BS: 1, CPS: 256},
		{Name: "csrxy/cps=256", Layout: LayoutCSRXY, Scan: ScanRange, BS: 1, CPS: 256},
	}
}

// churnGrid returns the benchmark's point_churn population — 100 000
// gaussian points on the 22 000 space — and an unbuilt CSR grid over it at
// the benchmark's cps=64.
func churnGrid() (*Grid, []geom.Point) {
	cfg := workload.DefaultGaussian()
	cfg.NumPoints = 100_000
	pts := workload.MustNewGenerator(cfg).Positions(nil)
	return MustNew(Config{Layout: LayoutCSR, Scan: ScanRange, BS: 1, CPS: 64}, cfg.Bounds(), len(pts)), pts
}

// benchTiers runs loop as two sub-benchmarks, the Go loops' tier and the
// vector tier (skipped where absent).
func benchTiers(b *testing.B, name string, loop func(b *testing.B)) {
	b.Run(name+"/scalar", func(b *testing.B) { scalarTier(func() { loop(b) }) })
	b.Run(name+"/vector", func(b *testing.B) {
		if !vectorKernels {
			b.Skip("vector tier absent: " + missingTier)
		}
		loop(b)
	})
}

// BenchmarkCSRBuild is the whole counting sort: 50 000 uniform points on
// the test space for each contender, and the churn row, point_churn's
// stream, on both tiers.
func BenchmarkCSRBuild(b *testing.B) {
	pts := benchPoints(50000)
	for _, cfg := range csrContenders() {
		b.Run(cfg.Name, func(b *testing.B) {
			g := MustNew(cfg, testBounds, len(pts))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Build(pts)
			}
		})
	}
	g, churn := churnGrid()
	benchTiers(b, "churn/csr/cps=64", func(b *testing.B) {
		for b.Loop() {
			g.Build(churn)
		}
	})
}

// BenchmarkCSRBuildPhases splits the churn row of BenchmarkCSRBuild into
// the sort's two halves, each on both tiers: count, the label pass a chunk at
// a time and the histogram of the labels into starts; scatter, the prefix
// sum, the second mapping pass — labels and quanta — and the placement of
// every ID and its quanta, which starts each iteration from a copy of the
// counts (a 64 kB copy, a hundredth of the pass). The label and quant rows
// are the two mapping kernels alone, over the whole population.
func BenchmarkCSRBuildPhases(b *testing.B) {
	g, pts := churnGrid()
	st := g.csr
	g.Build(pts)
	count := func() {
		clear(st.starts)
		st.count()
	}
	count()
	counts := slices.Clone(st.starts)
	labels, quanta := make([]uint32, len(pts)), make([]uint32, len(pts))
	perPoint := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/point")
	}
	benchTiers(b, "quant", func(b *testing.B) {
		for b.Loop() {
			quantPoints(&st.mapper, pts, labels, quanta)
		}
		perPoint(b)
	})
	benchTiers(b, "count", func(b *testing.B) {
		for b.Loop() {
			count()
		}
		perPoint(b)
	})
	benchTiers(b, "scatter", func(b *testing.B) {
		for b.Loop() {
			copy(st.starts, counts)
			st.scatter()
		}
		perPoint(b)
	})
}

func BenchmarkCSRQuery(b *testing.B) {
	pts := benchPoints(50000)
	r := xrand.New(2)
	queries := make([]geom.Rect, 256)
	for i := range queries {
		queries[i] = geom.Square(geom.Pt(r.Range(0, 1000), r.Range(0, 1000)), 18)
	}
	for _, cfg := range csrContenders() {
		b.Run(cfg.Name, func(b *testing.B) {
			g := MustNew(cfg, testBounds, len(pts))
			g.Build(pts)
			n := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Query(queries[i%len(queries)], func(uint32) { n++ })
			}
			if n == 0 {
				b.Fatal("no results")
			}
		})
	}
}

func BenchmarkGridBuild(b *testing.B) {
	pts := benchPoints(50000)
	for _, cfg := range benchLayouts() {
		b.Run(cfg.Name, func(b *testing.B) {
			g := MustNew(cfg, testBounds, len(pts))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Build(pts)
			}
		})
	}
}

func BenchmarkGridQuery(b *testing.B) {
	pts := benchPoints(50000)
	r := xrand.New(2)
	queries := make([]geom.Rect, 256)
	for i := range queries {
		queries[i] = geom.Square(geom.Pt(r.Range(0, 1000), r.Range(0, 1000)), 18)
	}
	for _, cfg := range benchLayouts() {
		b.Run(cfg.Name, func(b *testing.B) {
			g := MustNew(cfg, testBounds, len(pts))
			g.Build(pts)
			n := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Query(queries[i%len(queries)], func(uint32) { n++ })
			}
			if n == 0 {
				b.Fatal("no results")
			}
		})
	}
}

func BenchmarkGridUpdate(b *testing.B) {
	pts := benchPoints(50000)
	r := xrand.New(3)
	for _, cfg := range benchLayouts() {
		b.Run(cfg.Name, func(b *testing.B) {
			g := MustNew(cfg, testBounds, len(pts))
			g.Build(pts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := uint32(r.Intn(len(pts)))
				to := geom.Pt(r.Range(0, 1000), r.Range(0, 1000))
				g.Update(id, pts[id], to)
				pts[id] = to
			}
		})
	}
}

// benchBoxes mirrors the default box workload's shape scaled to the
// bench space: extents around 1/150 of the space side, the regime where
// each MBR replicates into ~2 cells at cps=64 and ~7 at cps=256.
func benchBoxes(n int) []geom.Rect {
	r := xrand.New(9)
	return randomBoxes(r, n, testBounds, 2, 12)
}

// boxIndexUnderBench is the slice of the box-grid API the benchmarks
// drive, shared by BoxGrid and BoxGrid2L.
type boxIndexUnderBench interface {
	Build([]geom.Rect)
	Query(geom.Rect, func(uint32))
	Update(uint32, geom.Rect, geom.Rect)
}

// BenchmarkBoxQuery pits the PR 2 reference-point grid against the
// two-layer classed grid — the per-candidate dedup test and base-table
// dereference vs class sub-spans over the inlined arena.
func BenchmarkBoxQuery(b *testing.B) {
	rects := benchBoxes(50000)
	r := xrand.New(4)
	queries := make([]geom.Rect, 256)
	for i := range queries {
		queries[i] = geom.Square(geom.Pt(r.Range(0, 1000), r.Range(0, 1000)), 18)
	}
	for _, cps := range []int{64, 256} {
		for _, bi := range []struct {
			name string
			make func(cps int) boxIndexUnderBench
		}{
			{"boxcsr", func(cps int) boxIndexUnderBench { return MustNewBoxGrid(cps, testBounds, len(rects)) }},
			{"boxcsr2l", func(cps int) boxIndexUnderBench { return MustNewBoxGrid2L(cps, testBounds, len(rects)) }},
		} {
			b.Run(fmt.Sprintf("%s/cps=%d", bi.name, cps), func(b *testing.B) {
				bg := bi.make(cps)
				bg.Build(rects)
				n := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bg.Query(queries[i%len(queries)], func(uint32) { n++ })
				}
				if n == 0 {
					b.Fatal("no results")
				}
			})
		}
	}
}

// BenchmarkBoxBuild measures the class-refined counting sort against the
// plain one (the acceptance bound: classed build within 1.2x), and the span
// pass alone on both tiers over the default box population (50 000 MBRs
// with sides in [50, 250] on the 22 000 space) at cps=48.
func BenchmarkBoxBuild(b *testing.B) {
	rects := benchBoxes(50000)
	for _, cps := range []int{64, 256} {
		b.Run(fmt.Sprintf("boxcsr/cps=%d", cps), func(b *testing.B) {
			bg := MustNewBoxGrid(cps, testBounds, len(rects))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bg.Build(rects)
			}
		})
		b.Run(fmt.Sprintf("boxcsr2l/cps=%d", cps), func(b *testing.B) {
			bg := MustNewBoxGrid2L(cps, testBounds, len(rects))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bg.Build(rects)
			}
		})
	}
	gen := workload.MustNewBoxGenerator(workload.DefaultUniformBoxes())
	boxes := gen.Rects(nil)
	bg := MustNewBoxGrid2L(48, gen.Config().Bounds(), len(boxes))
	spans := make([]cellSpan, len(boxes))
	benchTiers(b, "span/default/cps=48", func(b *testing.B) {
		for b.Loop() {
			spanPass(&bg.mapper, boxes, spans)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(boxes)), "ns/rect")
	})
}

// BenchmarkBoxBuildPhases splits both box grids' builds over the default
// box population at cps=48, the benchmark's pick, into the sort's passes,
// in ns a rect: span, the mapping pass (on the process's tier); count,
// the histogram from zeroed scratch; prefix, the cursors; scatter, the
// placement, which starts each iteration from a copy of the cursors; and
// the classed grid's fill of the planes of quanta, on the process's tier
// and on the scalar one (fill/scalar). At this granularity
// every span is at most 2×2 cells, so count and scatter run the flat
// kernels throughout; BenchmarkBoxBuild's cps=256 rows are the loops.
func BenchmarkBoxBuildPhases(b *testing.B) {
	gen := workload.MustNewBoxGenerator(workload.DefaultUniformBoxes())
	boxes := gen.Rects(nil)
	bounds := gen.Config().Bounds()
	phase := func(name string, pass func()) {
		b.Run(name, func(b *testing.B) {
			for b.Loop() {
				pass()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(boxes)), "ns/rect")
		})
	}

	g := MustNewBoxGrid(48, bounds, len(boxes))
	g.Build(boxes)
	// Build leaves its cursors at the run ends: recount for the histogram.
	clear(g.counts)
	g.countCells(g.counts, g.spans)
	counts := slices.Clone(g.counts)
	phase("boxcsr/span", func() { spanPass(&g.mapper, boxes, g.spans) })
	phase("boxcsr/count", func() {
		clear(g.counts)
		g.countCells(g.counts, g.spans)
	})
	phase("boxcsr/prefix", func() {
		copy(g.counts, counts)
		prefixCursors(g.counts, g.starts)
	})
	cursors := slices.Clone(g.counts)
	phase("boxcsr/scatter", func() {
		copy(g.counts, cursors)
		g.scatterCells(g.counts, g.spans)
	})

	g2 := MustNewBoxGrid2L(48, bounds, len(boxes))
	g2.Build(boxes)
	phase("boxcsr2l/span", func() { spanPass(&g2.mapper, boxes, g2.spans) })
	phase("boxcsr2l/count", func() {
		g2.counts16 = resetCounts(g2.counts16, 4*g2.cells)
		countClassed(g2.counts16, g2.spans, g2.cps, g2.slots)
	})
	phase("boxcsr2l/prefix", func() { prefixClassedCursors(g2.counts16, g2.starts, g2.ends, g2.cells) })
	cursors = slices.Clone(g2.ends)
	phase("boxcsr2l/scatter", func() {
		copy(g2.ends, cursors)
		g2.scatterClassed(g2.ends, g2.spans)
	})
	phase("boxcsr2l/fill", func() { fillQuanta(&g2.mapper, boxes, g2.ids, &g2.q) })
	phase("boxcsr2l/fill/scalar", func() { scalarTier(func() { fillQuanta(&g2.mapper, boxes, g2.ids, &g2.q) }) })
}

// querySwitched is the un-hoisted reference the class-dispatch
// micro-bench compares against: one loop over each cell's whole segment
// with a per-candidate class switch, instead of four tight sub-loops
// over the class sub-spans. Results are identical; only the dispatch
// placement differs.
func (bg *BoxGrid2L) querySwitched(r geom.Rect, emit func(id uint32)) {
	q := bg.mapper.spanOf(r)
	cps := bg.cps
	qx0, qx1 := int(q.x0), int(q.x1)
	qy0, qy1 := int(q.y0), int(q.y1)
	for cy := qy0; cy <= qy1; cy++ {
		firstRow, lastRow := cy == qy0, cy == qy1
		loY, hiY := float32(-boxInf), float32(boxInf)
		if firstRow {
			loY = r.MinY
		}
		if lastRow {
			hiY = r.MaxY
		}
		base := cy * cps
		for cx := qx0; cx <= qx1; cx++ {
			c := base + cx
			firstCol, lastCol := cx == qx0, cx == qx1
			loX, hiX := float32(-boxInf), float32(boxInf)
			if firstCol {
				loX = r.MinX
			}
			if lastCol {
				hiX = r.MaxX
			}
			for k := bg.starts[c]; k < bg.ends[bg.endIdx(c, 3)]; k++ {
				var class int
				switch {
				case k < bg.ends[bg.endIdx(c, 0)]:
					class = 0
				case k < bg.ends[bg.endIdx(c, 1)]:
					class = 1
				case k < bg.ends[bg.endIdx(c, 2)]:
					class = 2
				default:
					class = 3
				}
				rc := bg.rects[bg.ids[k]]
				switch class {
				case 0:
					if rc.MaxX >= loX && rc.MinX <= hiX && rc.MaxY >= loY && rc.MinY <= hiY {
						emit(bg.ids[k])
					}
				case 1:
					if firstCol && rc.MaxX >= r.MinX && rc.MaxY >= loY && rc.MinY <= hiY {
						emit(bg.ids[k])
					}
				case 2:
					if firstRow && rc.MaxY >= r.MinY && rc.MaxX >= loX && rc.MinX <= hiX {
						emit(bg.ids[k])
					}
				default:
					if firstCol && firstRow && rc.MaxX >= r.MinX && rc.MaxY >= r.MinY {
						emit(bg.ids[k])
					}
				}
			}
		}
	}
}

// BenchmarkBoxClassDispatch isolates the satellite claim: hoisting the
// class dispatch out of the inner loop (four tight sub-loops) vs a
// per-candidate switch over the identical structure.
func BenchmarkBoxClassDispatch(b *testing.B) {
	rects := benchBoxes(50000)
	r := xrand.New(4)
	queries := make([]geom.Rect, 256)
	for i := range queries {
		queries[i] = geom.Square(geom.Pt(r.Range(0, 1000), r.Range(0, 1000)), 18)
	}
	bg := MustNewBoxGrid2L(256, testBounds, len(rects))
	bg.Build(rects)

	// The two emission strategies must agree before being timed.
	for _, q := range queries[:16] {
		var hoisted, switched []uint32
		bg.Query(q, func(id uint32) { hoisted = append(hoisted, id) })
		bg.querySwitched(q, func(id uint32) { switched = append(switched, id) })
		sort.Slice(hoisted, func(i, j int) bool { return hoisted[i] < hoisted[j] })
		sort.Slice(switched, func(i, j int) bool { return switched[i] < switched[j] })
		if !equalIDs(hoisted, switched) {
			b.Fatalf("switched dispatch disagrees on %v", q)
		}
	}

	b.Run("subloops", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			bg.Query(queries[i%len(queries)], func(uint32) { n++ })
		}
	})
	b.Run("switched", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			bg.querySwitched(queries[i%len(queries)], func(uint32) { n++ })
		}
	})
}

// defaultBoxGrid builds the two-layer grid over the default box population
// and returns it with the population and its queriers.
func defaultBoxGrid() (*BoxGrid2L, []geom.Rect, []uint32) {
	gen := workload.MustNewBoxGenerator(workload.DefaultUniformBoxes())
	rects := gen.Rects(nil)
	bg := MustNewBoxGrid2L(DefaultBoxCPS, gen.Config().Bounds(), len(rects))
	bg.Build(rects)
	return bg, rects, gen.Queriers()
}

// BenchmarkBoxQueryAppend times BoxGrid2L.QueryAppend on the default box
// population (50 000 MBRs with sides in [50, 250], cps = 64, cell 343.75),
// one window per iteration around each querier in turn, the queriers in ID
// order (cache-cold, the ladder's order) and in cell order (the drivers'
// schedule): w=100 spans one cell on an axis more often than not (the
// four-edge kernel), w=400 is the benchmark's window (2.16 cells an axis:
// two- and one-plane cells, hardly an interior one), w=1600 has interior
// cells (bulk copies). ties/query is how many candidates a query decides on
// the base table (queryTies), over one window around every querier.
func BenchmarkBoxQueryAppend(b *testing.B) {
	bg, rects, queriers := defaultBoxGrid()
	cellOf := func(id uint32) int {
		s := bg.mapper.spanOf(rects[id].Center().Rect())
		return int(s.y0)*bg.cps + int(s.x0)
	}
	inCellOrder := append([]uint32(nil), queriers...)
	sort.SliceStable(inCellOrder, func(i, j int) bool { return cellOf(inCellOrder[i]) < cellOf(inCellOrder[j]) })
	for _, order := range []struct {
		name string
		ids  []uint32
	}{{"id-order", queriers}, {"cell-order", inCellOrder}} {
		for _, window := range []float32{100, 400, 1600} {
			b.Run(fmt.Sprintf("%s/w=%g", order.name, window), func(b *testing.B) {
				var buf []uint32
				results := 0
				for i := 0; i < b.N; i++ {
					buf = bg.QueryAppend(geom.Square(rects[order.ids[i%len(order.ids)]].Center(), window), buf[:0])
					results += len(buf)
				}
				b.StopTimer()
				ties := 0
				for _, id := range order.ids {
					ties += bg.queryTies(geom.Square(rects[id].Center(), window))
				}
				b.ReportMetric(float64(results)/float64(b.N), "results/query")
				b.ReportMetric(float64(ties)/float64(len(order.ids)), "ties/query")
			})
		}
	}
}

// BenchmarkBoxEdgeKernels times BoxGrid2L's three window kernels over the
// same runs — every cell's whole segment of the default box population in
// turn, about 25 replicas — against a window from the cell's centre to the
// next cell's, so each edge passes about half of them: what a candidate
// costs with four, two and one plane read, on the process's tier and on
// the scalar one (the /scalar rows), and how many candidates a run ties.
func BenchmarkBoxEdgeKernels(b *testing.B) {
	bg, _, _ := defaultBoxGrid()
	windows := make([][4]edgeBound, bg.cells)
	for c := range windows {
		w := bg.bounds.Width() / float32(bg.cps)
		x := bg.bounds.MinX + (float32(c%bg.cps)+0.5)*w
		y := bg.bounds.MinY + (float32(c/bg.cps)+0.5)*w
		_, windows[c] = bg.windowOf(geom.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + w})
	}
	for _, k := range []struct {
		name string
		run  func(lo, hi uint32, w *[4]edgeBound, buf []uint32) []uint32
		ties func(lo, hi uint32, w *[4]edgeBound) int
	}{
		{"four-edge", func(lo, hi uint32, w *[4]edgeBound, buf []uint32) []uint32 {
			return bg.appendMasked(lo, hi, w, buf)
		}, func(lo, hi uint32, w *[4]edgeBound) int { return bg.tiesOf(lo, hi, w[:]...) }},
		{"two-plane", func(lo, hi uint32, w *[4]edgeBound, buf []uint32) []uint32 {
			return bg.appendMasked2(lo, hi, w[edgeMaxX], w[edgeMaxY], buf)
		}, func(lo, hi uint32, w *[4]edgeBound) int { return bg.tiesOf(lo, hi, w[edgeMaxX], w[edgeMaxY]) }},
		{"one-plane", func(lo, hi uint32, w *[4]edgeBound, buf []uint32) []uint32 {
			return bg.appendMasked1(lo, hi, w[edgeMaxX], buf)
		}, func(lo, hi uint32, w *[4]edgeBound) int { return bg.tiesOf(lo, hi, w[edgeMaxX]) }},
	} {
		loop := func(b *testing.B) {
			var buf []uint32
			tested, ties := 0, 0
			for i := 0; i < b.N; i++ {
				c := i % bg.cells
				lo, hi := bg.starts[c], bg.ends[bg.endIdx(c, 3)]
				buf = k.run(lo, hi, &windows[c], buf[:0])
				tested += int(hi - lo)
			}
			b.StopTimer()
			for c := range windows {
				ties += k.ties(bg.starts[c], bg.ends[bg.endIdx(c, 3)], &windows[c])
			}
			b.ReportMetric(float64(tested)/float64(b.N), "tested/op")
			b.ReportMetric(float64(ties)/float64(len(windows)), "ties/op")
		}
		b.Run(k.name, loop)
		b.Run(k.name+"/scalar", func(b *testing.B) { scalarTier(func() { loop(b) }) })
	}
}

// tiesOf counts the replicas of arena slots [lo, hi) that the quanta leave
// to the base table under the tests bs: no plane below its bound, and one
// on it.
func (bg *BoxGrid2L) tiesOf(lo, hi uint32, bs ...edgeBound) int {
	n := 0
	for k := lo; k < hi; k++ {
		below, on := false, false
		for _, b := range bs {
			d := int32(bg.q[b.e][k]) - b.q
			below, on = below || d < 0, on || d == 0
		}
		if on && !below {
			n++
		}
	}
	return n
}

// queryTies counts the candidates QueryAppend decides on the base table
// for r: it walks the runs QueryAppend's kernels filter, under the tests
// they filter them with, and counts each run's ties (tiesOf).
func (bg *BoxGrid2L) queryTies(r geom.Rect) int {
	q, w := bg.windowOf(r)
	half := 2 * bg.cells
	n := 0
	if q.x0 == q.x1 || q.y0 == q.y1 {
		for cy := int(q.y0); cy <= int(q.y1); cy++ {
			firstRow := cy == int(q.y0)
			ny, my := axisWindow(firstRow, cy == int(q.y1), w[edgeMinY], w[edgeMaxY])
			for cx := int(q.x0); cx <= int(q.x1); cx++ {
				firstCol := cx == int(q.x0)
				nx, mx := axisWindow(firstCol, cx == int(q.x1), w[edgeMinX], w[edgeMaxX])
				c := cy*bg.cps + cx
				hi := bg.ends[2*c]
				if firstCol && firstRow {
					hi = bg.ends[half+2*c+1]
				} else if firstCol {
					hi = bg.ends[2*c+1]
				}
				n += bg.tiesOf(bg.starts[c], hi, nx, ny, mx, my)
				if firstRow && !firstCol {
					n += bg.tiesOf(bg.ends[2*c+1], bg.ends[half+2*c], nx, ny, mx, my)
				}
			}
		}
		return n
	}
	for cy := int(q.y0); cy <= int(q.y1); cy++ {
		firstRow, lastRow := cy == int(q.y0), cy == int(q.y1)
		var ys []edgeBound // the row's undecided y edge
		if firstRow {
			ys = w[edgeMaxY : edgeMaxY+1 : edgeMaxY+1]
		} else if lastRow {
			ys = w[edgeMinY : edgeMinY+1 : edgeMinY+1]
		}
		c, last := cy*bg.cps+int(q.x0), cy*bg.cps+int(q.x1)
		hi := bg.ends[2*c+1]
		if firstRow {
			hi = bg.ends[half+2*c+1]
		}
		n += bg.tiesOf(bg.starts[c], hi, append(ys, w[edgeMaxX])...)
		for c++; c < last; c++ {
			if ys != nil {
				n += bg.tiesOf(bg.starts[c], bg.ends[2*c], ys...)
				if firstRow {
					n += bg.tiesOf(bg.ends[2*c+1], bg.ends[half+2*c], ys...)
				}
			}
		}
		n += bg.tiesOf(bg.starts[c], bg.ends[2*c], append(ys, w[edgeMinX])...)
		if ys != nil && firstRow {
			n += bg.tiesOf(bg.ends[2*c+1], bg.ends[half+2*c], append(ys, w[edgeMinX])...)
		}
	}
	return n
}

// BenchmarkFilterKernels prices a tested candidate of each branchless filter
// on each tier: runs of 4 to 256 candidates taken in turn from a cache-warm
// arena of uniform coordinates in [0, 100), against bounds that pass a half
// and a tenth of them. It is the table that says whether any run is short
// enough to be better left to the Go loop (README.md, "Vector kernels", has
// it, and why the wrappers keep no cut-off).
func BenchmarkFilterKernels(b *testing.B) {
	const arenaLen = 4096
	a := newFilterArena("bench", arenaLen, 1, func(rng *xrand.Rand) float32 { return rng.Float32() * 100 })
	for _, f := range a.filters() {
		for _, rate := range []float64{0.5, 0.1} {
			// A point window [0,100] x [0,100*rate]; n independent planes each
			// passing c >= bound with probability rate^(1/n).
			r := geom.Rect{MaxX: 100, MaxY: float32(100 * rate)}
			if f.planes > 0 {
				bound := float32(100 * (1 - math.Pow(rate, 1/float64(f.planes))))
				r = geom.Rect{MinX: bound, MinY: bound, MaxX: bound, MaxY: bound}
			}
			for _, n := range []int{4, 8, 16, 32, 64, 256} {
				loop := func(b *testing.B) {
					var buf []uint32
					passed := 0
					for i := 0; i < b.N; i++ {
						lo := (i * n) % (arenaLen - n + 1)
						buf = f.run(lo, lo+n, r, buf[:0])
						passed += len(buf)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/candidate")
					b.ReportMetric(float64(passed)/float64(b.N*n), "passed")
				}
				name := fmt.Sprintf("%s/pass=%g/n=%d", f.name, rate, n)
				b.Run(name+"/scalar", func(b *testing.B) { scalarTier(func() { loop(b) }) })
				b.Run(name+"/vector", func(b *testing.B) {
					if !vectorKernels {
						b.Skip("vector tier absent: " + missingTier)
					}
					loop(b)
				})
			}
		}
	}
}

func BenchmarkGridScanAlgorithms(b *testing.B) {
	// Algorithm 1 vs Algorithm 2 on the identical structure (Section
	// 3.2's isolated comparison).
	pts := benchPoints(50000)
	q := geom.Square(geom.Pt(500, 500), 18)
	for _, scan := range []Scan{ScanFull, ScanRange} {
		b.Run(fmt.Sprintf("%v", scan), func(b *testing.B) {
			g := MustNew(Config{Layout: LayoutInline, Scan: scan, BS: 4, CPS: 13}, testBounds, len(pts))
			g.Build(pts)
			n := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Query(q, func(uint32) { n++ })
			}
		})
	}
}

// kernelPopulation is the paper's default uniform population and its
// queriers, the input of the two CSR kernel benchmarks.
func kernelPopulation(b *testing.B) (workload.Config, []geom.Point, []uint32) {
	wcfg := workload.DefaultUniform()
	gen, err := workload.NewGenerator(wcfg)
	if err != nil {
		b.Fatal(err)
	}
	return wcfg, gen.Positions(nil), gen.Queriers()
}

// benchWindows times QueryAppend on g, one query per iteration: a square
// window around each querier of ids in turn, at three window sizes. For a
// CSR grid it also reports, over every querier once, the directory rows a
// query walks and the vector entries it makes (kernelEntries): counts that
// repeat exactly, where the times wander.
func benchWindows(b *testing.B, name string, g *Grid, pts []geom.Point, ids []uint32) {
	for _, window := range []float32{100, 400, 1600} {
		b.Run(fmt.Sprintf("%s/w=%g", name, window), func(b *testing.B) {
			var buf []uint32
			results := 0
			for i := 0; i < b.N; i++ {
				buf = g.QueryAppend(geom.Square(pts[ids[i%len(ids)]], window), buf[:0])
				results += len(buf)
			}
			b.ReportMetric(float64(results)/float64(b.N), "results/query")
			if g.csr == nil {
				return
			}
			rows, entries := 0, 0
			var runs []csrRun
			for _, id := range ids {
				var r, e int
				r, e, runs = kernelEntries(g, geom.Square(pts[id], window), runs[:0])
				rows, entries = rows+r, entries+e
			}
			b.ReportMetric(float64(rows)/float64(len(ids)), "rows/query")
			b.ReportMetric(float64(entries)/float64(len(ids)), "entries/query")
		})
	}
}

// kernelEntries returns the directory rows QueryAppend walks for r on the
// CSR grid g, and the assembly routines it enters on this process's tier:
// none on the Go loops; for LayoutCSR one filterRuns a runChunk of rows
// that hold a slot (appendRuns); for LayoutCSRXY one filterXY a non-empty
// filtered stretch, whose copies are memmoves. It lists the walk's runs in
// runs, which it returns for the next call, so that counting allocates
// nothing next to the timed loop.
func kernelEntries(g *Grid, r geom.Rect, runs []csrRun) (rows, entries int, _ []csrRun) {
	x, y, _ := queryWindow(g, r)
	if x.lo > x.hi || y.lo > y.hi {
		return 0, 0, runs
	}
	rows = y.hi - y.lo + 1
	runs, _ = csrWalk(g, r, runs)
	switch {
	case !vectorKernels:
		return rows, 0, runs
	case g.csr.xy == nil:
		return rows, (len(runs) + runChunk - 1) / runChunk, runs
	}
	for _, u := range runs {
		if u.lo < u.in0 {
			entries++
		}
		if u.in1 < u.hi {
			entries++
		}
	}
	return rows, entries, runs
}

// BenchmarkCSRQueryKernel times QueryAppend — the run path — on the
// paper's default uniform population, with the queriers in ID order and in
// cell order (the drivers' schedule), for both CSR layouts and three window
// sizes. internal/grid/README.md, "Emit vs. buffer", carries its table.
func BenchmarkCSRQueryKernel(b *testing.B) {
	wcfg, pts, queriers := kernelPopulation(b)
	for _, cfg := range []Config{CSR(), CSRXY()} {
		g := MustNew(cfg, wcfg.Bounds(), len(pts))
		g.Build(pts)
		inCellOrder := append([]uint32(nil), queriers...)
		sort.SliceStable(inCellOrder, func(i, j int) bool {
			return g.mapper.cellOf(pts[inCellOrder[i]]) < g.mapper.cellOf(pts[inCellOrder[j]])
		})
		benchWindows(b, fmt.Sprintf("%s/id-order", cfg.Layout), g, pts, queriers)
		benchWindows(b, fmt.Sprintf("%s/cell-order", cfg.Layout), g, pts, inCellOrder)
	}
}

// BenchmarkCSRColumns is the evidence behind columnShift: the run path of
// BenchmarkCSRQueryKernel (csr, cps=64, queriers in ID order) with
// every cell cut into 1, 2, 4 and 8 columns. internal/grid/README.md,
// "Columns are free", carries its table beside what the columns cost.
func BenchmarkCSRColumns(b *testing.B) {
	wcfg, pts, queriers := kernelPopulation(b)
	for shift := uint(0); shift <= 3; shift++ {
		g, err := newGrid(CSR(), wcfg.Bounds(), len(pts), shift)
		if err != nil {
			b.Fatal(err)
		}
		g.Build(pts)
		benchWindows(b, fmt.Sprintf("columns=%d", 1<<shift), g, pts, queriers)
	}
}

// BenchmarkAudit prices the publish audit, CheckInvariants, against the
// Build it audits, on both tiers, at the benchmark's sizes: the CSR grid at
// cps=64 over 50 000 and 100 000 DefaultUniform points on the 22 000 space,
// and BoxGrid2L at cps=48 over the 50 000 DefaultUniformBoxes rects.
// internal/grid/README.md, "The audit", carries its table.
func BenchmarkAudit(b *testing.B) {
	for _, n := range []int{50_000, 100_000} {
		cfg := workload.DefaultUniform()
		cfg.NumPoints = n
		pts := workload.MustNewGenerator(cfg).Positions(nil)
		g := MustNew(Config{Layout: LayoutCSR, Scan: ScanRange, BS: 1, CPS: 64}, cfg.Bounds(), n)
		auditRows(b, fmt.Sprintf("csr/cps=64/n=%d", n), func() { g.Build(pts) }, g.CheckInvariants)
	}
	gen := workload.MustNewBoxGenerator(workload.DefaultUniformBoxes())
	rects := gen.Rects(nil)
	bg := MustNewBoxGrid2L(48, gen.Config().Bounds(), len(rects))
	auditRows(b, fmt.Sprintf("box2l/cps=48/n=%d", len(rects)), func() { bg.Build(rects) }, bg.CheckInvariants)
}

// auditRows times build and then audit, each on both tiers. Each timed
// loop starts from a built index and one untimed call, so the scratch both
// keep on the structure is sized and the allocations reported are the
// steady state's.
func auditRows(b *testing.B, name string, build func(), audit func() error) {
	build()
	benchTiers(b, name+"/build", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			build()
		}
	})
	benchTiers(b, name+"/audit", func(b *testing.B) {
		b.ReportAllocs()
		if err := audit(); err != nil {
			b.Fatal(err)
		}
		for b.Loop() {
			if err := audit(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package grid

import (
	"fmt"
	"math"
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
}

func BenchmarkCSRBuildParallel(b *testing.B) {
	pts := benchPoints(50000)
	cfg := Config{Name: "csr", Layout: LayoutCSR, Scan: ScanRange, BS: 1, CPS: 64}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			g := MustNew(cfg, testBounds, len(pts))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.BuildParallel(pts, workers)
			}
		})
	}
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

func BenchmarkCSRUpdate(b *testing.B) {
	pts := benchPoints(50000)
	r := xrand.New(3)
	// Rebuild every half-population of updates, mirroring the framework's
	// one-tick update load between builds (the CSR slack/overflow design
	// assumes that regime; unbounded churn without rebuilds would grow
	// overflow beyond anything the driver produces).
	const updatesPerBuild = 25000
	for _, cfg := range csrContenders() {
		b.Run(cfg.Name, func(b *testing.B) {
			// Each config gets its own copy so earlier sub-benchmarks'
			// moves cannot drift the data later configs measure on.
			local := append([]geom.Point(nil), pts...)
			g := MustNew(cfg, testBounds, len(local))
			g.Build(local)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%updatesPerBuild == 0 {
					b.StopTimer()
					g.Build(local)
					b.StartTimer()
				}
				id := uint32(r.Intn(len(local)))
				to := geom.Pt(r.Range(0, 1000), r.Range(0, 1000))
				g.Update(id, local[id], to)
				local[id] = to
			}
		})
	}
}

// crossingBatch returns a batch that moves every point: the given share
// of them to the position of another point in a different cell (so the
// target cells follow the population's own distribution), the rest
// within their cell.
func crossingBatch(g *Grid, pts []geom.Point, sharePct int, seed uint64) []geom.Move {
	r := xrand.New(seed)
	moves := make([]geom.Move, len(pts))
	for i, p := range pts {
		to := p
		if r.Intn(100) < sharePct {
			for g.cellIndexFor(to) == g.cellIndexFor(p) {
				to = pts[r.Intn(len(pts))]
			}
		}
		moves[i] = geom.Move{ID: uint32(i), Old: p, New: to}
	}
	return moves
}

func alwaysRelocate(int, int) bool  { return false }
func alwaysRescatter(int, int) bool { return true }

// BenchmarkCSRUpdateCrossover is the evidence behind rescatterShare: one
// whole UpdateBatch on a fresh build (the drivers rebuild every tick),
// every point moving and a given share of them crossing a cell, with the
// path forced to relocate or to re-scatter, on the paper's default
// uniform population and on the churn stream's gaussian hotspots at
// cps=64. README.md ("Updates") records the table.
func BenchmarkCSRUpdateCrossover(b *testing.B) {
	hot := workload.DefaultGaussian()
	hot.NumPoints = 100_000
	for _, pop := range []struct {
		name string
		cfg  workload.Config
	}{{"uniform50k", workload.DefaultUniform()}, {"hotspot100k", hot}} {
		pts := workload.MustNewGenerator(pop.cfg).Positions(nil)
		g := MustNew(CSR(), pop.cfg.Bounds(), len(pts))
		for _, pct := range []int{1, 2, 5, 10, 20, 50, 100} {
			moves := crossingBatch(g, pts, pct, uint64(pct))
			for _, path := range []struct {
				name string
				pays func(int, int) bool
			}{{"relocate", alwaysRelocate}, {"rescatter", alwaysRescatter}} {
				b.Run(fmt.Sprintf("%s/crossing=%d%%/%s", pop.name, pct, path.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						g.Build(pts)
						b.StartTimer()
						g.csr.updateBatch(moves, 1, path.pays)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(moves)), "ns/move")
				})
			}
		}
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
// plain one (the acceptance bound: classed build within 1.2x).
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
				rc := bg.rectAt(k)
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
			if of := bg.overflow[c]; len(of) != 0 {
				ofr := bg.overflowR[c]
				for j, id := range of {
					if refCell(bg.spans[id], uint16(cx), uint16(cy), q.x0, q.y0) && ofr[j].Intersects(r) {
						emit(id)
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
// cells (bulk copies).
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
				b.ReportMetric(float64(results)/float64(b.N), "results/query")
			})
		}
	}
}

// BenchmarkBoxEdgeKernels times BoxGrid2L's three window kernels over the
// same runs — every cell's whole segment of the default box population in
// turn, about 25 replicas — against bounds through the cell's centre, so
// each edge passes about half of them: what a candidate costs with four,
// two and one plane read.
func BenchmarkBoxEdgeKernels(b *testing.B) {
	bg, _, _ := defaultBoxGrid()
	for _, k := range []struct {
		name string
		run  func(lo, hi uint32, x, y float32, buf []uint32) []uint32
	}{
		{"four-edge", func(lo, hi uint32, x, y float32, buf []uint32) []uint32 {
			return bg.appendMasked(lo, hi, x, -x-bg.cellSize, y, -y-bg.cellSize, buf)
		}},
		{"two-plane", func(lo, hi uint32, x, y float32, buf []uint32) []uint32 {
			return bg.appendMasked2(lo, hi, bg.mx, x, bg.my, y, buf)
		}},
		{"one-plane", func(lo, hi uint32, x, y float32, buf []uint32) []uint32 {
			return bg.appendMasked1(lo, hi, bg.mx, x, buf)
		}},
	} {
		b.Run(k.name, func(b *testing.B) {
			var buf []uint32
			tested := 0
			for i := 0; i < b.N; i++ {
				c := i % bg.cells
				lo, hi := bg.starts[c], bg.ends[bg.endIdx(c, 3)]
				x := bg.bounds.MinX + (float32(c%bg.cps)+0.5)*bg.cellSize
				y := bg.bounds.MinY + (float32(c/bg.cps)+0.5)*bg.cellSize
				buf = k.run(lo, hi, x, y, buf[:0])
				tested += int(hi - lo)
			}
			b.ReportMetric(float64(tested)/float64(b.N), "tested/op")
		})
	}
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
// window around each querier of ids in turn, at three window sizes.
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
		})
	}
}

// BenchmarkCSRQueryKernel times QueryAppend on the paper's default uniform
// population: the run path of a dense arena against the per-cell walk of the
// same arena after loosen, with the queriers in ID order and in cell order
// (the drivers' schedule), for both CSR layouts and three window sizes.
// internal/grid/README.md, "Emit vs. buffer", carries its table.
func BenchmarkCSRQueryKernel(b *testing.B) {
	wcfg, pts, queriers := kernelPopulation(b)
	far := geom.Pt(wcfg.Bounds().MaxX, wcfg.Bounds().MaxY)
	for _, cfg := range []Config{CSR(), CSRXY()} {
		g := MustNew(cfg, wcfg.Bounds(), len(pts))
		inCellOrder := append([]uint32(nil), queriers...)
		sort.SliceStable(inCellOrder, func(i, j int) bool {
			return g.cellIndexFor(pts[inCellOrder[i]]) < g.cellIndexFor(pts[inCellOrder[j]])
		})
		for _, state := range []string{"dense", "loose"} {
			g.Build(pts)
			if state == "loose" {
				loosen(b, g, pts, 0, far)
			}
			benchWindows(b, fmt.Sprintf("%s/%s/id-order", cfg.Layout, state), g, pts, queriers)
			benchWindows(b, fmt.Sprintf("%s/%s/cell-order", cfg.Layout, state), g, pts, inCellOrder)
		}
	}
}

// BenchmarkCSRColumns is the evidence behind columnShift: the dense run
// path of BenchmarkCSRQueryKernel (csr, cps=64, queriers in ID order) with
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

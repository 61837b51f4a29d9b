// Package repro's top-level benchmarks regenerate every table and figure
// of the paper as testing.B benchmarks: one benchmark family per
// artifact, with sub-benchmarks for the swept parameter. ns/op is the
// wall time of ONE tick of the iterated spatial join — directly
// comparable to the paper's "Avg. Time per Tick" axis.
//
// The experiment harness (cmd/experiments) produces the full tables; the
// benchmarks here are the `go test -bench` face of the same runs.
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig4 -benchtime=10x
package repro

import (
	"fmt"
	"testing"

	"repro/internal/binsearch"
	"repro/internal/core"
	"repro/internal/crtree"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/kdtrie"
	"repro/internal/memsim"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// benchTicks measures the per-tick cost of the full build/query/update
// cycle for idx over the recorded trace, replaying it in a loop.
func benchTicks(b *testing.B, idx core.Index, trace *workload.Trace) {
	b.Helper()
	player := workload.NewPlayer(trace)
	snapshot := make([]geom.Point, len(trace.Initial))
	pairs := int64(0)
	emit := func(id uint32) { pairs++ }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if player.Tick() >= len(trace.Ticks) {
			player.Reset()
		}
		objs := player.Objects()
		for j := range objs {
			snapshot[j] = objs[j].Pos
		}
		idx.Build(snapshot)
		for _, q := range player.Queriers() {
			idx.Query(player.QueryRect(q), emit)
		}
		batch := player.Updates()
		for _, u := range batch {
			idx.Update(u.ID, snapshot[u.ID], u.Pos)
		}
		player.ApplyUpdates(batch)
	}
	b.StopTimer()
	if pairs == 0 && b.N > 0 {
		b.Fatal("benchmark produced no join pairs; workload misconfigured")
	}
}

// recordBench records a workload for benchmarking. Tick counts are small:
// benchTicks loops the trace as b.N demands.
func recordBench(b *testing.B, cfg workload.Config) *workload.Trace {
	b.Helper()
	cfg.Ticks = 8
	trace, err := workload.Record(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return trace
}

func defaultUniform() workload.Config {
	cfg := workload.DefaultUniform()
	cfg.Seed = 1
	return cfg
}

// staticTechniques is the Figure 2 lineup.
func staticTechniques(wcfg workload.Config) map[string]core.Index {
	bounds := wcfg.Bounds()
	return map[string]core.Index{
		"BinarySearch":     binsearch.New(),
		"RTree":            rtree.MustNew(rtree.DefaultFanout),
		"CRTree":           crtree.MustNew(crtree.DefaultFanout),
		"LinearizedKDTrie": kdtrie.MustNew(bounds, kdtrie.DefaultBits),
		"SimpleGridOrig":   grid.MustNew(grid.Original(), bounds, wcfg.NumPoints),
	}
}

var staticOrder = []string{"BinarySearch", "RTree", "CRTree", "LinearizedKDTrie", "SimpleGridOrig"}

// gridVariants is the Figure 4 / Table 2 ablation chain.
func gridVariants(wcfg workload.Config) []struct {
	name string
	idx  core.Index
} {
	bounds := wcfg.Bounds()
	chain := grid.AblationChain()
	names := []string{"Original", "Restructured", "Querying", "BSTuned", "CPSTuned"}
	out := make([]struct {
		name string
		idx  core.Index
	}, len(chain))
	for i, gc := range chain {
		out[i].name = names[i]
		out[i].idx = grid.MustNew(gc, bounds, wcfg.NumPoints)
	}
	return out
}

// BenchmarkFig1aTuneOriginalBS is Figure 1a: bucket size sweep of the
// original Simple Grid. The paper finds a flat curve (bs irrelevant).
func BenchmarkFig1aTuneOriginalBS(b *testing.B) {
	wcfg := defaultUniform()
	trace := recordBench(b, wcfg)
	for _, bs := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("bs=%d", bs), func(b *testing.B) {
			gc := grid.Original()
			gc.BS = bs
			benchTicks(b, grid.MustNew(gc, wcfg.Bounds(), wcfg.NumPoints), trace)
		})
	}
}

// BenchmarkFig1bTuneOriginalCPS is Figure 1b: grid granularity sweep of
// the original Simple Grid. The paper finds a U-shape with optimum 13.
func BenchmarkFig1bTuneOriginalCPS(b *testing.B) {
	wcfg := defaultUniform()
	trace := recordBench(b, wcfg)
	for _, cps := range []int{4, 13, 24, 32} {
		b.Run(fmt.Sprintf("cps=%d", cps), func(b *testing.B) {
			gc := grid.Original()
			gc.CPS = cps
			benchTicks(b, grid.MustNew(gc, wcfg.Bounds(), wcfg.NumPoints), trace)
		})
	}
}

// BenchmarkFig2aQueryRate is Figure 2a: the five static techniques under
// 10%, 50% and 90% query rates.
func BenchmarkFig2aQueryRate(b *testing.B) {
	for _, rate := range []float64{0.1, 0.5, 0.9} {
		wcfg := defaultUniform()
		wcfg.Queriers = rate
		trace := recordBench(b, wcfg)
		techniques := staticTechniques(wcfg)
		for _, name := range staticOrder {
			b.Run(fmt.Sprintf("q=%.1f/%s", rate, name), func(b *testing.B) {
				benchTicks(b, techniques[name], trace)
			})
		}
	}
}

// BenchmarkFig2bHotspots is Figure 2b: the Gaussian workload at 1 and
// 100 hotspots.
func BenchmarkFig2bHotspots(b *testing.B) {
	for _, h := range []int{1, 100} {
		wcfg := workload.DefaultGaussian()
		wcfg.Seed = 1
		wcfg.Hotspots = h
		trace := recordBench(b, wcfg)
		techniques := staticTechniques(wcfg)
		for _, name := range staticOrder {
			b.Run(fmt.Sprintf("hotspots=%d/%s", h, name), func(b *testing.B) {
				benchTicks(b, techniques[name], trace)
			})
		}
	}
}

// BenchmarkFig2cPoints is Figure 2c: population scaling.
func BenchmarkFig2cPoints(b *testing.B) {
	for _, n := range []int{10000, 50000, 90000} {
		wcfg := defaultUniform()
		wcfg.NumPoints = n
		trace := recordBench(b, wcfg)
		techniques := staticTechniques(wcfg)
		for _, name := range staticOrder {
			b.Run(fmt.Sprintf("n=%d/%s", n, name), func(b *testing.B) {
				benchTicks(b, techniques[name], trace)
			})
		}
	}
}

// BenchmarkTable2 reproduces Table 2's phase breakdown: per technique,
// separate build, query, and update phase benchmarks on the default
// workload.
func BenchmarkTable2(b *testing.B) {
	wcfg := defaultUniform()
	trace := recordBench(b, wcfg)
	player := workload.NewPlayer(trace)
	snapshot := make([]geom.Point, len(trace.Initial))
	objs := player.Objects()
	for j := range objs {
		snapshot[j] = objs[j].Pos
	}
	queriers := append([]uint32(nil), player.Queriers()...)
	updates := append([]workload.Update(nil), player.Updates()...)

	techniques := []struct {
		name string
		idx  core.Index
	}{
		{"RTree", rtree.MustNew(rtree.DefaultFanout)},
		{"CRTree", crtree.MustNew(crtree.DefaultFanout)},
		{"LinKDTrie", kdtrie.MustNew(wcfg.Bounds(), kdtrie.DefaultBits)},
	}
	techniques = append(techniques, gridVariants(wcfg)...)

	for _, tech := range techniques {
		idx := tech.idx
		b.Run(tech.name+"/build", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				idx.Build(snapshot)
			}
		})
		idx.Build(snapshot)
		b.Run(tech.name+"/query", func(b *testing.B) {
			pairs := 0
			emit := func(uint32) { pairs++ }
			for i := 0; i < b.N; i++ {
				q := queriers[i%len(queriers)]
				idx.Query(geom.Square(snapshot[q], wcfg.QuerySize), emit)
			}
			if pairs == 0 {
				b.Fatal("no results")
			}
		})
		b.Run(tech.name+"/update", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				u := updates[i%len(updates)]
				// Move there and back so the structure's population is
				// invariant across iterations.
				idx.Update(u.ID, snapshot[u.ID], u.Pos)
				idx.Update(u.ID, u.Pos, snapshot[u.ID])
			}
		})
	}
}

// BenchmarkFig4Ablation is Figure 4 at the default workload: the five
// grid implementations on identical ticks. The paper's headline: the
// last variant is ~6x faster than the first.
func BenchmarkFig4Ablation(b *testing.B) {
	wcfg := defaultUniform()
	trace := recordBench(b, wcfg)
	for _, v := range gridVariants(wcfg) {
		b.Run(v.name, func(b *testing.B) {
			benchTicks(b, v.idx, trace)
		})
	}
}

// BenchmarkFig4bAblationGaussian is Figure 4b's workload (Gaussian,
// default hotspot count) over the ablation chain.
func BenchmarkFig4bAblationGaussian(b *testing.B) {
	wcfg := workload.DefaultGaussian()
	wcfg.Seed = 1
	trace := recordBench(b, wcfg)
	for _, v := range gridVariants(wcfg) {
		b.Run(v.name, func(b *testing.B) {
			benchTicks(b, v.idx, trace)
		})
	}
}

// BenchmarkFig5aTuneRefactoredBS is Figure 5a: bucket size now matters;
// the paper's optimum is 20.
func BenchmarkFig5aTuneRefactoredBS(b *testing.B) {
	wcfg := defaultUniform()
	trace := recordBench(b, wcfg)
	for _, bs := range []int{4, 12, 20, 32} {
		b.Run(fmt.Sprintf("bs=%d", bs), func(b *testing.B) {
			gc := grid.Querying()
			gc.BS = bs
			benchTicks(b, grid.MustNew(gc, wcfg.Bounds(), wcfg.NumPoints), trace)
		})
	}
}

// BenchmarkFig5bTuneRefactoredCPS is Figure 5b: finer grids keep helping
// under Algorithm 2; the paper's optimum is 64.
func BenchmarkFig5bTuneRefactoredCPS(b *testing.B) {
	wcfg := defaultUniform()
	trace := recordBench(b, wcfg)
	for _, cps := range []int{13, 32, 64, 128} {
		b.Run(fmt.Sprintf("cps=%d", cps), func(b *testing.B) {
			gc := grid.Querying()
			gc.BS = grid.RefactoredBS
			gc.CPS = cps
			benchTicks(b, grid.MustNew(gc, wcfg.Bounds(), wcfg.NumPoints), trace)
		})
	}
}

// BenchmarkTable3Profile replays ticks through the memsim hierarchy for
// the before/after configurations. ns/op is simulator time, not real
// hardware; the reported custom metrics carry Table 3's content.
func BenchmarkTable3Profile(b *testing.B) {
	wcfg := defaultUniform()
	wcfg.NumPoints = 20000
	wcfg.SpaceSize = 14000
	trace := recordBench(b, wcfg)
	for _, cfg := range []struct {
		name string
		sim  memsim.GridSimConfig
	}{
		{"Before", memsim.PaperBefore()},
		{"After", memsim.PaperAfter()},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var last memsim.ProfileResult
			for i := 0; i < b.N; i++ {
				res, err := memsim.ProfileGrid(cfg.sim, trace, memsim.DefaultHierarchy(), 2)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.Profile.Instructions), "sim-ins")
			b.ReportMetric(float64(last.Profile.L1Misses), "sim-L1-misses")
			b.ReportMetric(float64(last.Profile.L3Misses), "sim-L3-misses")
			b.ReportMetric(last.Profile.CPI, "sim-CPI")
		})
	}
}

// BenchmarkAblationInlineXY measures the locality refinement the paper
// mentions but does not adopt (coordinates inlined next to the IDs).
func BenchmarkAblationInlineXY(b *testing.B) {
	wcfg := defaultUniform()
	trace := recordBench(b, wcfg)
	configs := []struct {
		name string
		gc   grid.Config
	}{
		{"IDsOnly", grid.CPSTuned()},
		{"InlineXY", func() grid.Config {
			gc := grid.CPSTuned()
			gc.Layout = grid.LayoutInlineXY
			gc.Name = "+inline xy"
			return gc
		}()},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			benchTicks(b, grid.MustNew(c.gc, wcfg.Bounds(), wcfg.NumPoints), trace)
		})
	}
}

// BenchmarkParallelJoin measures the extension beyond the paper: the
// query phase fanned out over worker goroutines.
func BenchmarkParallelJoin(b *testing.B) {
	wcfg := defaultUniform()
	trace, err := workload.Record(func() workload.Config { wcfg.Ticks = 4; return wcfg }())
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			idx := grid.MustNew(grid.CPSTuned(), wcfg.Bounds(), wcfg.NumPoints)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				player := workload.NewPlayer(trace)
				core.RunParallel(idx, player, core.Options{Ticks: 1}, workers)
			}
		})
	}
}

// BenchmarkCSRTick compares whole ticks of the paper's winning inline
// configuration against the CSR layout, sequentially under the paper's
// protocol (benchTicks: callback queries, one Update per move, which the
// static CSR layout ignores) and through the parallel driver (sharded
// counting-sort build, Morton-scheduled queries, and no in-place updates:
// its next build catches up).
func BenchmarkCSRTick(b *testing.B) {
	wcfg := defaultUniform()
	trace := recordBench(b, wcfg)
	b.Run("inline/sequential", func(b *testing.B) {
		benchTicks(b, grid.MustNew(grid.CPSTuned(), wcfg.Bounds(), wcfg.NumPoints), trace)
	})
	b.Run("csr/sequential", func(b *testing.B) {
		benchTicks(b, grid.MustNew(grid.CSR(), wcfg.Bounds(), wcfg.NumPoints), trace)
	})
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("csr/parallel-%d", workers), func(b *testing.B) {
			idx := grid.MustNew(grid.CSR(), wcfg.Bounds(), wcfg.NumPoints)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				player := workload.NewPlayer(trace)
				core.RunParallel(idx, player, core.Options{Ticks: 1}, workers)
			}
		})
	}
}

// BenchmarkMemoryFootprint reports the per-point index footprint of the
// grid layouts, the quantity Section 3.1's analysis derives (32 extra
// bytes per point before, 12 after, at the respective tunings).
func BenchmarkMemoryFootprint(b *testing.B) {
	wcfg := defaultUniform()
	gen, err := workload.NewGenerator(wcfg)
	if err != nil {
		b.Fatal(err)
	}
	pts := gen.Positions(nil)
	for _, cfg := range []grid.Config{grid.Original(), grid.Restructured(), grid.CPSTuned()} {
		b.Run(cfg.DisplayName(), func(b *testing.B) {
			g := grid.MustNew(cfg, wcfg.Bounds(), wcfg.NumPoints)
			for i := 0; i < b.N; i++ {
				g.Build(pts)
			}
			b.ReportMetric(float64(g.MemoryBytes())/float64(len(pts)), "bytes/point")
		})
	}
}

package bench

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/kdtrie"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Extension experiments go beyond the paper's artifacts: ablations of
// design choices DESIGN.md calls out and the parallel-query extension.
// They live in their own registry so the paper registry keeps exactly
// one entry per published table/figure.

var extensions []Experiment

func registerExt(e Experiment) { extensions = append(extensions, e) }

// AllExtensions returns the beyond-paper experiments.
func AllExtensions() []Experiment {
	out := make([]Experiment, len(extensions))
	copy(out, extensions)
	return out
}

// ExtensionByID returns the extension experiment with the given ID.
func ExtensionByID(id string) (Experiment, bool) {
	for _, e := range extensions {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func init() {
	registerExt(Experiment{
		ID:    "ext-mem",
		Title: "Extension: per-point memory footprint of the grid layouts (Section 3.1 analysis)",
		PaperShape: "the paper derives 32 extra bytes/point for the original structure at " +
			"bs=4 and 12 bytes/point after restructuring; the Go constants differ " +
			"(documented in internal/grid) but the large reduction must hold",
		Run: runMemoryFootprint,
	})
	registerExt(Experiment{
		ID:    "ext-xy",
		Title: "Extension: inlining coordinates into buckets (the refinement Section 3.1 declines)",
		PaperShape: "storing x,y next to the IDs removes the base-table dereference on " +
			"filtered cells; the paper predicts a further gain but keeps the " +
			"secondary-index assumption instead",
		Run: runInlineXY,
	})
	registerExt(Experiment{
		ID:    "ext-par",
		Title: "Extension: parallel query phase (beyond the single-threaded study)",
		PaperShape: "not in the paper (single-threaded study); the static index is " +
			"immutable during the query phase, so queriers partition across cores",
		Run: runParallelScaling,
	})
	registerExt(Experiment{
		ID:    "ext-handles",
		Title: "Extension: update cost by grid layout — bucketed removal vs O(1) handles",
		PaperShape: "explains the Table 2 update-column deviation documented in " +
			"EXPERIMENTS.md: the original framework's grid updates were ~116ns, " +
			"implying O(1) node handles (the u-grid design of reference [8]); the " +
			"intrusive layout reproduces that, the pure Figure 3a layout pays a " +
			"list search",
		Run: runHandleAblation,
	})
	registerExt(Experiment{
		ID:    "ext-csr",
		Title: "Extension: CSR (contiguous counting-sort) layout vs inline buckets, one worker and the parallel tick pipeline",
		PaperShape: "not in the paper; related work (Tsitsigkos et al.) shows a " +
			"partition-based contiguous layout built by counting sort beats " +
			"chained buckets — dense cell segments remove pointer chasing from " +
			"queries; both layouts build on one core, also in the parallel " +
			"ticks, which spread the snapshot refresh and the queries",
		Run: runCSRAblation,
	})
	registerExt(Experiment{
		ID:    "ext-hilbert",
		Title: "Extension: KD-trie linearization — Z-order vs Hilbert curve",
		PaperShape: "not in the paper; the kd-split derivation yields Z-order, the " +
			"Hilbert curve is the better-locality alternative — measured, Hilbert " +
			"loses ~20-45%: its iterative encode dominates the rebuild-every-tick " +
			"regime while per-cell binary search hides the locality gain",
		Run: runHilbertAblation,
	})
}

// runHandleAblation measures the per-phase breakdown of three grid
// layouts at identical tuning, isolating the update path: the pure
// Figure 3a linked layout (list-search removal), the refactored inline
// layout (head-fill removal), and the intrusive handle layout (O(1)
// unlink).
func runHandleAblation(cfg Config) (Artifact, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	wcfg := workload.DefaultUniform()
	wcfg.Seed = cfg.Seed
	wcfg.Ticks = scaledTicks(workload.DefaultTicks, cfg)
	trace, err := workload.Record(wcfg)
	if err != nil {
		return nil, err
	}
	layouts := []grid.Config{
		{Name: "linked (Fig. 3a)", Layout: grid.LayoutLinked, Scan: grid.ScanRange, BS: grid.OriginalBS, CPS: grid.OriginalCPS},
		{Name: "inline (Fig. 3b)", Layout: grid.LayoutInline, Scan: grid.ScanRange, BS: grid.OriginalBS, CPS: grid.OriginalCPS},
		{Name: "intrusive handles", Layout: grid.LayoutIntrusive, Scan: grid.ScanRange, BS: grid.OriginalBS, CPS: grid.OriginalCPS},
	}
	table := stats.NewTable(
		"Update-path ablation at bs=4, cps=13 (Algorithm 2 queries)",
		"Layout", "Build (s)", "Query (s)", "Update (s)",
	)
	var refPairs int64
	var refHash uint64
	for i, lc := range layouts {
		g, err := grid.New(lc, wcfg.Bounds(), wcfg.NumPoints)
		if err != nil {
			return nil, err
		}
		build, query, update, res := runBreakdown(trace, g)
		if i == 0 {
			refPairs, refHash = res.Pairs, res.Hash
		} else if res.Pairs != refPairs || res.Hash != refHash {
			return nil, errDigest(lc.Name, layouts[0].Name)
		}
		table.AddRow(lc.Name, fmtSecs(build), fmtSecs(query), fmtSecs(update))
	}
	return table, nil
}

// runCSRAblation measures the per-phase breakdown of the tuned inline
// grid against the CSR layout, sequentially and with the parallel tick
// pipeline (the snapshot refresh and Morton-scheduled queries over the
// workers; both layouts build on one core), verifying all four runs agree on
// the join digest. It runs the paper's update protocol
// (MaintainInPlace), so the Update column prices the inline buckets'
// remove + insert against the CSR rows' no-op call: the CSR layout is
// static, as Table 2's R-tree row is, and the next Build sees the moves.
func runCSRAblation(cfg Config) (Artifact, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	wcfg := workload.DefaultUniform()
	wcfg.Seed = cfg.Seed
	wcfg.Ticks = scaledTicks(workload.DefaultTicks, cfg)
	trace, err := workload.Record(wcfg)
	if err != nil {
		return nil, err
	}
	rows := []struct {
		name     string
		gc       grid.Config
		parallel bool
	}{
		{"inline (bs=20, cps=64)", grid.CPSTuned(), false},
		{"csr (cps=64)", grid.CSR(), false},
		{"inline, parallel ticks", grid.CPSTuned(), true},
		{"csr, parallel ticks", grid.CSR(), true},
	}
	table := stats.NewTable(
		"CSR layout vs inline buckets at cps=64 (sequential and parallel tick pipeline)",
		"Configuration", "Build (s)", "Query (s)", "Update (s)",
	)
	var refPairs int64
	var refHash uint64
	for i, row := range rows {
		g, err := grid.New(row.gc, wcfg.Bounds(), wcfg.NumPoints)
		if err != nil {
			return nil, err
		}
		src := MaintainInPlace(g, workload.NewPlayer(trace))
		var res *core.Result
		if row.parallel {
			res = core.RunParallel(g, src, core.Options{}, 0)
		} else {
			res = core.Run(g, src, core.Options{})
		}
		if i == 0 {
			refPairs, refHash = res.Pairs, res.Hash
		} else if res.Pairs != refPairs || res.Hash != refHash {
			return nil, errDigest(row.name, rows[0].name)
		}
		table.AddRow(row.name,
			fmtSecs(res.AvgBuild().Seconds()),
			fmtSecs(res.AvgQuery().Seconds()),
			fmtSecs(res.AvgUpdate().Seconds()))
	}
	return table, nil
}

// runHilbertAblation compares the two linearizations across the
// query-rate sweep.
func runHilbertAblation(cfg Config) (Artifact, error) {
	lineup := []technique{
		{"Z-order", func(p core.Params) core.Index {
			return kdtrie.MustNewWithCurve(p.Bounds, kdtrie.DefaultBits, kdtrie.CurveZOrder)
		}},
		{"Hilbert", func(p core.Params) core.Index {
			return kdtrie.MustNewWithCurve(p.Bounds, kdtrie.DefaultBits, kdtrie.CurveHilbert)
		}},
	}
	return sweepExperiment(cfg, lineup, queryRateSweep())
}

// runMemoryFootprint builds each layout over the default population and
// reports measured bytes per point next to the analytical footprint.
func runMemoryFootprint(cfg Config) (Artifact, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	wcfg := workload.DefaultUniform()
	wcfg.Seed = cfg.Seed
	gen, err := workload.NewGenerator(wcfg)
	if err != nil {
		return nil, err
	}
	pts := gen.Positions(nil)

	table := stats.NewTable(
		fmt.Sprintf("Grid memory footprint over %d points", len(pts)),
		"Configuration", "Total Bytes", "Bytes/Point", "Directory Bytes",
	)
	for _, gc := range []grid.Config{
		grid.Original(),
		grid.Restructured(),
		grid.BSTuned(),
		grid.CPSTuned(),
	} {
		g, err := grid.New(gc, wcfg.Bounds(), wcfg.NumPoints)
		if err != nil {
			return nil, err
		}
		g.Build(pts)
		total := g.MemoryBytes()
		var dirBytes int64
		if gc.Layout == grid.LayoutLinked {
			dirBytes = int64(gc.CPS * gc.CPS * 16)
		} else {
			dirBytes = int64(gc.CPS * gc.CPS * 4)
		}
		table.AddRow(
			gc.DisplayName(),
			fmt.Sprintf("%d", total),
			fmt.Sprintf("%.1f", float64(total)/float64(len(pts))),
			fmt.Sprintf("%d", dirBytes),
		)
	}
	return table, nil
}

// runInlineXY compares the adopted IDs-only refactored grid with the
// coordinates-inlined variant across the query-rate sweep.
func runInlineXY(cfg Config) (Artifact, error) {
	xy := grid.CPSTuned()
	xy.Layout = grid.LayoutInlineXY
	xy.Name = "+inline xy"
	lineup := []technique{
		{"+cps tuned (ids only)", gridFactory(grid.CPSTuned)},
		{"+inline xy", func(p core.Params) core.Index {
			return grid.MustNew(xy, p.Bounds, p.NumPoints)
		}},
	}
	return sweepExperiment(cfg, lineup, queryRateSweep())
}

// runParallelScaling measures the tuned grid's per-tick time at 1, 2, 4
// and GOMAXPROCS workers on the default workload. Its inline buckets
// build sequentially at every worker count; the refresh and the query
// phase shard.
func runParallelScaling(cfg Config) (Artifact, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	wcfg := workload.DefaultUniform()
	wcfg.Seed = cfg.Seed
	wcfg.Ticks = scaledTicks(workload.DefaultTicks, cfg)
	trace, err := workload.Record(wcfg)
	if err != nil {
		return nil, err
	}
	workerCounts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		workerCounts = append(workerCounts, p)
	}
	series := &stats.Series{
		Title:  "Parallel query phase: tuned Simple Grid",
		XLabel: "workers",
		YLabel: "Avg. Time per Tick (s)",
	}
	var ys []float64
	var refPairs int64
	var refHash uint64
	for i, w := range workerCounts {
		idx := grid.MustNew(grid.CPSTuned(), wcfg.Bounds(), wcfg.NumPoints)
		res := core.RunParallel(idx, workload.NewPlayer(trace), core.Options{}, w)
		if i == 0 {
			refPairs, refHash = res.Pairs, res.Hash
		} else if res.Pairs != refPairs || res.Hash != refHash {
			return nil, fmt.Errorf("bench: parallel run with %d workers changed the join result", w)
		}
		series.Xs = append(series.Xs, float64(w))
		ys = append(ys, res.AvgTick().Seconds())
	}
	if err := series.AddLine("Avg. Time per Tick (s)", ys); err != nil {
		return nil, err
	}
	return series, nil
}

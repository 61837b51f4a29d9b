// Command gridbench measures the grid's three operations — Build, Query,
// Update — across physical layouts and emits the numbers as JSON, the
// machine-readable perf trajectory the CI smoke bench tracks
// (BENCH_grid.json). The point lineup compares the inline-bucket layout
// against the CSR layout and the coordinates-inlined CSR variant
// (csrxy); with -objects point,box the report additionally carries the
// "boxcsr" series (the CSR rectangle grid with reference-point dedup),
// the "boxcsr2l" series (the two-layer class-partitioned grid with
// inlined coordinates), the "boxrtree" series (the STR bulk-loaded box
// R-tree — the competing index family), and a one-pass "boxbrute" floor
// over the default MBR workload.
//
// Every measured structure is first checked against the brute-force
// oracle: the run fails if any contender's query digest diverges, so a
// perf number can never be reported for a structure that returns wrong
// results.
//
// Each layout's query phase is measured twice — through the classic
// per-result callback (op "query") and through the buffered QueryAppend
// kernel the engines drain by default (op "query-append") — and the
// per-layout ratio lands in buffered_speedup_vs_emit, which CI gates
// for csr and boxcsr2l at the paper's tuned granularity.
//
// The workload mirrors the paper's standard setting: the default uniform
// population with 50% queriers and 50% updaters per tick. Layouts are
// compared at the paper's tuned granularity (cps=64) and at a much finer
// grid (cps=256) where contiguity (and, for boxes, replication) matters
// most. -qext adds a rect x rect window-join series per query extent, so
// the class-partition win is visible across selectivities.
//
// Both object classes additionally measure the adaptive selector
// (internal/tune, lineup keys auto/boxauto) under the same oracle
// digest gate, and -objects box runs three contrasting workloads
// (query-heavy small-extent, update-heavy, coarse-window join) where
// auto races every static family: the per-workload regret — auto's
// total tick time over the best static's — lands in the
// auto_regret_vs_best_static series, with the pick and the measured
// best recorded next to it in auto_choice.
//
// Examples:
//
//	gridbench                          # defaults, JSON to stdout
//	gridbench -iters 100 -out BENCH_grid.json
//	gridbench -objects point,box       # include the box-join series
//	gridbench -objects box -qext 100,400,1600
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/parutil"
	"repro/internal/rtree"
	"repro/internal/shard"
	"repro/internal/tune"
	"repro/internal/workload"
)

// opResult is one (layout, cps, op) timing. Qext is set only for the
// query-extent sweep series (-qext), where op is always "query";
// Workload is set only for the contrasting-workload regret series,
// whose rows are not part of the default-workload matrix. For the
// auto series, CPS carries the tuned structural parameter of whichever
// family was picked (grid cps, or R-tree fanout).
type opResult struct {
	Layout   string  `json:"layout"`
	CPS      int     `json:"cps"`
	Op       string  `json:"op"`
	NsPerOp  float64 `json:"ns_per_op"`
	Qext     float64 `json:"qext,omitempty"`
	Workload string  `json:"workload,omitempty"`
}

// benchMeta records the provenance of one BENCH_grid.json: toolchain,
// host parallelism, capture time, and (best-effort) the commit measured.
type benchMeta struct {
	GoVersion    string `json:"go_version"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"num_cpu"`
	TimestampUTC string `json:"timestamp_utc"`
	GitSHA       string `json:"git_sha,omitempty"`
}

// report is the BENCH_grid.json schema.
type report struct {
	Tool   string    `json:"tool"`
	Meta   benchMeta `json:"meta"`
	Points int       `json:"points"`
	Iters  int       `json:"iters"`
	// EffectiveCPUs is runtime.GOMAXPROCS on the measuring host. The
	// sharded series' parallel speedups are only meaningful when this is
	// comfortably above 1 — CI's scaling gate conditions on it.
	EffectiveCPUs int        `json:"effective_cpus"`
	Results       []opResult `json:"results"`
	// Summary ratios: inline time / csr time per operation and for the
	// acceptance-criterion pairing build+query, at each granularity.
	Speedups map[string]float64 `json:"csr_speedup_vs_inline"`
	// XYSpeedups compares the coordinates-inlined CSR against plain CSR
	// (csr time / csrxy time).
	XYSpeedups map[string]float64 `json:"csrxy_speedup_vs_csr,omitempty"`
	// Box2LSpeedups compares the two-layer classed rectangle grid against
	// the reference-point one (boxcsr time / boxcsr2l time).
	Box2LSpeedups map[string]float64 `json:"box2l_speedup_vs_boxcsr,omitempty"`
	// BoxRTreeVsBrute compares the STR box R-tree against the
	// brute-force oracle (boxbrute time / boxrtree time; query only —
	// the oracle has no build or update work to compare).
	BoxRTreeVsBrute map[string]float64 `json:"boxrtree_speedup_vs_boxbrute,omitempty"`
	// BoxRTreeVsBox2L compares the STR box R-tree against the two-layer
	// classed grid at each granularity (boxcsr2l time / boxrtree time) —
	// the grid-vs-R-tree axis of the study for extended objects.
	BoxRTreeVsBox2L map[string]float64 `json:"boxrtree_speedup_vs_box2l,omitempty"`
	// BoxReplication maps "cps=N" to the rectangle grid's replication
	// factor under the default box workload (present with -objects box).
	BoxReplication map[string]float64 `json:"box_replication,omitempty"`
	// BufferedSpeedup maps "layout/cps=N" (grids) or "boxrtree/fanout=N"
	// to the query-phase speedup of the buffered QueryAppend kernel over
	// the per-result callback kernel (emit ns / append ns) on the default
	// workload. Both kernels are digest-gated against the brute-force
	// oracle before being timed, so the ratio can never be bought with
	// wrong results. CI gates csr and boxcsr2l at cps=64 — the engines
	// drain buffered by default, so a regression here is a regression of
	// the default tick query phase.
	BufferedSpeedup map[string]float64 `json:"buffered_speedup_vs_emit,omitempty"`
	// AutoRegret maps a workload key to the adaptive selector's
	// measured regret vs the best static contender on that workload:
	// auto's total tick time (build + queries + updates) over the best
	// static's, minus 1. Negative = auto beat every static family it
	// was allowed to pick from (it may tune parameters the static
	// ladder does not include).
	AutoRegret map[string]float64 `json:"auto_regret_vs_best_static,omitempty"`
	// AutoChoices records, per workload key, what the selector picked
	// and which static contender actually measured best.
	AutoChoices map[string]string `json:"auto_choice,omitempty"`
	// Concurrent carries the service-mode series (-concurrent): per-query
	// latency percentiles measured while the epoch-published wrapper
	// applies the update stream concurrently, one row per object class.
	Concurrent []concurrentReport `json:"concurrent,omitempty"`
	// Sharded carries the region-sharded engine series: the sharded
	// router and the unsharded contenders measured under the same
	// parallel tick model (parallel build, queries striped across the
	// worker pool, batched updates) at -shard-workers workers.
	Sharded []shardedRow `json:"sharded,omitempty"`
	// ShardedSpeedup maps "point/tick@Nw" / "box/tick@Nw" to the sharded
	// engine's modelled tick throughput over the best unsharded
	// contender's under the same parallel model.
	ShardedSpeedup map[string]float64 `json:"sharded_speedup,omitempty"`
	// ObsOverheadPct maps the tuned layouts to the percentage cost of
	// running the stop-the-world driver with a live obs registry attached
	// vs none (interleaved min-of-rounds; both runs digest-gated against
	// each other). CI gates this at <= 5%.
	ObsOverheadPct map[string]float64 `json:"obs_overhead_pct,omitempty"`
}

// shardedRow is one contender of the sharded series. Side is the
// region-grid side for the sharded engine (0 for unsharded contenders);
// DuplicateEmits counts (querier, id) pairs reported more than once
// across the whole digest pass — any non-zero value is a cross-shard
// merge bug and the run fails before timing anyway.
type shardedRow struct {
	Layout         string  `json:"layout"`
	Side           int     `json:"side,omitempty"`
	Workers        int     `json:"workers"`
	BuildNs        float64 `json:"build_ns"`
	QueryNs        float64 `json:"query_ns"`
	UpdateNs       float64 `json:"update_ns"`
	TickNs         float64 `json:"tick_ns"`
	DuplicateEmits int     `json:"duplicate_emits"`
}

// concurrentReport is one epoch-published service-mode measurement. The
// baseline is the stop-the-world matrix's per-tick query phase (per-query
// ns x queriers per tick) for the same inner structure; P99VsTickPhase
// is the headline gate — a loaded query must never stall anywhere near a
// whole stop-the-world phase, i.e. the ratio stays well under 2.
type concurrentReport struct {
	Layout          string  `json:"layout"`
	Readers         int     `json:"readers"`
	Ticks           int     `json:"ticks"`
	QueryP50Ns      float64 `json:"concurrent_query_p50_ns"`
	QueryP95Ns      float64 `json:"concurrent_query_p95_ns"`
	QueryP99Ns      float64 `json:"concurrent_query_p99_ns"`
	TickQueryNs     float64 `json:"baseline_tick_query_ns"`
	P99VsTickPhase  float64 `json:"p99_vs_tick_query_phase"`
	EpochsPublished uint64  `json:"epochs_published"`
	DegradedTicks   uint64  `json:"degraded_ticks"`
	PanicsContained uint64  `json:"panics_contained"`
	FailedTicks     int     `json:"failed_ticks"`
	Violations      int64   `json:"violations"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gridbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gridbench", flag.ContinueOnError)
	var (
		iters   = fs.Int("iters", 100, "measured iterations per operation (like -benchtime=100x)")
		points  = fs.Int("points", workload.DefaultNumPoints, "number of objects")
		seed    = fs.Uint64("seed", 1, "workload random seed")
		out     = fs.String("out", "", "write JSON here instead of stdout")
		objects = fs.String("objects", "point", "comma-separated object classes to measure: point, box")
		qext    = fs.String("qext", "", "comma-separated query side lengths: adds a box window-join query series per extent")
		conc    = fs.Bool("concurrent", true, "measure the epoch-published service mode (query latency under update load)")
		cticks  = fs.Int("concurrent-ticks", 8, "ticks for the -concurrent measurement")
		readers = fs.Int("readers", 0, "query workers for -concurrent (0 = all CPUs minus one)")
		shards  = fs.Int("shards", 0, "region-grid side for the sharded series (0 = tune ladder picks)")
		sworker = fs.Int("shard-workers", 8, "worker pool for the sharded parallel tick series (0 disables the series)")
		dbgAddr = fs.String("debug-addr", "", "serve /debug/obs snapshots and pprof for the bench process on this address (instruments the -concurrent series)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The debug registry observes the service-mode series; the overhead
	// measurement below always uses its own private registries so the
	// number is the same with or without -debug-addr.
	var dbgReg *obs.Registry
	if *dbgAddr != "" {
		dbgReg = obs.New()
		addr, err := obs.Serve(*dbgAddr, dbgReg)
		if err != nil {
			return fmt.Errorf("debug endpoint: %w", err)
		}
		fmt.Fprintf(os.Stderr, "gridbench: debug endpoint on http://%s/debug/obs\n", addr)
	}
	if *iters <= 0 {
		return fmt.Errorf("iters must be positive, got %d", *iters)
	}
	wantPoint, wantBox := false, false
	for _, o := range strings.Split(*objects, ",") {
		switch strings.TrimSpace(o) {
		case "point":
			wantPoint = true
		case "box":
			wantBox = true
		default:
			return fmt.Errorf("unknown object class %q (have point, box)", o)
		}
	}
	var qexts []float64
	if *qext != "" {
		if !wantBox {
			return fmt.Errorf("-qext is a box window-join sweep; add box to -objects")
		}
		for _, tok := range strings.Split(*qext, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil || v <= 0 {
				return fmt.Errorf("invalid query extent %q", tok)
			}
			qexts = append(qexts, v)
		}
	}

	wcfg := workload.DefaultUniform()
	wcfg.Seed = *seed
	wcfg.NumPoints = *points
	gen, err := workload.NewGenerator(wcfg)
	if err != nil {
		return err
	}
	pts := gen.Positions(nil)
	queriers := append([]uint32(nil), gen.Queriers()...)
	updates := append([]workload.Update(nil), gen.Updates()...)
	if len(queriers) == 0 || len(updates) == 0 {
		return fmt.Errorf("population %d yields %d queriers and %d updates per tick; raise -points",
			len(pts), len(queriers), len(updates))
	}

	rep := &report{
		Tool: "cmd/gridbench",
		Meta: benchMeta{
			GoVersion:    runtime.Version(),
			GOMAXPROCS:   runtime.GOMAXPROCS(0),
			NumCPU:       runtime.NumCPU(),
			TimestampUTC: time.Now().UTC().Format(time.RFC3339),
			GitSHA:       gitSHA(),
		},
		Points:          len(pts),
		Iters:           *iters,
		EffectiveCPUs:   runtime.GOMAXPROCS(0),
		Speedups:        map[string]float64{},
		AutoRegret:      map[string]float64{},
		AutoChoices:     map[string]string{},
		BufferedSpeedup: map[string]float64{},
		ObsOverheadPct:  map[string]float64{},
	}

	type contender struct {
		layout grid.Layout
		name   string
	}
	if wantPoint {
		// The oracle digest the layouts must reproduce before being timed.
		wantDigest := brutePointDigest(pts, queriers, wcfg.QuerySize)
		ops := map[string]map[string]float64{} // op+cps key -> layout -> ns/op
		for _, cps := range []int{64, 256} {
			for _, c := range []contender{
				{grid.LayoutInline, "inline"},
				{grid.LayoutCSR, "csr"},
				{grid.LayoutCSRXY, "csrxy"},
			} {
				gc := grid.Config{Layout: c.layout, Scan: grid.ScanRange, BS: grid.RefactoredBS, CPS: cps}
				g, err := grid.New(gc, wcfg.Bounds(), len(pts))
				if err != nil {
					return err
				}
				g.Build(pts)
				if got := emitDigest(g, pts, pointCenter, queriers, wcfg.QuerySize); got != wantDigest {
					return fmt.Errorf("layout %s at cps=%d diverges from the brute-force oracle (digest %#x, want %#x)",
						c.name, cps, got, wantDigest)
				}
				timings := measure(g, pts, queriers, updates, wcfg.QuerySize, *iters)
				for op, ns := range timings {
					rep.Results = append(rep.Results, opResult{Layout: c.name, CPS: cps, Op: op, NsPerOp: ns})
					key := fmt.Sprintf("%s/cps=%d", op, cps)
					if ops[key] == nil {
						ops[key] = map[string]float64{}
					}
					ops[key][c.name] = ns
				}
				// The tick query phase both ways the driver drains it —
				// callback-with-digest-fold vs buffered-append-then-fold —
				// against the same oracle and over a fresh build (measure's
				// update phase churns bucket order). This paired measurement
				// is the emit-vs-append comparison the CI gate tracks.
				g.Build(pts)
				if got := appendDigest(g, pts, pointCenter, queriers, wcfg.QuerySize); got != wantDigest {
					return fmt.Errorf("layout %s at cps=%d: buffered kernel diverges from the brute-force oracle (digest %#x, want %#x)",
						c.name, cps, got, wantDigest)
				}
				emitNs, appendNs := measureQueryKernels(g, pts, pointCenter, queriers, wcfg.QuerySize, *iters)
				rep.Results = append(rep.Results, opResult{Layout: c.name, CPS: cps, Op: "query-emit", NsPerOp: emitNs})
				rep.Results = append(rep.Results, opResult{Layout: c.name, CPS: cps, Op: "query-append", NsPerOp: appendNs})
				rep.BufferedSpeedup[fmt.Sprintf("%s/cps=%d", c.name, cps)] = emitNs / appendNs
			}
		}
		rep.XYSpeedups = map[string]float64{}
		for _, cps := range []int{64, 256} {
			for _, op := range []string{"build", "query", "update"} {
				key := fmt.Sprintf("%s/cps=%d", op, cps)
				rep.Speedups[key] = ops[key]["inline"] / ops[key]["csr"]
				rep.XYSpeedups[key] = ops[key]["csr"] / ops[key]["csrxy"]
			}
			bq := fmt.Sprintf("build+query/cps=%d", cps)
			inline := ops[fmt.Sprintf("build/cps=%d", cps)]["inline"] + ops[fmt.Sprintf("query/cps=%d", cps)]["inline"]
			csr := ops[fmt.Sprintf("build/cps=%d", cps)]["csr"] + ops[fmt.Sprintf("query/cps=%d", cps)]["csr"]
			rep.Speedups[bq] = inline / csr
		}

		// The adaptive selector, under the same digest gate, with its
		// regret vs the best contender of the static matrix above.
		auto := tune.NewAuto(core.ParamsFor(wcfg))
		auto.Build(pts)
		if got := emitDigest(auto, pts, pointCenter, queriers, wcfg.QuerySize); got != wantDigest {
			return fmt.Errorf("auto layout diverges from the brute-force oracle (digest %#x, want %#x)", got, wantDigest)
		}
		choice, _ := auto.Choice()
		autoOps := measure(auto, pts, queriers, updates, wcfg.QuerySize, *iters)
		for op, ns := range autoOps {
			rep.Results = append(rep.Results, opResult{Layout: "auto", CPS: choice.CPS, Op: op, NsPerOp: ns})
		}
		autoTotal := tickTotal(autoOps, len(queriers), len(updates))
		best, bestKey := math.Inf(1), ""
		for _, cps := range []int{64, 256} {
			for _, layout := range []string{"inline", "csr", "csrxy"} {
				t := tickTotal(map[string]float64{
					"build":  ops[fmt.Sprintf("build/cps=%d", cps)][layout],
					"query":  ops[fmt.Sprintf("query/cps=%d", cps)][layout],
					"update": ops[fmt.Sprintf("update/cps=%d", cps)][layout],
				}, len(queriers), len(updates))
				if t < best {
					best, bestKey = t, fmt.Sprintf("%s/cps=%d", layout, cps)
				}
			}
		}
		rep.AutoRegret["point-default"] = autoTotal/best - 1
		rep.AutoChoices["point-default"] = fmt.Sprintf("%s (best static %s)", choice, bestKey)

		// Service mode: the epoch-published wrapper over the tuned CSR
		// grid, queries overlapped with the update stream. The baseline is
		// the same structure's stop-the-world query phase from the matrix
		// above.
		if *conc && *cticks > 0 {
			cgen, err := workload.NewGenerator(wcfg)
			if err != nil {
				return err
			}
			x := epoch.NewIndex(func() core.Index {
				gc := grid.Config{Layout: grid.LayoutCSR, Scan: grid.ScanRange, BS: grid.RefactoredBS, CPS: 64}
				return grid.MustNew(gc, wcfg.Bounds(), len(pts))
			}, epoch.Options{})
			cres := core.RunConcurrent(x, cgen, core.ConcurrentOptions{Ticks: *cticks, Readers: *readers, Obs: dbgReg})
			if cres.Violations != 0 {
				return fmt.Errorf("concurrent point run: %d queries observed an unpublished epoch", cres.Violations)
			}
			tickQueryNs := ops["query/cps=64"]["csr"] * float64(len(queriers))
			rep.Concurrent = append(rep.Concurrent, concurrentRow("csr/cps=64", cres, tickQueryNs))
		}

		// Instrumentation overhead on the tuned point layout: the same
		// driver+structure+workload with a live registry vs none.
		ocfg := wcfg
		ocfg.Ticks = obsOverheadTicks
		pct, err := measureObsOverhead(func(reg *obs.Registry) (*core.Result, error) {
			gen, err := workload.NewGenerator(ocfg)
			if err != nil {
				return nil, err
			}
			gc := grid.Config{Layout: grid.LayoutCSR, Scan: grid.ScanRange, BS: grid.RefactoredBS, CPS: 64}
			return core.Run(grid.MustNew(gc, ocfg.Bounds(), ocfg.NumPoints), gen, core.Options{Obs: reg}), nil
		})
		if err != nil {
			return err
		}
		rep.ObsOverheadPct["csr/cps=64"] = pct

		// The region-sharded engine against the best unsharded
		// contenders, all under the same parallel tick model.
		if *sworker > 0 {
			if err := runShardedPoint(rep, wcfg, pts, queriers, updates, *iters, *shards, *sworker, wantDigest); err != nil {
				return err
			}
		}
	}

	if wantBox {
		bcfg := workload.DefaultUniformBoxes()
		bcfg.Seed = *seed
		bcfg.NumPoints = *points
		bgen, err := workload.NewBoxGenerator(bcfg)
		if err != nil {
			return err
		}
		rects := bgen.Rects(nil)
		boxQueriers := append([]uint32(nil), bgen.Queriers()...)
		boxUpdates := append([]workload.BoxUpdate(nil), bgen.Updates()...)
		if len(boxQueriers) == 0 || len(boxUpdates) == 0 {
			return fmt.Errorf("box population %d yields %d queriers and %d updates per tick; raise -points",
				len(rects), len(boxQueriers), len(boxUpdates))
		}
		wantDigest := bruteBoxDigest(rects, boxQueriers, bcfg.QuerySize)
		rep.BoxReplication = map[string]float64{}
		rep.Box2LSpeedups = map[string]float64{}
		boxOps := map[string]map[string]float64{} // op+cps key -> layout -> ns/op

		// Grid-independent contenders, measured once: the brute-force
		// floor (a single pass; its per-query cost is an average over
		// thousands of full scans already) and the STR box R-tree — the
		// second index family, whose overlap-free packing vs the grids'
		// replication is the axis of the study for extended objects.
		bruteNs := map[string]float64{}
		rtreeNs := map[string]float64{}
		for _, bc := range []boxContender{
			{"boxbrute", core.NewBruteForceBoxes()},
			{"boxrtree", rtree.MustNewBoxTree(rtree.DefaultFanout)},
		} {
			bc.index.Build(rects)
			if got := emitDigest(bc.index, rects, geom.Rect.Center, boxQueriers, bcfg.QuerySize); got != wantDigest {
				return fmt.Errorf("box technique %s diverges from the brute-force oracle (digest %#x, want %#x)",
					bc.name, got, wantDigest)
			}
			ops := *iters
			if bc.name == "boxbrute" {
				ops = 1
			}
			timings := measureBox(bc.index, rects, boxQueriers, boxUpdates, bcfg.QuerySize, ops)
			for op, ns := range timings {
				rep.Results = append(rep.Results, opResult{Layout: bc.name, Op: op, NsPerOp: ns})
				if bc.name == "boxbrute" {
					bruteNs[op] = ns
				} else {
					rtreeNs[op] = ns
				}
			}
			if bc.name == "boxrtree" {
				bc.index.Build(rects)
				if got := appendDigest(bc.index, rects, geom.Rect.Center, boxQueriers, bcfg.QuerySize); got != wantDigest {
					return fmt.Errorf("boxrtree: buffered kernel diverges from the brute-force oracle (digest %#x, want %#x)",
						got, wantDigest)
				}
				emitNs, appendNs := measureQueryKernels(bc.index, rects, geom.Rect.Center, boxQueriers, bcfg.QuerySize, *iters)
				rep.Results = append(rep.Results, opResult{Layout: bc.name, Op: "query-emit", NsPerOp: emitNs})
				rep.Results = append(rep.Results, opResult{Layout: bc.name, Op: "query-append", NsPerOp: appendNs})
				rep.BufferedSpeedup[fmt.Sprintf("boxrtree/fanout=%d", rtree.DefaultFanout)] = emitNs / appendNs
				for _, ext := range qexts {
					ns := measureQueries(bc.index, rects, geom.Rect.Center, boxQueriers, float32(ext), *iters)
					rep.Results = append(rep.Results, opResult{
						Layout: bc.name, Op: "query", NsPerOp: ns, Qext: ext,
					})
				}
			}
		}
		rep.BoxRTreeVsBrute = map[string]float64{"query": bruteNs["query"] / rtreeNs["query"]}
		rep.BoxRTreeVsBox2L = map[string]float64{}

		for _, cps := range []int{64, 256} {
			contenders := boxContenders(cps, bcfg.Bounds(), len(rects))
			for _, bc := range contenders {
				bc.index.Build(rects)
				if got := emitDigest(bc.index, rects, geom.Rect.Center, boxQueriers, bcfg.QuerySize); got != wantDigest {
					return fmt.Errorf("box layout %s at cps=%d diverges from the brute-force oracle (digest %#x, want %#x)",
						bc.name, cps, got, wantDigest)
				}
				timings := measureBox(bc.index, rects, boxQueriers, boxUpdates, bcfg.QuerySize, *iters)
				for op, ns := range timings {
					rep.Results = append(rep.Results, opResult{Layout: bc.name, CPS: cps, Op: op, NsPerOp: ns})
					key := fmt.Sprintf("%s/cps=%d", op, cps)
					if boxOps[key] == nil {
						boxOps[key] = map[string]float64{}
					}
					boxOps[key][bc.name] = ns
				}
				// The buffered kernel over a fresh build (measureBox's
				// update phase leaves the arena churned — swap-delete
				// order, possible overflow — that a steady-state tick query
				// never sees), digest-gated like the callback kernel.
				bc.index.Build(rects)
				if got := appendDigest(bc.index, rects, geom.Rect.Center, boxQueriers, bcfg.QuerySize); got != wantDigest {
					return fmt.Errorf("box layout %s at cps=%d: buffered kernel diverges from the brute-force oracle (digest %#x, want %#x)",
						bc.name, cps, got, wantDigest)
				}
				emitNs, appendNs := measureQueryKernels(bc.index, rects, geom.Rect.Center, boxQueriers, bcfg.QuerySize, *iters)
				rep.Results = append(rep.Results, opResult{Layout: bc.name, CPS: cps, Op: "query-emit", NsPerOp: emitNs})
				rep.Results = append(rep.Results, opResult{Layout: bc.name, CPS: cps, Op: "query-append", NsPerOp: appendNs})
				rep.BufferedSpeedup[fmt.Sprintf("%s/cps=%d", bc.name, cps)] = emitNs / appendNs
				// The query-extent sweep: one window-join series per
				// extent, over the same fresh build.
				for _, ext := range qexts {
					ns := measureQueries(bc.index, rects, geom.Rect.Center, boxQueriers, float32(ext), *iters)
					rep.Results = append(rep.Results, opResult{
						Layout: bc.name, CPS: cps, Op: "query", NsPerOp: ns, Qext: ext,
					})
				}
			}
			// Replication is a property of the (workload, granularity)
			// pair, not the structure — every contender replicates
			// identically, so report it once per cps off the first.
			rep.BoxReplication[fmt.Sprintf("cps=%d", cps)] = contenders[0].replication()
			for _, op := range []string{"build", "query", "update"} {
				key := fmt.Sprintf("%s/cps=%d", op, cps)
				rep.Box2LSpeedups[key] = boxOps[key]["boxcsr"] / boxOps[key]["boxcsr2l"]
				rep.BoxRTreeVsBox2L[key] = boxOps[key]["boxcsr2l"] / rtreeNs[op]
			}
			bq := fmt.Sprintf("build+query/cps=%d", cps)
			legacy := boxOps[fmt.Sprintf("build/cps=%d", cps)]["boxcsr"] + boxOps[fmt.Sprintf("query/cps=%d", cps)]["boxcsr"]
			classed := boxOps[fmt.Sprintf("build/cps=%d", cps)]["boxcsr2l"] + boxOps[fmt.Sprintf("query/cps=%d", cps)]["boxcsr2l"]
			rep.Box2LSpeedups[bq] = legacy / classed
			rep.BoxRTreeVsBox2L[bq] = classed / (rtreeNs["build"] + rtreeNs["query"])
		}

		// The adaptive cross-family selector on the default box
		// workload, digest-gated like every other contender, with its
		// regret vs the best static of the matrix above.
		auto := tune.NewAutoBox(core.ParamsFor(bcfg.Config))
		auto.Build(rects)
		if got := emitDigest(auto, rects, geom.Rect.Center, boxQueriers, bcfg.QuerySize); got != wantDigest {
			return fmt.Errorf("boxauto diverges from the brute-force oracle (digest %#x, want %#x)", got, wantDigest)
		}
		choice, _ := auto.Choice()
		autoOps := measureBox(auto, rects, boxQueriers, boxUpdates, bcfg.QuerySize, *iters)
		for op, ns := range autoOps {
			// Param() is the tuned structural parameter whatever the
			// family: grid cps, or fanout when the pick is the R-tree.
			rep.Results = append(rep.Results, opResult{Layout: "boxauto", CPS: choice.Param(), Op: op, NsPerOp: ns})
		}
		autoTotal := tickTotal(autoOps, len(boxQueriers), len(boxUpdates))
		best := tickTotal(rtreeNs, len(boxQueriers), len(boxUpdates))
		bestKey := fmt.Sprintf("boxrtree/fanout=%d", rtree.DefaultFanout)
		for _, cps := range []int{64, 256} {
			for _, layout := range []string{"boxcsr", "boxcsr2l"} {
				t := tickTotal(map[string]float64{
					"build":  boxOps[fmt.Sprintf("build/cps=%d", cps)][layout],
					"query":  boxOps[fmt.Sprintf("query/cps=%d", cps)][layout],
					"update": boxOps[fmt.Sprintf("update/cps=%d", cps)][layout],
				}, len(boxQueriers), len(boxUpdates))
				if t < best {
					best, bestKey = t, fmt.Sprintf("%s/cps=%d", layout, cps)
				}
			}
		}
		rep.AutoRegret["box-default"] = autoTotal/best - 1
		rep.AutoChoices["box-default"] = fmt.Sprintf("%s (best static %s)", choice, bestKey)

		// The three contrasting workloads of the adaptive-selection
		// acceptance criterion, each racing auto against every static
		// family at a reduced iteration count.
		if err := runAutoRegret(rep, *points, *seed, *iters); err != nil {
			return err
		}

		// Box service mode, over the two-layer classed grid.
		if *conc && *cticks > 0 {
			cgen, err := workload.NewBoxGenerator(bcfg)
			if err != nil {
				return err
			}
			x := epoch.NewBoxIndex(func() core.BoxIndex {
				return grid.MustNewBoxGrid2L(64, bcfg.Bounds(), len(rects))
			}, epoch.Options{})
			cres := core.RunBoxesConcurrent(x, cgen, core.ConcurrentOptions{Ticks: *cticks, Readers: *readers, Obs: dbgReg})
			if cres.Violations != 0 {
				return fmt.Errorf("concurrent box run: %d queries observed an unpublished epoch", cres.Violations)
			}
			tickQueryNs := boxOps["query/cps=64"]["boxcsr2l"] * float64(len(boxQueriers))
			rep.Concurrent = append(rep.Concurrent, concurrentRow("boxcsr2l/cps=64", cres, tickQueryNs))
		}

		// Instrumentation overhead on the tuned box layout, mirroring the
		// point-side measurement.
		obcfg := bcfg
		obcfg.Ticks = obsOverheadTicks
		pct, err := measureObsOverhead(func(reg *obs.Registry) (*core.Result, error) {
			gen, err := workload.NewBoxGenerator(obcfg)
			if err != nil {
				return nil, err
			}
			return core.RunBoxes(grid.MustNewBoxGrid2L(64, obcfg.Bounds(), obcfg.NumPoints), gen, core.Options{Obs: reg}), nil
		})
		if err != nil {
			return err
		}
		rep.ObsOverheadPct["boxcsr2l/cps=64"] = pct

		if *sworker > 0 {
			if err := runShardedBox(rep, bcfg, rects, boxQueriers, boxUpdates, *iters, *shards, *sworker, wantDigest); err != nil {
				return err
			}
		}
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(*out, enc, 0o644)
}

// obsOverheadTicks bounds the instrumented-vs-uninstrumented comparison
// runs: enough ticks for the per-tick phases to dominate driver setup,
// few enough that six full runs stay a small slice of the bench.
const obsOverheadTicks = 10

// gitSHA best-effort resolves the working tree's commit for the meta
// block; benches also run from exported trees, so failure is an empty
// field, not an error.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// measureObsOverhead runs the given driver closure with a live registry
// and with none, interleaved over several rounds, and returns the
// percentage overhead of the instrumented minimum over the plain
// minimum. Interleaving plus min-of-rounds keeps a thermal dip or a
// background burst during one variant's window from reading as (or
// masking) overhead. Every run must produce the identical join digest —
// instrumentation that changes results is a bug, not overhead.
func measureObsOverhead(run func(reg *obs.Registry) (*core.Result, error)) (float64, error) {
	const rounds = 3
	plainMin, instMin := math.Inf(1), math.Inf(1)
	var refPairs int64
	var refHash uint64
	for r := 0; r < rounds; r++ {
		plain, err := run(nil)
		if err != nil {
			return 0, err
		}
		inst, err := run(obs.New())
		if err != nil {
			return 0, err
		}
		if r == 0 {
			refPairs, refHash = plain.Pairs, plain.Hash
		}
		if plain.Pairs != refPairs || plain.Hash != refHash || inst.Pairs != refPairs || inst.Hash != refHash {
			return 0, fmt.Errorf("obs overhead: instrumented run diverges from uninstrumented (pairs %d vs %d, digest %#x vs %#x)",
				inst.Pairs, refPairs, inst.Hash, refHash)
		}
		total := func(res *core.Result) float64 {
			return float64((res.Totals.Build + res.Totals.Query + res.Totals.Update).Nanoseconds())
		}
		plainMin = math.Min(plainMin, total(plain))
		instMin = math.Min(instMin, total(inst))
	}
	return (instMin/plainMin - 1) * 100, nil
}

// concurrentRow folds a concurrent run into the report schema.
func concurrentRow(layout string, res *core.ConcurrentResult, tickQueryNs float64) concurrentReport {
	row := concurrentReport{
		Layout:          layout,
		Readers:         res.Readers,
		Ticks:           res.Ticks,
		QueryP50Ns:      float64(res.QueryP50.Nanoseconds()),
		QueryP95Ns:      float64(res.QueryP95.Nanoseconds()),
		QueryP99Ns:      float64(res.QueryP99.Nanoseconds()),
		TickQueryNs:     tickQueryNs,
		EpochsPublished: res.Stats.Epochs,
		DegradedTicks:   res.Stats.Degraded,
		PanicsContained: res.Stats.PanicsContained,
		FailedTicks:     res.FailedTicks,
		Violations:      res.Violations,
	}
	if tickQueryNs > 0 {
		row.P99VsTickPhase = row.QueryP99Ns / tickQueryNs
	}
	return row
}

// tickTotal combines per-op nanoseconds into one modelled tick: one
// build, the tick's queries, the tick's updates — the total the regret
// series compares structures on.
func tickTotal(ops map[string]float64, queries, updates int) float64 {
	return ops["build"] + float64(queries)*ops["query"] + float64(updates)*ops["update"]
}

// runAutoRegret measures the adaptive selector's regret on three
// contrasting box workloads — query-heavy with small extents,
// update-heavy, and a coarse-window join — against every static family
// at both benchmark granularities plus the default-fanout R-tree. Every
// contender (auto included) is digest-gated against the brute-force
// oracle on each workload before being timed.
func runAutoRegret(rep *report, points int, seed uint64, iters int) error {
	// The contrasting workloads sanity-check the selector, not the
	// micro-timings; a twentieth of the main matrix's iterations per
	// round (two interleaved rounds, see below) keeps the added wall
	// time in check.
	regretIters := iters / 20
	if regretIters < 1 {
		regretIters = 1
	}
	mk := func(mut func(*workload.BoxConfig)) workload.BoxConfig {
		c := workload.DefaultUniformBoxes()
		c.Seed = seed
		c.NumPoints = points
		mut(&c)
		return c
	}
	workloads := []struct {
		key string
		cfg workload.BoxConfig
	}{
		{"box-queryheavy-smallext", mk(func(c *workload.BoxConfig) {
			c.Queriers, c.Updaters = 0.9, 0.1
			c.MinSide, c.MaxSide = 20, 80
		})},
		{"box-updateheavy", mk(func(c *workload.BoxConfig) {
			c.Queriers, c.Updaters = 0.1, 0.9
		})},
		{"box-coarsejoin", mk(func(c *workload.BoxConfig) {
			c.QuerySize = 1600
		})},
	}
	statics := []struct {
		key    string
		layout string
		param  int
	}{
		{"boxcsr/cps=64", "csr", 64},
		{"boxcsr/cps=256", "csr", 256},
		{"boxcsr2l/cps=64", "2l", 64},
		{"boxcsr2l/cps=256", "2l", 256},
		{fmt.Sprintf("boxrtree/fanout=%d", rtree.DefaultFanout), "rtree", rtree.DefaultFanout},
	}
	// Regret compares contenders AGAINST EACH OTHER, so the measurement
	// rounds are interleaved across all of them (statics and auto
	// alike) with a per-contender minimum: a thermal dip or background
	// burst during one contender's dedicated window would otherwise
	// read as regret (or as a phantom win).
	const regretRounds = 2
	for _, wl := range workloads {
		gen, err := workload.NewBoxGenerator(wl.cfg)
		if err != nil {
			return err
		}
		rects := gen.Rects(nil)
		queriers := append([]uint32(nil), gen.Queriers()...)
		updates := append([]workload.BoxUpdate(nil), gen.Updates()...)
		if len(queriers) == 0 || len(updates) == 0 {
			return fmt.Errorf("%s: %d queriers and %d updates per tick; raise -points", wl.key, len(queriers), len(updates))
		}
		wantDigest := bruteBoxDigest(rects, queriers, wl.cfg.QuerySize)
		params := core.ParamsFor(wl.cfg.Config)

		auto := tune.NewAutoBox(params)
		type entry struct {
			key   string
			index core.BoxIndex
			total float64
			ops   map[string]float64
		}
		contenders := make([]*entry, 0, len(statics)+1)
		for _, st := range statics {
			idx, err := bench.NewBoxLayout(st.layout, st.param, params)
			if err != nil {
				return err
			}
			contenders = append(contenders, &entry{key: st.key, index: idx, total: math.Inf(1)})
		}
		contenders = append(contenders, &entry{key: "boxauto", index: auto, total: math.Inf(1)})

		for _, c := range contenders {
			c.index.Build(rects)
			if got := emitDigest(c.index, rects, geom.Rect.Center, queriers, wl.cfg.QuerySize); got != wantDigest {
				return fmt.Errorf("%s on %s diverges from the brute-force oracle (digest %#x, want %#x)",
					c.key, wl.key, got, wantDigest)
			}
		}
		for round := 0; round < regretRounds; round++ {
			for _, c := range contenders {
				ops := measureBox(c.index, rects, queriers, updates, wl.cfg.QuerySize, regretIters)
				if t := tickTotal(ops, len(queriers), len(updates)); t < c.total {
					c.total, c.ops = t, ops
				}
			}
		}

		best, bestKey := math.Inf(1), ""
		var autoEntry *entry
		for _, c := range contenders {
			if c.key == "boxauto" {
				autoEntry = c
				continue
			}
			if c.total < best {
				best, bestKey = c.total, c.key
			}
		}
		choice, _ := auto.Choice()
		for op, ns := range autoEntry.ops {
			rep.Results = append(rep.Results, opResult{
				Layout: "boxauto", CPS: choice.Param(), Op: op, NsPerOp: ns, Workload: wl.key,
			})
		}
		rep.AutoRegret[wl.key] = autoEntry.total/best - 1
		rep.AutoChoices[wl.key] = fmt.Sprintf("%s (best static %s)", choice, bestKey)
	}
	return nil
}

// contender is one index of the sharded series, by display name.
type contender[P any] struct {
	name string
	idx  core.IndexOf[P]
}

// pointCenter is where a point's query window is centred (an MBR's is
// geom.Rect.Center).
func pointCenter(p geom.Point) geom.Point { return p }

// runSharded measures the sharded series for one object class: the
// region-sharded router against the unsharded contenders the main
// matrix found competitive, every one under the identical parallel tick
// model (parallel build when supported, queries striped across the
// worker pool, batched updates when supported) at the same worker
// count. Every contender — sharded included — passes the oracle digest
// gate plus an explicit duplicate-emission count before being timed.
func runSharded[P, M any](rep *report, class, shardedLayout string, contenders []contender[P], sh interface {
	core.IndexOf[P]
	Side() int
}, snap []P, center func(P) geom.Point, queriers []uint32, moves, back []M, update func(idx core.IndexOf[P], m M),
	querySize float32, iters, workers int, wantDigest uint64) error {
	if rep.ShardedSpeedup == nil {
		rep.ShardedSpeedup = map[string]float64{}
	}
	best := math.Inf(1)
	for _, c := range contenders {
		c.idx.Build(snap)
		if got := emitDigest(c.idx, snap, center, queriers, querySize); got != wantDigest {
			return fmt.Errorf("sharded series contender %s diverges from the brute-force oracle (digest %#x, want %#x)",
				c.name, got, wantDigest)
		}
		row := measureParallelTick(c.idx, snap, center, queriers, moves, back, update, querySize, iters, workers)
		row.Layout = c.name
		rep.Sharded = append(rep.Sharded, row)
		if row.TickNs < best {
			best = row.TickNs
		}
	}
	sh.Build(snap)
	dups := countDuplicates(sh, snap, center, queriers, querySize)
	if got := emitDigest(sh, snap, center, queriers, querySize); got != wantDigest || dups != 0 {
		return fmt.Errorf("sharded %s engine diverges from the brute-force oracle (digest %#x, want %#x; %d duplicate emissions)",
			class, got, wantDigest, dups)
	}
	row := measureParallelTick(sh, snap, center, queriers, moves, back, update, querySize, iters, workers)
	row.Layout = shardedLayout
	row.Side = sh.Side()
	rep.Sharded = append(rep.Sharded, row)
	rep.ShardedSpeedup[fmt.Sprintf("%s/tick@%dw", class, workers)] = best / row.TickNs
	return nil
}

// runShardedPoint binds runSharded to the point workload.
func runShardedPoint(rep *report, wcfg workload.Config, pts []geom.Point, queriers []uint32, updates []workload.Update, iters, side, workers int, wantDigest uint64) error {
	params := core.ParamsFor(wcfg)
	params.Shards = side
	mkGrid := func(layout grid.Layout) core.Index {
		return grid.MustNew(grid.Config{Layout: layout, Scan: grid.ScanRange, BS: grid.RefactoredBS, CPS: 64}, wcfg.Bounds(), len(pts))
	}
	moves, back := pointMoves(pts, updates)
	return runSharded(rep, "point", "sharded", []contender[geom.Point]{
		{"csr/cps=64", mkGrid(grid.LayoutCSR)},
		{"csrxy/cps=64", mkGrid(grid.LayoutCSRXY)},
		{"auto", tune.NewAuto(params)},
	}, shard.NewAuto(params), pts, pointCenter, queriers, moves, back,
		func(idx core.Index, m geom.Move) { idx.Update(m.ID, m.Old, m.New) },
		wcfg.QuerySize, iters, workers, wantDigest)
}

// runShardedBox binds runSharded to the MBR workload.
func runShardedBox(rep *report, bcfg workload.BoxConfig, rects []geom.Rect, queriers []uint32, updates []workload.BoxUpdate, iters, side, workers int, wantDigest uint64) error {
	params := core.ParamsFor(bcfg.Config)
	params.Shards = side
	moves, back := boxMoves(rects, updates)
	return runSharded(rep, "box", "boxsharded", []contender[geom.Rect]{
		{"boxcsr2l/cps=64", grid.MustNewBoxGrid2L(64, bcfg.Bounds(), len(rects))},
		{fmt.Sprintf("boxrtree/fanout=%d", rtree.DefaultFanout), rtree.MustNewBoxTree(rtree.DefaultFanout)},
		{"boxauto", tune.NewAutoBox(params)},
	}, shard.NewAutoBox(params), rects, geom.Rect.Center, queriers, moves, back,
		func(idx core.BoxIndex, m geom.BoxMove) { idx.Update(m.ID, m.Old, m.New) },
		bcfg.QuerySize, iters, workers, wantDigest)
}

// pointMoves converts one tick's updates into there-and-back move
// batches, so measured update phases leave the population invariant.
func pointMoves(pts []geom.Point, updates []workload.Update) (moves, back []geom.Move) {
	for _, u := range updates {
		moves = append(moves, geom.Move{ID: u.ID, Old: pts[u.ID], New: u.Pos})
		back = append(back, geom.Move{ID: u.ID, Old: u.Pos, New: pts[u.ID]})
	}
	return moves, back
}

func boxMoves(rects []geom.Rect, updates []workload.BoxUpdate) (moves, back []geom.BoxMove) {
	for _, u := range updates {
		moves = append(moves, geom.BoxMove{ID: u.ID, Old: rects[u.ID], New: u.Rect})
		back = append(back, geom.BoxMove{ID: u.ID, Old: u.Rect, New: rects[u.ID]})
	}
	return moves, back
}

// measureParallelTick times one modelled tick under the parallel
// regime: Build via the parallel path when the index offers one, the
// whole querier set striped across the worker pool in blocks (the
// parallel driver's schedule), and the tick's update batch through the
// bulk path when offered — exactly the phases RunParallel overlaps per
// tick, so TickNs compares engines on the throughput the sharded router
// is built for.
func measureParallelTick[P, M any](idx core.IndexOf[P], snap []P, center func(P) geom.Point, queriers []uint32,
	moves, back []M, update func(idx core.IndexOf[P], m M), querySize float32, iters, workers int) shardedRow {
	idx.Build(snap) // warm arenas

	start := time.Now()
	for i := 0; i < iters; i++ {
		if pb, ok := idx.(core.ParallelBuilderOf[P]); ok {
			pb.BuildParallel(snap, workers)
		} else {
			idx.Build(snap)
		}
	}
	buildNs := float64(time.Since(start).Nanoseconds()) / float64(iters)

	queryTick := func() {
		var cursor atomic.Int64
		var g parutil.Group
		for w := 0; w < workers; w++ {
			g.Go(func() {
				sink := 0
				emit := func(uint32) { sink++ }
				for {
					lo := int(cursor.Add(64)) - 64
					if lo >= len(queriers) {
						break
					}
					hi := lo + 64
					if hi > len(queriers) {
						hi = len(queriers)
					}
					for _, q := range queriers[lo:hi] {
						idx.Query(geom.Square(center(snap[q]), querySize), emit)
					}
				}
				if sink < 0 {
					panic("unreachable")
				}
			})
		}
		g.Wait()
	}
	start = time.Now()
	for i := 0; i < iters; i++ {
		queryTick()
	}
	queryNs := float64(time.Since(start).Nanoseconds()) / float64(iters*len(queriers))

	bu, hasBatch := idx.(core.BatchUpdaterOf[M])
	start = time.Now()
	for i := 0; i < iters; i++ {
		if hasBatch && bu.CanBatchUpdates(len(moves)) {
			bu.UpdateBatch(moves, workers)
			bu.UpdateBatch(back, workers)
		} else {
			for _, m := range moves {
				update(idx, m)
			}
			for _, m := range back {
				update(idx, m)
			}
		}
	}
	updateNs := float64(time.Since(start).Nanoseconds()) / float64(2*iters*len(moves))

	return shardedRow{
		Workers:  workers,
		BuildNs:  buildNs,
		QueryNs:  queryNs,
		UpdateNs: updateNs,
		TickNs:   buildNs + float64(len(queriers))*queryNs + float64(len(moves))*updateNs,
	}
}

// countDuplicates counts excess emissions across the digest pass: a
// correct engine reports every (querier, id) pair at most once.
func countDuplicates[P any](idx core.IndexOf[P], snap []P, center func(P) geom.Point, queriers []uint32, querySize float32) int {
	dups := 0
	seen := map[uint32]int{}
	for _, q := range queriers {
		clear(seen)
		idx.Query(geom.Square(center(snap[q]), querySize), func(id uint32) { seen[id]++ })
		for _, c := range seen {
			if c > 1 {
				dups += c - 1
			}
		}
	}
	return dups
}

type boxContender struct {
	name  string
	index core.BoxIndex
}

// replication reports the contender's replication factor (1 for
// structures that store each object exactly once).
func (bc boxContender) replication() float64 {
	if rep, ok := bc.index.(interface{ ReplicationFactor() float64 }); ok {
		return rep.ReplicationFactor()
	}
	return 1
}

func boxContenders(cps int, bounds geom.Rect, n int) []boxContender {
	params := core.Params{Bounds: bounds, NumPoints: n}
	csr, err := bench.NewBoxLayout("csr", cps, params)
	if err != nil {
		panic(err)
	}
	twoLayer, err := bench.NewBoxLayout("2l", cps, params)
	if err != nil {
		panic(err)
	}
	return []boxContender{
		{"boxcsr", csr},
		{"boxcsr2l", twoLayer},
	}
}

// brutePointDigest is the oracle: every (querier, point-in-range) pair,
// straight off the base table, folded with the driver's own digest
// construction (core.MixPair) so a divergence here is exactly a
// divergence there.
func brutePointDigest(pts []geom.Point, queriers []uint32, querySize float32) uint64 {
	var h uint64
	for _, q := range queriers {
		r := geom.Square(pts[q], querySize)
		for i := range pts {
			if pts[i].In(r) {
				h = core.MixPair(h, q, uint32(i))
			}
		}
	}
	return h
}

// appendDigest folds the buffered kernel's results with the exact
// digest construction of emitDigest, so emit and append are provably
// answering identically before their timings are compared.
func appendDigest[P any](idx core.IndexOf[P], snap []P, center func(P) geom.Point, queriers []uint32, querySize float32) uint64 {
	qa := core.QueryAppendOf(idx, idx.Query)
	var h uint64
	var buf []uint32
	for _, q := range queriers {
		buf = qa(geom.Square(center(snap[q]), querySize), buf[:0])
		for _, id := range buf {
			h = core.MixPair(h, q, id)
		}
	}
	return h
}

// benchSink defeats dead-code elimination of the kernel measurements'
// digest folds without perturbing the measured loops.
var benchSink uint64

// measureQueryKernels times the tick driver's query phase both ways it
// actually runs: the per-result callback exactly as runTicks' KernelEmit
// drains it (a closure folding pairs and MixPair per emission, with the
// accumulators captured by reference — the heap round-trip per result is
// the cost under test) and the buffered kernel exactly as KernelAppend
// drains it (QueryAppend into a reused buffer, then an inline fold loop
// that keeps the accumulators in registers). Returns ns per query for
// each; the caller digest-gates both kernels separately.
func measureQueryKernels[P any](idx core.IndexOf[P], snap []P, center func(P) geom.Point, queriers []uint32, querySize float32, iters int) (emitNs, appendNs float64) {
	var pairs int64
	var hash uint64
	var emitQ uint32
	emit := func(id uint32) {
		pairs++
		hash = core.MixPair(hash, emitQ, id)
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		for _, q := range queriers {
			emitQ = q
			idx.Query(geom.Square(center(snap[q]), querySize), emit)
		}
	}
	emitNs = float64(time.Since(start).Nanoseconds()) / float64(iters*len(queriers))

	qa := core.QueryAppendOf(idx, idx.Query)
	var buf []uint32
	start = time.Now()
	for i := 0; i < iters; i++ {
		for _, q := range queriers {
			buf = qa(geom.Square(center(snap[q]), querySize), buf[:0])
			for _, id := range buf {
				pairs++
				hash = core.MixPair(hash, q, id)
			}
		}
	}
	appendNs = float64(time.Since(start).Nanoseconds()) / float64(iters*len(queriers))
	benchSink += hash + uint64(pairs)
	return emitNs, appendNs
}

// emitDigest folds the callback kernel's results of every querier's
// window with the driver's digest construction.
func emitDigest[P any](idx core.IndexOf[P], snap []P, center func(P) geom.Point, queriers []uint32, querySize float32) uint64 {
	var h uint64
	for _, q := range queriers {
		idx.Query(geom.Square(center(snap[q]), querySize), func(id uint32) {
			h = core.MixPair(h, q, id)
		})
	}
	return h
}

// bruteBoxDigest is the rect x rect oracle: every (querier, intersecting
// MBR) pair.
func bruteBoxDigest(rects []geom.Rect, queriers []uint32, querySize float32) uint64 {
	var h uint64
	for _, q := range queriers {
		r := geom.Square(rects[q].Center(), querySize)
		for i := range rects {
			if rects[i].Intersects(r) {
				h = core.MixPair(h, q, uint32(i))
			}
		}
	}
	return h
}

// measure times the three phases the way the driver's tick does: build
// over the snapshot, one query per querier, one move per updater (and
// back, so the population is iteration-invariant). Returned map keys are
// build/query/update; values are ns per operation (per build, per query,
// per update).
func measure(g core.Index, pts []geom.Point, queriers []uint32, updates []workload.Update, querySize float32, iters int) map[string]float64 {
	// Warm up arenas so steady-state builds allocate nothing.
	g.Build(pts)

	start := time.Now()
	for i := 0; i < iters; i++ {
		g.Build(pts)
	}
	buildNs := float64(time.Since(start).Nanoseconds()) / float64(iters)

	queryNs := measureQueries(g, pts, pointCenter, queriers, querySize, iters)

	start = time.Now()
	for i := 0; i < iters; i++ {
		for _, u := range updates {
			g.Update(u.ID, pts[u.ID], u.Pos)
			g.Update(u.ID, u.Pos, pts[u.ID])
		}
	}
	// Each inner step performs two updates (there and back).
	updateNs := float64(time.Since(start).Nanoseconds()) / float64(2*iters*len(updates))

	return map[string]float64{"build": buildNs, "query": queryNs, "update": updateNs}
}

// measureBox is measure for the rectangle grids: build over the MBR
// snapshot, one intersection query per querier, one MBR move per updater
// (and back).
func measureBox(bg core.BoxIndex, rects []geom.Rect, queriers []uint32, updates []workload.BoxUpdate, querySize float32, iters int) map[string]float64 {
	bg.Build(rects)

	start := time.Now()
	for i := 0; i < iters; i++ {
		bg.Build(rects)
	}
	buildNs := float64(time.Since(start).Nanoseconds()) / float64(iters)

	queryNs := measureQueries(bg, rects, geom.Rect.Center, queriers, querySize, iters)

	start = time.Now()
	for i := 0; i < iters; i++ {
		for _, u := range updates {
			bg.Update(u.ID, rects[u.ID], u.Rect)
			bg.Update(u.ID, u.Rect, rects[u.ID])
		}
	}
	updateNs := float64(time.Since(start).Nanoseconds()) / float64(2*iters*len(updates))

	return map[string]float64{"build": buildNs, "query": queryNs, "update": updateNs}
}

// measureQueries times the query phase alone at the given window
// extent over a freshly built index.
func measureQueries[P any](idx core.IndexOf[P], snap []P, center func(P) geom.Point, queriers []uint32, querySize float32, iters int) float64 {
	sink := 0
	emit := func(uint32) { sink++ }
	start := time.Now()
	for i := 0; i < iters; i++ {
		for _, q := range queriers {
			idx.Query(geom.Square(center(snap[q]), querySize), emit)
		}
	}
	if sink < 0 {
		panic("unreachable")
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters*len(queriers))
}

// Command sweep runs the grid-tuning parameter sweeps of Figures 1 and 5,
// or an arbitrary one-parameter sweep over any grid configuration — for
// point grids or, with -objects box, for the box indexes (whose
// structural parameter trades query work against replication or packing
// quality). Box sweeps select the structure with -boxlayout: the
// reference-point CSR grid (csr), the two-layer class-partitioned one
// (2l), or the STR box R-tree (rtree), and can vary either the
// structural parameter (-vary cps; for the R-tree this sweeps the
// fanout) or the query window extent (-vary qext, the rect x rect
// window-join selectivity sweep).
//
// Both object classes accept the adaptive selector (-layout auto /
// -boxlayout auto, backed by internal/tune), and the sweep reports which
// structure it chose per step. For points it is the CSR grid at the
// paper's tuned occupancy, so its cps follows the population and not the
// window: a -vary qext sweep logs the same auto(csr/cps=…) at every
// step. For boxes it is the two-layer classed grid at the box anchor's
// occupancy (48 cells a side at 50 000 MBRs on the AVX-512 tier, 64 on
// the Go loops), so a -vary qext sweep logs the same boxauto(boxcsr2l/
// cps=…) at every step, in every process. Because auto sets its own
// structural parameter, it only supports -vary qext (and -vary shards).
//
// Sweeps drain queries through the engines' buffered kernel by default;
// -querykernel emit|append|batch forces a specific kernel (emit is the
// classic per-result callback — useful for measuring what the buffered
// path buys at each sweep point).
//
// Examples:
//
//	sweep -experiment fig1b              # reproduce Figure 1b
//	sweep -vary cps -from 4 -to 128 -step 8 -layout inline -scan range -bs 20
//	sweep -vary qext -from 100 -to 1600 -step 300 -layout auto
//	sweep -objects box -vary cps -from 16 -to 128 -step 16
//	sweep -objects box -boxlayout 2l -vary qext -from 100 -to 1600 -step 300
//	sweep -objects box -boxlayout rtree -vary qext -from 100 -to 1600 -step 300
//	sweep -objects box -boxlayout rtree -vary cps -from 4 -to 64 -step 4
//	sweep -objects box -boxlayout auto -vary qext -from 100 -to 1600 -step 300
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/rtree"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/tune"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		objects    = fs.String("objects", "point", "object class: point or box (box sweeps cps or qext of a rectangle grid)")
		experiment = fs.String("experiment", "", "predefined sweep: fig1a, fig1b, fig5a or fig5b")
		vary       = fs.String("vary", "", "custom sweep parameter: bs, cps, qext or shards (point), cps, qext or shards (box); shards sweeps the region-grid side of the sharded engine")
		from       = fs.Int("from", 4, "custom sweep start")
		to         = fs.Int("to", 32, "custom sweep end (inclusive)")
		step       = fs.Int("step", 4, "custom sweep step")
		layout     = fs.String("layout", "inline", "point structure: a grid layout ("+bench.PointLayoutKeys()+")")
		boxLayout  = fs.String("boxlayout", "csr", "box structure ("+bench.BoxLayoutKeys()+"): csr = reference-point grid, 2l = two-layer classed grid, rtree = STR box R-tree (-vary cps sweeps its fanout), auto = adaptive selector")
		scan       = fs.String("scan", "range", "query algorithm: full or range")
		bs         = fs.Int("bs", grid.RefactoredBS, "fixed bucket size (when varying cps)")
		cps        = fs.Int("cps", grid.OriginalCPS, "fixed cells per side (when varying bs or qext)")
		scale      = fs.Float64("scale", 0.1, "tick-count scale in (0,1]")
		seed       = fs.Uint64("seed", 1, "workload random seed")
		kernelKey  = fs.String("querykernel", "auto", "query kernel for the tick driver ("+core.QueryKernelKeys+"): emit = per-result callback, append = buffered, batch = multi-query")
		csv        = fs.Bool("csv", false, "emit CSV instead of an aligned table")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	kernel, kerr := core.ParseQueryKernel(*kernelKey)
	if kerr != nil {
		return kerr
	}
	cpsSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "cps" {
			cpsSet = true
		}
	})
	cfg := bench.Config{Scale: *scale, Seed: *seed}
	if err := cfg.Validate(); err != nil {
		return err
	}
	switch *objects {
	case "point":
	case "box":
		if *experiment != "" {
			return fmt.Errorf("-objects box has no predefined experiments; use -vary cps or -vary qext")
		}
		if *vary != "cps" && *vary != "qext" && *vary != "shards" {
			return fmt.Errorf("-objects box sweeps cps, qext or shards (the rectangle grids have no buckets)")
		}
		if *vary != "shards" && !bench.KnownBoxLayout(*boxLayout) {
			return fmt.Errorf("unknown box layout %q (have %s)", *boxLayout, bench.BoxLayoutKeys())
		}
		if *boxLayout == "auto" && *vary != "qext" && *vary != "shards" {
			return fmt.Errorf("-boxlayout auto tunes its own structural parameter; sweep -vary qext instead")
		}
		if *step <= 0 || *from <= 0 || *to < *from {
			return fmt.Errorf("invalid sweep range [%d, %d] step %d", *from, *to, *step)
		}
		fixed := *cps
		if *boxLayout == "rtree" && *vary == "qext" && !cpsSet {
			// The fixed-parameter default is a grid granularity; the
			// R-tree's counterpart default is its tuned fanout. An
			// explicit -cps (even one equal to the default) is honoured
			// as the fanout.
			fixed = rtree.DefaultFanout
		}
		return runBoxSweep(*vary, *from, *to, *step, fixed, *boxLayout, *scale, *seed, kernel, *csv)
	default:
		return fmt.Errorf("unknown object class %q (have point, box)", *objects)
	}

	if *experiment != "" {
		e, ok := bench.ByID(*experiment)
		if !ok {
			return fmt.Errorf("unknown sweep experiment %q (have fig1a, fig1b, fig5a, fig5b)", *experiment)
		}
		art, err := e.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Println(e.Title)
		if *csv {
			fmt.Print(art.CSV())
		} else {
			fmt.Print(art.Format())
		}
		return nil
	}

	if *vary != "bs" && *vary != "cps" && *vary != "qext" && *vary != "shards" {
		return fmt.Errorf("need -experiment or -vary bs|cps|qext|shards")
	}
	if *layout == "auto" && *vary != "qext" && *vary != "shards" {
		return fmt.Errorf("-layout auto tunes bs and cps itself; sweep -vary qext instead")
	}
	if *step <= 0 || *from <= 0 || *to < *from {
		return fmt.Errorf("invalid sweep range [%d, %d] step %d", *from, *to, *step)
	}
	sc, err := bench.ParseScan(*scan)
	if err != nil {
		return err
	}
	// gc is the swept grid, validated here, before any work: a layout the
	// scan does not apply to is a flag error, not a failure mid-sweep.
	var gc grid.Config
	if *layout != "auto" && *vary != "shards" {
		lay, err := bench.ParsePointLayout(*layout)
		if err != nil {
			return err
		}
		gc = grid.Config{Layout: lay, Scan: sc, BS: *bs, CPS: *cps}
		switch *vary {
		case "bs":
			gc.BS = *from
		case "cps":
			gc.CPS = *from
		}
		if err := gc.Validate(); err != nil {
			return err
		}
	}

	wcfg := workload.DefaultUniform()
	wcfg.Seed = *seed
	wcfg.Ticks = int(float64(wcfg.Ticks)**scale + 0.5)
	if wcfg.Ticks < 2 {
		wcfg.Ticks = 2
	}
	var trace *workload.Trace
	if *vary != "qext" {
		// The qext sweep re-records per step (the query shape is part of
		// the trace); parameter sweeps share one trace across steps.
		if trace, err = workload.Record(wcfg); err != nil {
			return err
		}
	}

	title := fmt.Sprintf("custom sweep: %s from %d to %d (layout=%s scan=%s)", *vary, *from, *to, *layout, *scan)
	if *vary == "shards" {
		title = fmt.Sprintf("custom sweep: region-grid side from %d to %d (sharded engine, per-region tuned inners)", *from, *to)
	}
	series := &stats.Series{
		Title:  title,
		XLabel: *vary,
		YLabel: "Avg. Time per Tick (s)",
	}
	var ys []float64
	for x := *from; x <= *to; x += *step {
		wc := wcfg
		switch *vary {
		case "bs":
			gc.BS = x
		case "cps":
			gc.CPS = x
		case "qext":
			wc.QuerySize = float32(x)
			if trace, err = workload.Record(wc); err != nil {
				return err
			}
		}
		var idx core.Index
		switch {
		case *vary == "shards":
			// x is the region-grid side: the sharded engine with x^2
			// regions, each inner index tuned per region (layout ignored).
			idx = shard.New(core.ParamsFor(wc), x)
		case *layout == "auto":
			idx = tune.NewAuto(core.ParamsFor(wc))
		default:
			if idx, err = grid.New(gc, wc.Bounds(), wc.NumPoints); err != nil {
				return err
			}
		}
		res := core.Run(idx, workload.NewPlayer(trace), core.Options{Kernel: kernel})
		series.Xs = append(series.Xs, float64(x))
		ys = append(ys, res.AvgTick().Seconds())
		if *layout == "auto" || *vary == "shards" {
			// idx.Name() carries the per-step decision after the run.
			fmt.Fprintf(os.Stderr, "%s=%d: %.4fs/tick (%s)\n", *vary, x, res.AvgTick().Seconds(), idx.Name())
		} else {
			fmt.Fprintf(os.Stderr, "%s=%d: %.4fs/tick\n", *vary, x, res.AvgTick().Seconds())
		}
	}
	if err := series.AddLine("Avg. Time per Tick (s)", ys); err != nil {
		return err
	}
	if best := stats.ArgminIndex(ys); best >= 0 {
		fmt.Fprintf(os.Stderr, "optimum: %s=%d (%.4fs/tick)\n", *vary, int(series.Xs[best]), ys[best])
	}
	if *csv {
		fmt.Print(series.CSV())
	} else {
		fmt.Print(series.Format())
	}
	return nil
}

// runBoxSweep sweeps one parameter of a box index over the default
// uniform box workload: the structural parameter (grid granularity —
// finer grids shrink per-cell scan work but replicate each MBR into more
// cells, with the replication factor reported per step — or the R-tree
// fanout) or the query window extent (the rect x rect window-join
// selectivity, where packing quality vs replication decides the winner).
func runBoxSweep(vary string, from, to, step, cps int, layout string, scale float64, seed uint64, kernel core.QueryKernel, csv bool) error {
	bcfg := workload.DefaultUniformBoxes()
	bcfg.Seed = seed
	bcfg.Ticks = int(float64(bcfg.Ticks)*scale + 0.5)
	if bcfg.Ticks < 2 {
		bcfg.Ticks = 2
	}

	name := "boxgrid-csr"
	switch {
	case vary == "shards":
		name = "boxshard"
	case layout == "2l":
		name = "boxgrid-2l"
	case layout == "rtree":
		name = "boxrtree-str"
		if vary == "cps" {
			vary = "fanout"
		}
	case layout == "auto":
		name = "boxauto"
	}
	series := &stats.Series{
		Title:  fmt.Sprintf("box index sweep: %s from %d to %d (%s, uniform boxes)", vary, from, to, name),
		XLabel: vary,
		YLabel: "Avg. Time per Tick (s)",
	}
	var ys []float64
	for x := from; x <= to; x += step {
		structural := cps
		if vary == "qext" {
			bcfg.QuerySize = float32(x)
		} else {
			structural = x
		}
		var bg core.BoxIndex
		var err error
		if vary == "shards" {
			// x is the region-grid side: the sharded box engine with x^2
			// regions (per-region tuned inners; -boxlayout ignored).
			bg = shard.NewBox(core.ParamsFor(bcfg.Config), x)
		} else {
			bg, err = bench.NewBoxLayout(layout, structural, core.ParamsFor(bcfg.Config))
			if err != nil {
				return err
			}
		}
		res := core.RunBoxes(bg, workload.MustNewBoxGenerator(bcfg), core.Options{Kernel: kernel})
		series.Xs = append(series.Xs, float64(x))
		ys = append(ys, res.AvgTick().Seconds())
		switch {
		case layout == "auto" || vary == "shards":
			// bg.Name() carries the per-step decision after the run.
			fmt.Fprintf(os.Stderr, "%s=%d: %.4fs/tick (%s)\n", vary, x, res.AvgTick().Seconds(), bg.Name())
		default:
			if rep, ok := bg.(interface{ ReplicationFactor() float64 }); ok {
				fmt.Fprintf(os.Stderr, "%s=%d: %.4fs/tick (replication %.2fx)\n",
					vary, x, res.AvgTick().Seconds(), rep.ReplicationFactor())
			} else {
				fmt.Fprintf(os.Stderr, "%s=%d: %.4fs/tick\n", vary, x, res.AvgTick().Seconds())
			}
		}
	}
	if err := series.AddLine("Avg. Time per Tick (s)", ys); err != nil {
		return err
	}
	if best := stats.ArgminIndex(ys); best >= 0 {
		fmt.Fprintf(os.Stderr, "optimum: %s=%d (%.4fs/tick)\n", vary, int(series.Xs[best]), ys[best])
	}
	if csv {
		fmt.Print(series.CSV())
	} else {
		fmt.Print(series.Format())
	}
	return nil
}

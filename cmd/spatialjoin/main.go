// Command spatialjoin runs one iterated spatial join — one technique on
// one workload — and prints the timing breakdown, the metric the paper
// reports per technique.
//
// Examples:
//
//	spatialjoin -technique grid                      # original Simple Grid, default workload
//	spatialjoin -technique grid-tuned -queriers 0.9  # the paper's winner, 90% query rate
//	spatialjoin -technique rtree -workload gaussian -hotspots 10
//	spatialjoin -list                                # show all techniques
//	spatialjoin -technique crtree -trace w.sjtr      # replay a recorded trace
//	spatialjoin -objects box -technique boxgrid-csr  # MBR workload, rectangle grid
//	spatialjoin -objects box -technique boxrtree     # MBR workload, STR box R-tree
//	spatialjoin -objects box -compare all            # box-join digest race
//	spatialjoin -technique auto                      # adaptive layout selection (internal/tune)
//	spatialjoin -objects box -technique boxauto      # adaptive cross-family box selection
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spatialjoin:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("spatialjoin", flag.ContinueOnError)
	var (
		objects      = fs.String("objects", "point", "object class: point or box (MBR workloads)")
		extent       = fs.String("extent", "uniform", "box only: MBR side distribution, uniform or gaussian")
		minSide      = fs.Float64("min-side", workload.DefaultMinSide, "box only: minimum MBR side length")
		maxSide      = fs.Float64("max-side", workload.DefaultMaxSide, "box only: maximum MBR side length")
		techniqueKey = fs.String("technique", "", "technique key (see -list; default grid-tuned, or boxgrid-2l with -objects box)")
		compare      = fs.String("compare", "", "comma-separated technique keys to race on one workload (or \"all\")")
		list         = fs.Bool("list", false, "list available techniques and exit")
		kind         = fs.String("workload", "uniform", "workload kind: uniform, gaussian or simulation")
		points       = fs.Int("points", workload.DefaultNumPoints, "number of moving objects")
		ticks        = fs.Int("ticks", 0, "number of ticks (0 = workload default)")
		space        = fs.Float64("space", workload.DefaultSpaceSize, "side length of the square space")
		speed        = fs.Float64("speed", workload.DefaultMaxSpeed, "maximum object speed per tick")
		querySize    = fs.Float64("query-size", workload.DefaultQuerySize, "side length of range queries")
		queriers     = fs.Float64("queriers", workload.DefaultQueriers, "fraction of objects querying per tick")
		updaters     = fs.Float64("updaters", workload.DefaultUpdaters, "fraction of objects updating per tick")
		hotspots     = fs.Int("hotspots", workload.DefaultHotspots, "hotspot count (gaussian only)")
		seed         = fs.Uint64("seed", 1, "workload random seed")
		tracePath    = fs.String("trace", "", "replay a recorded trace file instead of generating")
		parallel     = fs.Bool("parallel", false, "parallelize the tick pipeline over all CPUs")
		workers      = fs.Int("workers", 0, "worker goroutines for -parallel (0 = all CPUs; >1 implies -parallel)")
		perTick      = fs.Bool("per-tick", false, "print per-tick phase times")
		concurrent   = fs.Bool("concurrent", false, "service mode: epoch-published index, queries overlap updates, reports latency percentiles")
		readers      = fs.Int("readers", 0, "query worker goroutines for -concurrent (0 = all CPUs minus one)")
		shards       = fs.Int("shards", 0, "region-grid side for the sharded techniques (shard-auto/boxshard-auto): side^2 regions; 0 = tune shard-count ladder")
		debugAddr    = fs.String("debug-addr", "", "serve /debug/obs snapshots, histogram dumps and pprof on this address (e.g. 127.0.0.1:7171; enables instrumentation)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *objects != "point" && *objects != "box" {
		return fmt.Errorf("unknown object class %q (have point, box)", *objects)
	}
	boxMode := *objects == "box"

	// A nil registry keeps every instrument a nil-check no-op; -debug-addr
	// turns instrumentation on and exposes the live snapshot surface.
	var reg *obs.Registry
	if *debugAddr != "" {
		reg = obs.New()
		addr, err := obs.Serve(*debugAddr, reg)
		if err != nil {
			return fmt.Errorf("debug endpoint: %w", err)
		}
		fmt.Printf("debug     : http://%s/debug/obs (also /debug/obs/hist, /debug/pprof/)\n", addr)
	}

	if *list {
		w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		if boxMode {
			for _, t := range bench.BoxTechniques() {
				fmt.Fprintf(w, "%s\t%s\n", t.Key, t.Description)
			}
		} else {
			for _, t := range bench.Techniques() {
				fmt.Fprintf(w, "%s\t%s\n", t.Key, t.Description)
			}
		}
		return w.Flush()
	}

	if boxMode {
		if *tracePath != "" {
			return fmt.Errorf("box workloads cannot replay point traces")
		}
		bcfg := workload.DefaultUniformBoxes()
		switch *extent {
		case "uniform":
			bcfg.Extent = workload.ExtentUniform
		case "gaussian":
			bcfg.Extent = workload.ExtentGaussian
		default:
			return fmt.Errorf("unknown extent kind %q (have uniform, gaussian)", *extent)
		}
		switch *kind {
		case "uniform":
		case "gaussian":
			bcfg.Config = workload.DefaultGaussian()
			bcfg.Hotspots = *hotspots
		case "simulation":
			bcfg.Config = workload.DefaultSimulation()
			bcfg.Hotspots = *hotspots
		default:
			return fmt.Errorf("unknown workload kind %q", *kind)
		}
		bcfg.Seed = *seed
		bcfg.NumPoints = *points
		bcfg.SpaceSize = float32(*space)
		bcfg.MaxSpeed = float32(*speed)
		bcfg.QuerySize = float32(*querySize)
		bcfg.Queriers = *queriers
		bcfg.Updaters = *updaters
		bcfg.MinSide = float32(*minSide)
		bcfg.MaxSide = float32(*maxSide)
		if *ticks > 0 {
			bcfg.Ticks = *ticks
		}
		if err := bcfg.Validate(); err != nil {
			return err
		}
		return runBoxMode(bcfg, *techniqueKey, *compare,
			*parallel || *workers > 1, *workers, *perTick, *concurrent, *readers, *shards, reg)
	}

	techs, err := pickTechniques(*compare, *techniqueKey, "grid-tuned", bench.Techniques, bench.TechniqueByKey)
	if err != nil {
		return err
	}

	var trace *workload.Trace
	var wcfg workload.Config
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		trace, err = workload.ReadTrace(f)
		if err != nil {
			return err
		}
		wcfg = trace.Config
		fmt.Printf("replaying %s: %s, %d points, %d ticks\n",
			*tracePath, wcfg.Kind, wcfg.NumPoints, wcfg.Ticks)
	} else {
		wcfg = workload.DefaultUniform()
		switch *kind {
		case "uniform":
		case "gaussian":
			wcfg = workload.DefaultGaussian()
			wcfg.Hotspots = *hotspots
		case "simulation":
			wcfg = workload.DefaultSimulation()
			wcfg.Hotspots = *hotspots
		default:
			return fmt.Errorf("unknown workload kind %q", *kind)
		}
		wcfg.Seed = *seed
		wcfg.NumPoints = *points
		wcfg.SpaceSize = float32(*space)
		wcfg.MaxSpeed = float32(*speed)
		wcfg.QuerySize = float32(*querySize)
		wcfg.Queriers = *queriers
		wcfg.Updaters = *updaters
		if *ticks > 0 {
			wcfg.Ticks = *ticks
		}
		var err error
		trace, err = workload.Record(wcfg)
		if err != nil {
			return err
		}
	}

	opts := core.Options{KeepPerTick: *perTick, Obs: reg}
	fmt.Printf("workload  : %s, %d points, %d ticks, %.0f%% queriers, %.0f%% updaters\n",
		wcfg.Kind, wcfg.NumPoints, wcfg.Ticks, wcfg.Queriers*100, wcfg.Updaters*100)
	fmt.Printf("kernels   : %s\n", grid.KernelTier())

	if *concurrent {
		if len(techs) != 1 {
			return fmt.Errorf("-concurrent runs a single technique; drop -compare")
		}
		t := techs[0]
		p := core.ParamsFor(wcfg)
		p.Shards = *shards
		// The wrapper keeps its registry to itself: each inner index it
		// builds is offered the run's registry here, so the shard.* and
		// tune.* series reach the snapshot for every technique.
		x := epoch.NewIndex(func() core.Index {
			idx := t.Make(p)
			obs.Instrument(idx, reg)
			return idx
		}, epoch.Options{})
		res := core.RunConcurrent(x, workload.NewPlayer(trace), core.ConcurrentOptions{Readers: *readers, Obs: reg})
		return reportConcurrent(res)
	}

	return raceReport(len(techs), *perTick, func(i int) (*core.Result, string) {
		p := core.ParamsFor(wcfg)
		p.Shards = *shards
		idx := techs[i].Make(p)
		if *parallel || *workers > 1 {
			return core.RunParallel(idx, workload.NewPlayer(trace), opts, *workers), techs[i].Key
		}
		return core.Run(idx, workload.NewPlayer(trace), opts), techs[i].Key
	})
}

// pickTechniques resolves -compare ("all" or a comma-separated key
// list) or, without it, the single -technique key against one object
// class's lineup; an empty key selects that class's default. A key of
// the other class is an error like any unknown key.
func pickTechniques[T any](compare, key, defaultKey string, all func() []T, byKey func(string) (T, error)) ([]T, error) {
	if compare == "all" {
		return all(), nil
	}
	keys := []string{key}
	if compare != "" {
		keys = strings.Split(compare, ",")
	} else if key == "" {
		keys[0] = defaultKey
	}
	var techs []T
	for _, k := range keys {
		t, err := byKey(strings.TrimSpace(k))
		if err != nil {
			return nil, err
		}
		techs = append(techs, t)
	}
	return techs, nil
}

// raceReport runs n techniques through run (which returns the result and
// the technique's CLI key) and prints either the single-technique
// breakdown or the comparison table, enforcing that every technique
// reports the identical (pairs, digest) join result. It is shared by
// the point and box modes so the race protocol cannot diverge.
func raceReport(n int, perTick bool, run func(i int) (*core.Result, string)) error {
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	var refPairs int64
	var refHash uint64
	var refKey string
	for i := 0; i < n; i++ {
		res, key := run(i)
		if n == 1 {
			fmt.Printf("technique : %s\n", res.Technique)
			fmt.Printf("avg/tick  : %.4fs  (build %.4fs, query %.4fs, update %.4fs)\n",
				res.AvgTick().Seconds(), res.AvgBuild().Seconds(),
				res.AvgQuery().Seconds(), res.AvgUpdate().Seconds())
			fmt.Printf("join      : %d pairs over %d queries, digest %#x\n", res.Pairs, res.Queries, res.Hash)
			if perTick {
				for ti, pt := range res.PerTick {
					fmt.Printf("tick %3d: build %.4fs query %.4fs update %.4fs\n",
						ti, pt.Build.Seconds(), pt.Query.Seconds(), pt.Update.Seconds())
				}
			}
			return nil
		}
		if i == 0 {
			refPairs, refHash, refKey = res.Pairs, res.Hash, key
			fmt.Fprintf(w, "technique\tavg/tick\tbuild\tquery\tupdate\tpairs\n")
		} else if res.Pairs != refPairs || res.Hash != refHash {
			return fmt.Errorf("%s disagrees with %s on the join result", res.Technique, refKey)
		}
		fmt.Fprintf(w, "%s\t%.4fs\t%.4fs\t%.4fs\t%.4fs\t%d\n",
			res.Technique, res.AvgTick().Seconds(), res.AvgBuild().Seconds(),
			res.AvgQuery().Seconds(), res.AvgUpdate().Seconds(), res.Pairs)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("join results verified identical across techniques")
	return nil
}

// reportConcurrent prints the service-mode run: latency percentiles
// under update load plus the epoch lifecycle counters. A query observing
// an unpublished epoch is an error, and so — since this command arms no
// fault injector — is any degraded or failed tick or publish retry: each
// means some layer under the epoch validator answered wrongly.
func reportConcurrent(res *core.ConcurrentResult) error {
	fmt.Printf("technique : %s (concurrent, %d readers)\n", res.Technique, res.Readers)
	fmt.Printf("avg/tick  : %.4fs wall over %d ticks\n", res.AvgTick().Seconds(), res.Ticks)
	fmt.Printf("query lat : p50 %s  p95 %s  p99 %s  (under update load; %d of %d queries stamped)\n",
		res.QueryP50, res.QueryP95, res.QueryP99, res.QuerySamples, res.Queries)
	fmt.Printf("epochs    : %d published, %d degraded ticks, %d retries, %d panics contained, %d failed ticks\n",
		res.Stats.Epochs, res.Stats.Degraded, res.Stats.Retries,
		res.Stats.PanicsContained, res.FailedTicks)
	fmt.Printf("join      : %d pairs over %d queries (epoch-dependent; not digest-comparable)\n",
		res.Pairs, res.Queries)
	if res.Violations != 0 {
		return fmt.Errorf("%d queries observed an unpublished epoch", res.Violations)
	}
	fmt.Println("epoch consistency verified: every query observed exactly one published epoch")
	if res.Stats.Degraded != 0 || res.Stats.Retries != 0 || res.FailedTicks != 0 {
		return fmt.Errorf("clean run degraded: %d degraded ticks, %d retries, %d failed ticks",
			res.Stats.Degraded, res.Stats.Retries, res.FailedTicks)
	}
	return nil
}

// runBoxMode runs the MBR workload: one technique or a digest race.
// Each technique gets a fresh generator from the same configuration, so
// all runs see the byte-identical stream.
func runBoxMode(bcfg workload.BoxConfig, techniqueKey, compare string, parallel bool, workers int, perTick bool, concurrent bool, readers int, shards int, reg *obs.Registry) error {
	techs, err := pickTechniques(compare, techniqueKey, "boxgrid-2l", bench.BoxTechniques, bench.BoxTechniqueByKey)
	if err != nil {
		return err
	}

	fmt.Printf("workload  : %s boxes (%s extents %g-%g), %d objects, %d ticks, %.0f%% queriers, %.0f%% updaters\n",
		bcfg.Kind, bcfg.Extent, bcfg.MinSide, bcfg.MaxSide,
		bcfg.NumPoints, bcfg.Ticks, bcfg.Queriers*100, bcfg.Updaters*100)
	fmt.Printf("kernels   : %s\n", grid.KernelTier())

	if concurrent {
		if len(techs) != 1 {
			return fmt.Errorf("-concurrent runs a single technique; drop -compare")
		}
		t := techs[0]
		p := core.ParamsFor(bcfg.Config)
		p.Shards = shards
		x := epoch.NewBoxIndex(func() core.BoxIndex {
			idx := t.Make(p)
			obs.Instrument(idx, reg)
			return idx
		}, epoch.Options{})
		res := core.RunBoxesConcurrent(x, workload.MustNewBoxGenerator(bcfg),
			core.ConcurrentOptions{Readers: readers, Obs: reg})
		return reportConcurrent(res)
	}

	opts := core.Options{KeepPerTick: perTick, Obs: reg}
	// Each technique gets a fresh generator, so all runs see the
	// byte-identical stream.
	return raceReport(len(techs), perTick, func(i int) (*core.Result, string) {
		p := core.ParamsFor(bcfg.Config)
		p.Shards = shards
		idx := techs[i].Make(p)
		src := workload.MustNewBoxGenerator(bcfg)
		if parallel {
			return core.RunBoxesParallel(idx, src, opts, workers), techs[i].Key
		}
		return core.RunBoxes(idx, src, opts), techs[i].Key
	})
}

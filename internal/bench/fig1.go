package bench

import (
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Figure 1 tunes the ORIGINAL Simple Grid on the default uniform
// workload: (a) bucket size has no effect; (b) cells per side is
// U-shaped with the optimum at a coarse 13x13 grid.

func init() {
	register(Experiment{
		ID:    "fig1a",
		Title: "Figure 1a: Tuning Original Simple Grid — entries per bucket",
		PaperShape: "flat line: varying bs from 4 to 32 has no effect on the original " +
			"implementation (optimum bs=4)",
		Run: func(cfg Config) (Artifact, error) {
			return gridTuningSweep(cfg, tuningSweep{
				xLabel: "Entries per Bucket",
				xs:     []int{4, 8, 12, 16, 20, 24, 28, 32},
				config: func(x int) grid.Config {
					c := grid.Original()
					c.BS = x
					return c
				},
			})
		},
	})
	register(Experiment{
		ID:    "fig1b",
		Title: "Figure 1b: Tuning Original Simple Grid — grid cells per side",
		PaperShape: "U-shaped: fine grids are crippled by the full-directory scan of " +
			"Algorithm 1; optimum cps=13",
		Run: func(cfg Config) (Artifact, error) {
			return gridTuningSweep(cfg, tuningSweep{
				xLabel: "Grid cells per side",
				xs:     []int{4, 8, 13, 16, 20, 24, 28, 32},
				config: func(x int) grid.Config {
					c := grid.Original()
					c.CPS = x
					return c
				},
			})
		},
	})
	register(Experiment{
		ID:    "fig5a",
		Title: "Figure 5a: Tuning Refactored Simple Grid — entries per bucket",
		PaperShape: "bs now matters: larger buckets exploit data locality; optimum " +
			"around bs=20",
		Run: func(cfg Config) (Artifact, error) {
			return gridTuningSweep(cfg, tuningSweep{
				xLabel: "Entries per Bucket",
				xs:     []int{2, 4, 8, 12, 16, 20, 24, 28, 32},
				config: func(x int) grid.Config {
					c := grid.Querying() // structural + query refactoring applied
					c.BS = x
					return c
				},
			})
		},
	})
	register(Experiment{
		ID:    "fig5b",
		Title: "Figure 5b: Tuning Refactored Simple Grid — grid cells per side",
		PaperShape: "monotone improvement toward fine grids, flattening around the " +
			"optimum cps=64: Algorithm 2 no longer penalizes granularity",
		Run: func(cfg Config) (Artifact, error) {
			return gridTuningSweep(cfg, tuningSweep{
				xLabel: "Grid cells per side",
				xs:     []int{4, 8, 16, 32, 48, 64, 96, 128},
				config: func(x int) grid.Config {
					c := grid.Querying()
					c.BS = grid.RefactoredBS
					c.CPS = x
					return c
				},
			})
		},
	})
}

// tuningSweep describes a one-parameter sweep of a single grid variant.
type tuningSweep struct {
	xLabel string
	xs     []int
	config func(x int) grid.Config
}

func gridTuningSweep(cfg Config, sw tuningSweep) (Artifact, error) {
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
	series := &stats.Series{
		Title:  "Avg. Time per Tick vs " + sw.xLabel,
		XLabel: sw.xLabel,
		YLabel: "Avg. Time per Tick (s)",
	}
	ys := make([]float64, 0, len(sw.xs))
	for _, x := range sw.xs {
		gc := sw.config(x)
		gc.Name = "" // derived names would all collide; sweep is one line
		g, err := grid.New(gc, wcfg.Bounds(), wcfg.NumPoints)
		if err != nil {
			return nil, err
		}
		res := core.Run(g, MaintainInPlace(g, workload.NewPlayer(trace)), core.Options{})
		series.Xs = append(series.Xs, float64(x))
		ys = append(ys, res.AvgTick().Seconds())
	}
	if err := series.AddLine("Avg. Time per Tick (s)", ys); err != nil {
		return nil, err
	}
	return series, nil
}

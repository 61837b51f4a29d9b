package bench

import (
	"repro/internal/stats"
	"repro/internal/workload"
)

// Figure 2 compares the static-index techniques on three workload sweeps;
// Figure 4 runs the identical sweeps over the Simple Grid ablation chain.
// Both share the sweep machinery below.

func init() {
	register(Experiment{
		ID:    "fig2a",
		Title: "Figure 2a: Static indices — scaling the query rate",
		PaperShape: "Simple Grid (original) worst everywhere, above even Binary Search; " +
			"R-Tree, CR-Tree and Linearized KD-Trie cluster at the bottom; all grow " +
			"roughly linearly with the query fraction",
		Run: func(cfg Config) (Artifact, error) {
			return sweepExperiment(cfg, staticLineup(), queryRateSweep())
		},
	})
	register(Experiment{
		ID:    "fig2b",
		Title: "Figure 2b: Static indices — scaling the number of hotspots",
		PaperShape: "few hotspots mean extreme skew and large result sets: every " +
			"technique is slowest at 1 hotspot and improves as load spreads; Simple " +
			"Grid (original) stays worst across the sweep",
		Run: func(cfg Config) (Artifact, error) {
			return sweepExperiment(cfg, staticLineup(), hotspotSweep())
		},
	})
	register(Experiment{
		ID:    "fig2c",
		Title: "Figure 2c: Static indices — scaling the number of points",
		PaperShape: "costs grow superlinearly with density (result sets grow too); " +
			"Simple Grid (original) worst at every population size",
		Run: func(cfg Config) (Artifact, error) {
			return sweepExperiment(cfg, staticLineup(), pointsSweep())
		},
	})
	register(Experiment{
		ID:    "fig4a",
		Title: "Figure 4a: Simple Grid ablation — scaling the query rate",
		PaperShape: "each refinement at or below the previous line; +cps tuned lowest " +
			"(~6x below Original at the default workload)",
		Run: func(cfg Config) (Artifact, error) {
			return sweepExperiment(cfg, gridLineup(), queryRateSweep())
		},
	})
	register(Experiment{
		ID:    "fig4b",
		Title: "Figure 4b: Simple Grid ablation — scaling the number of hotspots",
		PaperShape: "same ordering under the Gaussian workload: the ablation chain " +
			"improves monotonically, +cps tuned lowest",
		Run: func(cfg Config) (Artifact, error) {
			return sweepExperiment(cfg, gridLineup(), hotspotSweep())
		},
	})
	register(Experiment{
		ID:    "fig4c",
		Title: "Figure 4c: Simple Grid ablation — scaling the number of points",
		PaperShape: "gap between Original and +cps tuned widens with population; " +
			"ordering preserved at every size",
		Run: func(cfg Config) (Artifact, error) {
			return sweepExperiment(cfg, gridLineup(), pointsSweep())
		},
	})
}

// sweep describes one x-axis of Figures 2 and 4.
type sweep struct {
	xLabel string
	xs     []float64
	// configure derives the workload for one x value.
	configure func(x float64, cfg Config) workload.Config
}

func queryRateSweep() sweep {
	return sweep{
		xLabel: "Fraction of points issuing queries",
		xs:     []float64{0.1, 0.3, 0.5, 0.7, 0.9},
		configure: func(x float64, cfg Config) workload.Config {
			w := workload.DefaultUniform()
			w.Seed = cfg.Seed
			w.Queriers = x
			w.Ticks = scaledTicks(workload.DefaultTicks, cfg)
			return w
		},
	}
}

func hotspotSweep() sweep {
	return sweep{
		xLabel: "Number of Hotspots",
		xs:     []float64{1, 10, 100, 1000},
		configure: func(x float64, cfg Config) workload.Config {
			w := workload.DefaultGaussian()
			w.Seed = cfg.Seed
			w.Hotspots = int(x)
			w.Ticks = scaledTicks(workload.DefaultGaussTicks, cfg)
			return w
		},
	}
}

func pointsSweep() sweep {
	return sweep{
		xLabel: "Num. of Points",
		xs:     []float64{10000, 30000, 50000, 70000, 90000},
		configure: func(x float64, cfg Config) workload.Config {
			w := workload.DefaultUniform()
			w.Seed = cfg.Seed
			w.NumPoints = int(x)
			w.Ticks = scaledTicks(workload.DefaultTicks, cfg)
			return w
		},
	}
}

// sweepExperiment runs every lineup technique across the sweep and
// assembles the figure's series.
func sweepExperiment(cfg Config, lineup []technique, sw sweep) (Artifact, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	series := &stats.Series{
		Title:  "Avg. Time per Tick vs " + sw.xLabel,
		XLabel: sw.xLabel,
		YLabel: "Avg. Time per Tick (s)",
		Xs:     sw.xs,
	}
	lines := make([][]float64, len(lineup))
	for i := range lines {
		lines[i] = make([]float64, len(sw.xs))
	}
	for xi, x := range sw.xs {
		secs, err := runAvgTick(sw.configure(x, cfg), lineup)
		if err != nil {
			return nil, err
		}
		for i, s := range secs {
			lines[i][xi] = s
		}
	}
	for i, tech := range lineup {
		if err := series.AddLine(tech.name, lines[i]); err != nil {
			return nil, err
		}
	}
	return series, nil
}

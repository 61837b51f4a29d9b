// Package bench is the experiment harness: one registered experiment per
// table and figure of the paper's evaluation, each regenerating the same
// rows or series the paper reports (as text tables and CSV rather than
// plots).
//
// Experiments run at a configurable Scale. Scale 1.0 uses the paper's
// exact parameters (Table 1); smaller scales shorten the runs by reducing
// the tick count while leaving the data sizes — and therefore the cache
// behaviour the paper is about — untouched.
package bench

import (
	"fmt"
	"sort"

	"repro/internal/binsearch"
	"repro/internal/core"
	"repro/internal/crtree"
	"repro/internal/grid"
	"repro/internal/kdtrie"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// Config controls an experiment run.
type Config struct {
	// Scale in (0, 1] multiplies the per-experiment tick counts. 1.0
	// reproduces the paper's runs; 0.1 gives a quick pass with identical
	// data sizes.
	Scale float64
	// Seed feeds the workload generator; the paper's comparisons hold
	// for any fixed seed.
	Seed uint64
	// Parallel switches the driver to RunParallel with GOMAXPROCS
	// workers, parallelizing the whole tick (snapshot refresh, build
	// and update for indexes with parallel paths, and the query phase).
	// Off for paper-faithful single-threaded runs.
	Parallel bool
}

// DefaultConfig runs quickly while preserving all data sizes.
func DefaultConfig() Config { return Config{Scale: 0.1, Seed: 1} }

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	if c.Scale <= 0 || c.Scale > 1 {
		return fmt.Errorf("bench: scale must be in (0,1], got %g", c.Scale)
	}
	return nil
}

// Artifact is what an experiment produces: a stats.Series or stats.Table.
type Artifact interface {
	Format() string
	CSV() string
}

// Experiment regenerates one table or figure.
type Experiment struct {
	// ID is the experiment key (e.g. "fig2a", "tab3").
	ID string
	// Title names the artifact as the paper does.
	Title string
	// PaperShape states the qualitative result the paper reports, which
	// EXPERIMENTS.md checks the regenerated artifact against.
	PaperShape string
	// Run executes the experiment.
	Run func(cfg Config) (Artifact, error)
}

var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// All returns every experiment in paper order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return order(out[i].ID) < order(out[j].ID) })
	return out
}

// order fixes paper order: figures 1, 2, table 2, figure 4, 5, table 3.
func order(id string) int {
	for i, k := range []string{"fig1a", "fig1b", "fig2a", "fig2b", "fig2c", "tab2", "fig4a", "fig4b", "fig4c", "fig5a", "fig5b", "tab3"} {
		if k == id {
			return i
		}
	}
	return 100
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// scaledTicks applies the run scale to a paper tick count, keeping at
// least two ticks so averages remain meaningful.
func scaledTicks(paper int, cfg Config) int {
	t := int(float64(paper)*cfg.Scale + 0.5)
	if t < 2 {
		t = 2
	}
	if t > paper {
		t = paper
	}
	return t
}

// technique couples a display name with an index factory.
type technique struct {
	name string
	make core.Factory
}

// staticLineup is the paper's Figure 2 lineup: the Binary Search baseline
// plus the four static indexes, with Simple Grid in its original
// implementation.
func staticLineup() []technique {
	return []technique{
		{"Binary Search", func(p core.Params) core.Index { return binsearch.New() }},
		{"R-Tree", func(p core.Params) core.Index { return rtree.MustNew(rtree.DefaultFanout) }},
		{"CR-Tree", func(p core.Params) core.Index { return crtree.MustNew(crtree.DefaultFanout) }},
		{"Linearized KD-Trie", func(p core.Params) core.Index { return kdtrie.MustNew(p.Bounds, kdtrie.DefaultBits) }},
		{"Simple Grid", func(p core.Params) core.Index { return grid.MustNew(grid.Original(), p.Bounds, p.NumPoints) }},
	}
}

// gridLineup is the Figure 4 lineup: the ablation chain of Simple Grid
// implementations. The paper labels the first line "Original".
func gridLineup() []technique {
	names := []string{"Original", "+restructured", "+querying", "+bs tuned", "+cps tuned"}
	out := make([]technique, 0, 5)
	for i, gc := range grid.AblationChain() {
		gc := gc
		out = append(out, technique{names[i], func(p core.Params) core.Index {
			return grid.MustNew(gc, p.Bounds, p.NumPoints)
		}})
	}
	return out
}

// runAvgTick materializes the workload once and measures each technique's
// average wall time per tick on the identical trace, returning seconds in
// lineup order. All runs are verified to produce the same join digest —
// an experiment whose techniques disagree is aborted.
func runAvgTick(wcfg workload.Config, lineup []technique, cfg Config) ([]float64, error) {
	trace, err := workload.Record(wcfg)
	if err != nil {
		return nil, err
	}
	secs := make([]float64, len(lineup))
	var refPairs int64
	var refHash uint64
	for i, tech := range lineup {
		idx := tech.make(core.Params{Bounds: wcfg.Bounds(), NumPoints: wcfg.NumPoints})
		var res *core.Result
		if cfg.Parallel {
			res = core.RunParallel(idx, workload.NewPlayer(trace), core.Options{}, 0)
		} else {
			res = core.Run(idx, workload.NewPlayer(trace), core.Options{})
		}
		if i == 0 {
			refPairs, refHash = res.Pairs, res.Hash
		} else if res.Pairs != refPairs || res.Hash != refHash {
			return nil, fmt.Errorf("bench: %s join digest (%d, %#x) disagrees with %s (%d, %#x)",
				tech.name, res.Pairs, res.Hash, lineup[0].name, refPairs, refHash)
		}
		secs[i] = res.AvgTick().Seconds()
	}
	return secs, nil
}

// runBreakdown measures one technique's per-phase averages.
func runBreakdown(trace *workload.Trace, idx core.Index) (build, query, update float64, res *core.Result) {
	res = core.Run(idx, workload.NewPlayer(trace), core.Options{})
	return res.AvgBuild().Seconds(), res.AvgQuery().Seconds(), res.AvgUpdate().Seconds(), res
}

// fmtSecs renders seconds the way the paper's tables do.
func fmtSecs(s float64) string { return fmt.Sprintf("%.4f", s) }

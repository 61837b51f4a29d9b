package bench

import (
	"repro/internal/core"
	"repro/internal/crtree"
	"repro/internal/grid"
	"repro/internal/kdtrie"
	"repro/internal/rtree"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Table 2 breaks the default workload (50% queries and updates, 50K
// points) into per-phase averages for the three tree-style indexes and
// the whole Simple Grid ablation chain.

func init() {
	register(Experiment{
		ID:    "tab2",
		Title: "Table 2: Breakdown — 50% queries and updates, 50K points",
		PaperShape: "grid builds are several times cheaper than tree builds; the " +
			"original grid's query time is ~5-6x the trees'; each ablation row " +
			"improves on the previous; the final +cps tuned row has the lowest " +
			"query time of all techniques",
		Run: runTable2,
	})
}

func runTable2(cfg Config) (Artifact, error) {
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
	rows := table2Rows(core.Params{Bounds: wcfg.Bounds(), NumPoints: wcfg.NumPoints})
	table := stats.NewTable(
		"Breakdown: 50% queries and updates, 50K points",
		"Method", "Build (s)", "Query (s)", "Update (s)",
	)
	var refPairs int64
	var refHash uint64
	for i, row := range rows {
		build, query, update, res := runBreakdown(trace, row.idx)
		if i == 0 {
			refPairs, refHash = res.Pairs, res.Hash
		} else if res.Pairs != refPairs || res.Hash != refHash {
			return nil, errDigest(row.name, rows[0].name)
		}
		table.AddRow(row.name, fmtSecs(build), fmtSecs(query), fmtSecs(update))
	}
	return table, nil
}

// table2Row is one method of Table 2.
type table2Row struct {
	name string
	idx  core.Index
}

// table2Rows is Table 2's lineup: the three tree-style indexes, then the
// Simple Grid ablation chain.
func table2Rows(p core.Params) []table2Row {
	return []table2Row{
		{"R-Tree", rtree.MustNew(rtree.DefaultFanout)},
		{"CR-Tree", crtree.MustNew(crtree.DefaultFanout)},
		{"Lin. KD-Trie", kdtrie.MustNew(p.Bounds, kdtrie.DefaultBits)},
		{"Simple Grid", grid.MustNew(grid.Original(), p.Bounds, p.NumPoints)},
		{"+restructured", grid.MustNew(grid.Restructured(), p.Bounds, p.NumPoints)},
		{"+querying", grid.MustNew(grid.Querying(), p.Bounds, p.NumPoints)},
		{"+bs tuned", grid.MustNew(grid.BSTuned(), p.Bounds, p.NumPoints)},
		{"+cps tuned", grid.MustNew(grid.CPSTuned(), p.Bounds, p.NumPoints)},
	}
}

func errDigest(got, want string) error {
	return &digestError{got: got, want: want}
}

type digestError struct{ got, want string }

func (e *digestError) Error() string {
	return "bench: " + e.got + " join digest disagrees with " + e.want
}

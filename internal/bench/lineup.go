package bench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/binsearch"
	"repro/internal/core"
	"repro/internal/crtree"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/kdtrie"
	"repro/internal/rtree"
	"repro/internal/shard"
	"repro/internal/tune"
)

// namedTechnique couples a CLI-addressable key with a description and an
// index factory over geometry P, for the command-line tools.
type namedTechnique[P any] struct {
	Key         string
	Description string
	Make        core.FactoryOf[P]
}

// NamedTechnique is an entry of the point lineup, NamedBoxTechnique of
// the box-join (MBR) lineup.
type (
	NamedTechnique    = namedTechnique[geom.Point]
	NamedBoxTechnique = namedTechnique[geom.Rect]
)

var namedTechniques = []NamedTechnique{
	{
		Key:         "brute",
		Description: "full-scan oracle (no index); correctness baseline",
		Make:        func(p core.Params) core.Index { return core.NewBruteForce() },
	},
	{
		Key:         "binsearch",
		Description: "Binary Search baseline: sort by x, binary-search the query range",
		Make:        func(p core.Params) core.Index { return binsearch.New() },
	},
	{
		Key:         "rtree",
		Description: "STR-packed R-tree (Guttman 1984 / Leutenegger et al. 1997)",
		Make:        func(p core.Params) core.Index { return rtree.MustNew(rtree.DefaultFanout) },
	},
	{
		Key:         "crtree",
		Description: "CR-tree with quantized relative MBRs (Kim et al. 2001)",
		Make:        func(p core.Params) core.Index { return crtree.MustNew(crtree.DefaultFanout) },
	},
	{
		Key:         "kdtrie",
		Description: "Linearized KD-trie / throwaway index (Dittrich et al. 2009)",
		Make:        func(p core.Params) core.Index { return kdtrie.MustNew(p.Bounds, kdtrie.DefaultBits) },
	},
	{
		Key:         "grid",
		Description: "Simple Grid, original implementation (Fig. 3a, Algorithm 1, bs=4 cps=13)",
		Make:        gridFactory(grid.Original),
	},
	{
		Key:         "grid-restructured",
		Description: "Simple Grid after the structural refactoring (Fig. 3b)",
		Make:        gridFactory(grid.Restructured),
	},
	{
		Key:         "grid-querying",
		Description: "Simple Grid after structural + query refactoring (Algorithm 2)",
		Make:        gridFactory(grid.Querying),
	},
	{
		Key:         "grid-bs",
		Description: "refactored Simple Grid with retuned bucket size (bs=20)",
		Make:        gridFactory(grid.BSTuned),
	},
	{
		Key:         "grid-tuned",
		Description: "fully tuned refactored Simple Grid (bs=20, cps=64) — the paper's winner",
		Make:        gridFactory(grid.CPSTuned),
	},
	{
		Key:         "grid-intrusive",
		Description: "ablation: intrusive-list grid with O(1) handle-based updates (u-grid design)",
		Make: func(p core.Params) core.Index {
			cfg := grid.CPSTuned()
			cfg.Layout = grid.LayoutIntrusive
			cfg.Name = "+intrusive"
			return grid.MustNew(cfg, p.Bounds, p.NumPoints)
		},
	},
	{
		Key:         "grid-csr",
		Description: "extension: tuned grid with the contiguous CSR layout (counting-sort build, dense cell segments)",
		Make:        gridFactory(grid.CSR),
	},
	{
		Key:         "grid-xy",
		Description: "extension: refactored grid with coordinates inlined in buckets",
		Make: func(p core.Params) core.Index {
			cfg := grid.CPSTuned()
			cfg.Layout = grid.LayoutInlineXY
			cfg.Name = "+inline xy"
			return grid.MustNew(cfg, p.Bounds, p.NumPoints)
		},
	},
	{
		Key:         "grid-csrxy",
		Description: "extension: CSR grid with coordinates inlined next to the IDs (no base-table dereference on filtered cells)",
		Make:        gridFactory(grid.CSRXY),
	},
	{
		Key:         "auto",
		Description: "adaptive: the CSR grid at the paper's tuned occupancy, cps from the first snapshot's population (50 000 points at cps 64; internal/tune)",
		Make:        tune.AutoFactory,
	},
	{
		Key:         "shard-auto",
		Description: "region-sharded engine: space split into per-region independently tuned indexes with parallel fan-out/merge routing (internal/shard; shard count from the tune ladder or -shards)",
		Make:        shard.AutoFactory,
	},
}

func gridFactory(preset func() grid.Config) core.Factory {
	return func(p core.Params) core.Index {
		return grid.MustNew(preset(), p.Bounds, p.NumPoints)
	}
}

var namedBoxTechniques = []NamedBoxTechnique{
	{
		Key:         "boxbrute",
		Description: "full-scan box-join oracle (no index); correctness baseline",
		Make:        func(p core.Params) core.BoxIndex { return core.NewBruteForceBoxes() },
	},
	{
		Key:         "boxgrid-csr",
		Description: "CSR rectangle grid: per-cell MBR replication, counting-sort build, reference-point dedup",
		Make: func(p core.Params) core.BoxIndex {
			return grid.MustNewBoxGrid(grid.DefaultBoxCPS, p.Bounds, p.NumPoints)
		},
	},
	{
		Key:         "boxgrid-2l",
		Description: "two-layer classed rectangle grid: A/B/C/D class sub-spans, no per-candidate dedup, inlined coordinates",
		Make: func(p core.Params) core.BoxIndex {
			return grid.MustNewBoxGrid2L(grid.DefaultBoxCPS, p.Bounds, p.NumPoints)
		},
	},
	{
		Key:         "boxrtree",
		Description: "STR bulk-loaded box R-tree (Leutenegger et al. 1997): overlap-free packing, no replication, rebuilt every tick",
		Make: func(p core.Params) core.BoxIndex {
			return rtree.MustNewBoxTree(rtree.DefaultFanout)
		},
	},
	{
		Key:         "boxauto",
		Description: "adaptive: samples the first MBR snapshot and picks the two-layer grid or the STR R-tree + tuned cps or fanout from a calibrated cost model (internal/tune)",
		Make:        tune.AutoBoxFactory,
	},
	{
		Key:         "boxshard-auto",
		Description: "region-sharded box engine: per-region replicated MBRs with boundary-ownership dedup and per-region tuned inner indexes (internal/shard)",
		Make:        shard.AutoBoxFactory,
	},
}

// Layout-key parsing and structure construction shared by the
// command-line tools (spatialjoin, sweep), so each layout —
// including "auto" — is registered exactly once.

// PointLayoutKeys lists the -layout keys: the grid layouts and "auto".
func PointLayoutKeys() string {
	return "linked, inline, inline-xy, intrusive, csr, csr-xy, auto"
}

// ParsePointLayout maps a -layout key to the grid layout. Both the
// sweep spellings (inline-xy, csr-xy) and the bench-series spellings
// (inlinexy, csrxy) are accepted. "auto" is NOT a grid layout: it names
// tune.NewAuto.
func ParsePointLayout(key string) (grid.Layout, error) {
	switch key {
	case "linked":
		return grid.LayoutLinked, nil
	case "inline":
		return grid.LayoutInline, nil
	case "inline-xy", "inlinexy":
		return grid.LayoutInlineXY, nil
	case "intrusive":
		return grid.LayoutIntrusive, nil
	case "csr":
		return grid.LayoutCSR, nil
	case "csr-xy", "csrxy":
		return grid.LayoutCSRXY, nil
	default:
		return 0, fmt.Errorf("unknown layout %q (have %s)", key, PointLayoutKeys())
	}
}

// ParseScan maps a -scan key to the query algorithm.
func ParseScan(key string) (grid.Scan, error) {
	switch key {
	case "full":
		return grid.ScanFull, nil
	case "range":
		return grid.ScanRange, nil
	default:
		return 0, fmt.Errorf("unknown scan %q (have full, range)", key)
	}
}

// BoxLayoutKeys lists the -boxlayout keys NewBoxLayout accepts.
func BoxLayoutKeys() string { return "csr, 2l, rtree, auto" }

// KnownBoxLayout reports whether key is a valid -boxlayout key, for
// upfront flag validation.
func KnownBoxLayout(key string) bool {
	switch key {
	case "csr", "2l", "rtree", "auto":
		return true
	}
	return false
}

// NewBoxLayout constructs the box structure a -boxlayout key names.
// param is the structural parameter: grid cells-per-side for csr/2l,
// fanout for rtree; ignored by auto (which tunes its own and reads the
// workload hints from p).
func NewBoxLayout(key string, param int, p core.Params) (core.BoxIndex, error) {
	switch key {
	case "csr":
		return grid.NewBoxGrid(param, p.Bounds, p.NumPoints)
	case "2l":
		return grid.NewBoxGrid2L(param, p.Bounds, p.NumPoints)
	case "rtree":
		return rtree.NewBoxTree(param)
	case "auto":
		return tune.NewAutoBox(p), nil
	default:
		return nil, fmt.Errorf("unknown box layout %q (have %s)", key, BoxLayoutKeys())
	}
}

// sortedByKey returns a copy of a lineup, sorted by key.
func sortedByKey[P any](lineup []namedTechnique[P]) []namedTechnique[P] {
	out := append([]namedTechnique[P](nil), lineup...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// byKey resolves a CLI key in a lineup; what names the lineup in the
// error ("technique", "box technique").
func byKey[P any](lineup []namedTechnique[P], what, key string) (namedTechnique[P], error) {
	keys := make([]string, 0, len(lineup))
	for _, t := range lineup {
		if t.Key == key {
			return t, nil
		}
		keys = append(keys, t.Key)
	}
	return namedTechnique[P]{}, fmt.Errorf("unknown %s %q (have: %s)", what, key, strings.Join(keys, ", "))
}

// Techniques returns every CLI-addressable technique, sorted by key.
func Techniques() []NamedTechnique { return sortedByKey(namedTechniques) }

// TechniqueByKey resolves a CLI key to its factory.
func TechniqueByKey(key string) (NamedTechnique, error) {
	return byKey(namedTechniques, "technique", key)
}

// BoxTechniques returns every CLI-addressable box technique, sorted by
// key.
func BoxTechniques() []NamedBoxTechnique { return sortedByKey(namedBoxTechniques) }

// BoxTechniqueByKey resolves a CLI key to its box factory.
func BoxTechniqueByKey(key string) (NamedBoxTechnique, error) {
	return byKey(namedBoxTechniques, "box technique", key)
}

package tune

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/rtree"
)

// Candidate parameter ladders. Grid granularities are swept over the
// cps values the decision surface actually bends across (the BENCH
// sweeps show the optimum always lands inside this range); fanouts over
// the cache-line-regime node sizes. Every value is valid by
// construction: 1 ≤ cps ≤ grid.MaxBoxCPS and fanout ≥ 2, which the
// selector property test pins down.
var (
	gridCPSLadder = []int{8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512}
	fanoutLadder  = []int{4, 8, 16, 32, 64}
)

// Alternative is one (family, parameter) candidate with its predicted
// per-tick cost — the selector's full ranking is retained on the Choice
// so callers can print why the winner won.
type Alternative struct {
	Family Family
	Param  int // cps for grids, fanout for the R-tree
	TickNs float64
}

// String renders the candidate the way the benches key series.
func (a Alternative) String() string {
	if a.Family == BoxRTree {
		return fmt.Sprintf("%s/fanout=%d", a.Family, a.Param)
	}
	return fmt.Sprintf("%s/cps=%d", a.Family, a.Param)
}

// Choice is the selector's decision: a family plus tuned parameters,
// the statistics it was derived from, and the per-family ranking.
type Choice struct {
	Family Family
	// CPS is the tuned grid granularity (grid families; 0 otherwise),
	// always in [1, grid.MaxBoxCPS].
	CPS int
	// Fanout is the tuned node capacity (BoxRTree; 0 otherwise),
	// always ≥ 2.
	Fanout int
	// Stats are the sampled statistics the decision was made from.
	Stats Stats
	// Ranking holds each candidate family's best (parameter, predicted
	// tick cost), cheapest first.
	Ranking []Alternative
}

// param returns the tuned structural parameter of the chosen family.
func (c Choice) param() int {
	if c.Family == BoxRTree {
		return c.Fanout
	}
	return c.CPS
}

// String renders the decision ("boxcsr2l/cps=96").
func (c Choice) String() string {
	return Alternative{Family: c.Family, Param: c.param()}.String()
}

// Explain renders the decision with its evidence: the sampled stats and
// the predicted cost of every family's best candidate.
func (c Choice) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sampled: %s\n", c.Stats)
	parts := make([]string, 0, len(c.Ranking))
	for _, a := range c.Ranking {
		parts = append(parts, fmt.Sprintf("%s %.3fms/tick", a, a.TickNs/1e6))
	}
	fmt.Fprintf(&b, "predicted: %s\n", strings.Join(parts, ", "))
	fmt.Fprintf(&b, "picked: %s", c)
	return b.String()
}

// pointDensityFloor is the minimum expected objects per cell the point
// ladder is allowed to reach. Below ~2 objects per cell, extra
// granularity cannot shrink the candidate term (most candidates are
// matches already) while directory sweep and cache costs keep growing —
// a regime the small-scene calibration systematically underprices, so
// the selector does not extrapolate into it.
const pointDensityFloor = 2.0

// choose sweeps the given families over their parameter ladders and
// returns the argmin of the predicted per-tick cost (TickNs).
func choose(m *Model, s Stats, families []Family) Choice {
	s = s.sanitize()
	maxPointCPS := int(math.Sqrt(float64(s.N) / pointDensityFloor))
	if maxPointCPS < gridCPSLadder[0] {
		maxPointCPS = gridCPSLadder[0]
	}
	best := make(map[Family]Alternative, len(families))
	for _, f := range families {
		ladder := gridCPSLadder
		if f == BoxRTree {
			ladder = fanoutLadder
		}
		for _, p := range ladder {
			if f != BoxRTree && p > grid.MaxBoxCPS {
				continue
			}
			if !f.IsBox() && p > maxPointCPS {
				continue
			}
			t := m.TickNs(f, s, p)
			if cur, ok := best[f]; !ok || t < cur.TickNs {
				best[f] = Alternative{Family: f, Param: p, TickNs: t}
			}
		}
	}
	ranking := make([]Alternative, 0, len(best))
	for _, a := range best {
		ranking = append(ranking, a)
	}
	sort.Slice(ranking, func(i, j int) bool {
		if ranking[i].TickNs != ranking[j].TickNs {
			return ranking[i].TickNs < ranking[j].TickNs
		}
		return ranking[i].Family < ranking[j].Family // deterministic tie-break
	})
	win := ranking[0]
	c := Choice{Family: win.Family, Stats: s, Ranking: ranking}
	if win.Family == BoxRTree {
		c.Fanout = win.Param
	} else {
		c.CPS = win.Param
	}
	return c
}

// ChoosePoint selects the point family + granularity for the sampled
// workload using the process-wide calibration, priced as every driver
// runs a tick (TickNs: the sampled update mix does not enter). The shard
// engines' regions pick with it too.
func ChoosePoint(s Stats) Choice { return Calibrate().choosePoint(s) }

// ChooseBox is ChoosePoint for the box families.
func ChooseBox(s Stats) Choice { return Calibrate().chooseBox(s) }

func (m *Model) choosePoint(s Stats) Choice { return choose(m, s, pointFamilies) }
func (m *Model) chooseBox(s Stats) Choice   { return choose(m, s, boxFamilies) }

// NewPointIndex instantiates the chosen point structure.
func (c Choice) NewPointIndex(p core.Params) core.Index {
	layout := grid.LayoutInline
	switch c.Family {
	case PointCSR:
		layout = grid.LayoutCSR
	case PointCSRXY:
		layout = grid.LayoutCSRXY
	}
	cfg := grid.Config{
		Name:   fmt.Sprintf("auto(%s)", c),
		Layout: layout,
		Scan:   grid.ScanRange,
		BS:     grid.RefactoredBS,
		CPS:    c.CPS,
	}
	return grid.MustNew(cfg, p.Bounds, p.NumPoints)
}

// NewBoxIndex instantiates the chosen box structure.
func (c Choice) NewBoxIndex(p core.Params) core.BoxIndex {
	switch c.Family {
	case BoxRTree:
		return rtree.MustNewBoxTree(c.Fanout)
	case BoxCSR2L:
		return grid.MustNewBoxGrid2L(c.CPS, p.Bounds, p.NumPoints)
	default:
		return grid.MustNewBoxGrid(c.CPS, p.Bounds, p.NumPoints)
	}
}

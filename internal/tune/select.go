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
// construction: 1 ≤ cps ≤ grid.MaxCSRCPS ≤ grid.MaxBoxCPS and fanout ≥ 2,
// which the selector property test pins down.
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
	// always on gridCPSLadder.
	CPS int
	// Fanout is the tuned node capacity (BoxRTree; 0 otherwise),
	// always ≥ 2.
	Fanout int
	// Stats are the sampled statistics the decision was made from.
	Stats Stats
	// Ranking holds each candidate box family's best (parameter,
	// predicted tick cost), cheapest first; empty for a point choice,
	// which is a rule and not a price.
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
// the predicted cost of every box family's best candidate, or the point
// rule.
func (c Choice) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sampled: %s\n", c.Stats)
	if c.Family == PointCSR {
		fmt.Fprintf(&b, "rule: the paper's occupancy, n/cps² ≈ %d/%d²\n", paperPoints, grid.RefactoredCPS)
	} else {
		parts := make([]string, 0, len(c.Ranking))
		for _, a := range c.Ranking {
			parts = append(parts, fmt.Sprintf("%s %.3fms/tick", a, a.TickNs/1e6))
		}
		fmt.Fprintf(&b, "predicted: %s\n", strings.Join(parts, ", "))
	}
	fmt.Fprintf(&b, "picked: %s", c)
	return b.String()
}

// paperPoints is the population of the paper's default workload, at
// which its tuned grid has grid.RefactoredCPS cells per side (Figure 5b).
const paperPoints = 50_000

// ChoosePoint picks the point structure for the sampled workload: the CSR
// grid at the paper's tuned occupancy, n/cps² = paperPoints/RefactoredCPS²
// — the ladder value nearest RefactoredCPS·√(n/paperPoints). It reads no
// calibration: the CSR tick is flat over cps 32–96 on windows of 100 to
// 1600 units, and a fitted point model picked no faster (README §3). The
// shard engines' regions pick with it too.
func ChoosePoint(s Stats) Choice {
	s = s.sanitize()
	want := grid.RefactoredCPS * math.Sqrt(float64(s.N)/paperPoints)
	cps := gridCPSLadder[0]
	for _, p := range gridCPSLadder {
		if math.Abs(float64(p)-want) < math.Abs(float64(cps)-want) {
			cps = p
		}
	}
	return Choice{Family: PointCSR, CPS: cps, Stats: s}
}

// ChooseBox selects the box family + parameter for the sampled workload
// using the process-wide calibration: the argmin over both families'
// ladders of the predicted per-tick cost, priced as every driver runs a
// tick (TickNs: the sampled update mix does not enter).
func ChooseBox(s Stats) Choice { return Calibrate().chooseBox(s) }

func (m *Model) chooseBox(s Stats) Choice {
	s = s.sanitize()
	ranking := make([]Alternative, 0, len(boxFamilies))
	for _, f := range boxFamilies {
		ladder := gridCPSLadder
		if f == BoxRTree {
			ladder = fanoutLadder
		}
		var best Alternative
		for i, p := range ladder {
			if t := m.TickNs(f, s, p); i == 0 || t < best.TickNs {
				best = Alternative{Family: f, Param: p, TickNs: t}
			}
		}
		ranking = append(ranking, best)
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

// NewPointIndex instantiates the chosen point structure.
func (c Choice) NewPointIndex(p core.Params) core.Index {
	cfg := grid.Config{
		Name:   fmt.Sprintf("auto(%s)", c),
		Layout: grid.LayoutCSR,
		Scan:   grid.ScanRange,
		BS:     grid.RefactoredBS,
		CPS:    c.CPS,
	}
	return grid.MustNew(cfg, p.Bounds, p.NumPoints)
}

// NewBoxIndex instantiates the chosen box structure.
func (c Choice) NewBoxIndex(p core.Params) core.BoxIndex {
	if c.Family == BoxRTree {
		return rtree.MustNewBoxTree(c.Fanout)
	}
	return grid.MustNewBoxGrid2L(c.CPS, p.Bounds, p.NumPoints)
}

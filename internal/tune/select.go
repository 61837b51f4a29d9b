package tune

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/grid"
)

// Family enumerates what the selector can pick: the CSR point grid, and
// for boxes the two-layer classed grid.
type Family int

const (
	// PointCSR is the contiguous counting-sort point grid, at the
	// granularity of the point rule (ChoosePoint).
	PointCSR Family = iota
	// BoxCSR2L is the two-layer class-partitioned rectangle grid, at the
	// granularity of the box rule (ChooseBox).
	BoxCSR2L
)

// String returns the family's lineup-facing name.
func (f Family) String() string {
	switch f {
	case PointCSR:
		return "csr"
	case BoxCSR2L:
		return "boxcsr2l"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// gridCPSLadder lists the granularities a rule rounds to. Every value is
// valid by construction: 1 ≤ cps ≤ grid.MaxCSRCPS ≤ grid.MaxBoxCPS, which
// the selector property test pins down.
var gridCPSLadder = []int{8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512}

// Choice is the selector's decision: a family at a granularity, and the
// statistics it was derived from.
type Choice struct {
	Family Family
	// CPS is the grid granularity, always on gridCPSLadder.
	CPS int
	// Stats are the sampled statistics the decision was made from.
	Stats Stats
}

// String renders the decision ("boxcsr2l/cps=48").
func (c Choice) String() string {
	return fmt.Sprintf("%s/cps=%d", c.Family, c.CPS)
}

// Explain renders the decision with its evidence: the sampled stats and
// the rule that turned them into the pick.
func (c Choice) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sampled: %s\n", c.Stats)
	anchor, tier := grid.RefactoredCPS, ""
	if c.Family == BoxCSR2L {
		anchor, tier = boxAnchor(), " on the "+grid.KernelTier()+" tier"
	}
	fmt.Fprintf(&b, "rule: the paper's occupancy%s, n/cps² ≈ %d/%d²\n", tier, paperPoints, anchor)
	fmt.Fprintf(&b, "picked: %s", c)
	return b.String()
}

// paperPoints is the population of the paper's default workload, at
// which its tuned grid has grid.RefactoredCPS cells per side (Figure 5b).
const paperPoints = 50_000

// atOccupancy returns the ladder value nearest anchor·√(n/paperPoints):
// the granularity that keeps n objects at the occupancy anchor cells per
// side give paperPoints.
func atOccupancy(anchor, n int) int {
	want := float64(anchor) * math.Sqrt(float64(n)/paperPoints)
	cps := gridCPSLadder[0]
	for _, p := range gridCPSLadder {
		if math.Abs(float64(p)-want) < math.Abs(float64(cps)-want) {
			cps = p
		}
	}
	return cps
}

// ChoosePoint picks the point structure for the sampled workload: the CSR
// grid at the paper's tuned occupancy, n/cps² = paperPoints/RefactoredCPS².
// The CSR tick is flat over cps 32–96 on windows of 100 to 1600 units, and
// a fitted point model picked no faster (README, "Why a rule"). The shard
// engines' regions pick with it too.
func ChoosePoint(s Stats) Choice {
	s = s.sanitize()
	return Choice{Family: PointCSR, CPS: atOccupancy(grid.RefactoredCPS, s.N), Stats: s}
}

// boxAnchor is the box rule's granularity at paperPoints: 48 cells a side
// where the filters run on the AVX-512 tier, whose tested candidate is the
// cheaper and argues for coarser cells, and 64 on the Go loops. Each is
// the pick the calibrated box model made on the default box stream in
// every process on its tier, and neither lost to the model's own pick on
// any box workload raced (README, "Why a rule").
func boxAnchor() int {
	if grid.KernelTier() == "avx512" {
		return 48
	}
	return 64
}

// ChooseBox picks the box structure for the sampled workload: the
// two-layer classed grid at the box anchor's occupancy. Like ChoosePoint
// it reads the population alone; the extents and the window do not move
// it.
func ChooseBox(s Stats) Choice {
	s = s.sanitize()
	return Choice{Family: BoxCSR2L, CPS: atOccupancy(boxAnchor(), s.N), Stats: s}
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
	return grid.MustNewBoxGrid2L(c.CPS, p.Bounds, p.NumPoints)
}

// Calibrate does nothing. The box choice is a rule and fits no model;
// the function stays because the benchmark's set-up still calls it.
func Calibrate() {}

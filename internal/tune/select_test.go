package tune

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// TestSelectorAlwaysValid is the acceptance-criterion property test: for
// ANY stats — including fuzzed garbage and the degenerate corners (0
// objects, all-outside-space rects, NaN extents) — the selectors must
// return parameters the target constructors accept: 1 <= cps <=
// grid.MaxCSRCPS for the point grid, 1 <= cps <= grid.MaxBoxCPS for the
// box grid. Every choice is constructed and run through a small build
// and query.
func TestSelectorAlwaysValid(t *testing.T) {
	r := xrand.New(42)
	fuzzed := make([]Stats, 0, 400)
	for i := 0; i < 400; i++ {
		fuzzed = append(fuzzed, Stats{
			N:         int(r.Intn(2_000_001)) - 1000, // includes negatives and 0
			Space:     geom.R(0, 0, r.Range(-10, 1e6), r.Range(-10, 1e6)),
			MeanSide:  r.Range(-100, 1e5),
			QuerySide: r.Range(-100, 1e5),
		})
	}
	nan := float32(math.NaN())
	fuzzed = append(fuzzed,
		Stats{},                         // all-zero
		Stats{N: 0, Space: geom.Rect{}}, // empty space
		Stats{N: 1 << 30},               // huge population
		Stats{N: 100, MeanSide: nan, QuerySide: nan, Space: geom.R(0, 0, nan, nan)},                              // NaN soup
		Stats{N: 100, Space: geom.R(0, 0, 1, 1), MeanSide: 1e9, QuerySide: 1e9},                                  // extents >> space
		SampleBoxes([]geom.Rect{geom.Square(geom.Pt(-9e5, 9e5), 3)}, geom.R(0, 0, 10, 10), core.WorkloadHints{}), // all outside space
	)
	bounds := geom.R(0, 0, 1000, 1000)
	p := core.Params{Bounds: bounds, NumPoints: 4}
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(999, 999), geom.Pt(500, 500), geom.Pt(500, 501)}
	rects := make([]geom.Rect, len(pts))
	for i, q := range pts {
		rects[i] = geom.Square(q, 2)
	}
	var buf []uint32
	for i, s := range fuzzed {
		pc := ChoosePoint(s)
		if pc.Family != PointCSR || pc.CPS < 1 || pc.CPS > grid.MaxCSRCPS {
			t.Fatalf("case %d: point choice %s outside csr/cps in [1, %d] (stats %+v)", i, pc, grid.MaxCSRCPS, s)
		}
		idx := pc.NewPointIndex(p)
		idx.Build(pts)
		if buf = idx.(core.QueryAppender).QueryAppend(geom.Square(pts[2], 10), buf[:0]); len(buf) != 2 {
			t.Fatalf("case %d: %s found %d of the 2 points in the window", i, pc, len(buf))
		}

		bc := ChooseBox(s)
		if bc.Family != BoxCSR2L || bc.CPS < 1 || bc.CPS > grid.MaxBoxCPS {
			t.Fatalf("case %d: box choice %s outside boxcsr2l/cps in [1, %d] (stats %+v)", i, bc, grid.MaxBoxCPS, s)
		}
		bidx := bc.NewBoxIndex(p)
		bidx.Build(rects)
		if buf = bidx.(core.QueryAppender).QueryAppend(geom.Square(pts[2], 10), buf[:0]); len(buf) != 2 {
			t.Fatalf("case %d: %s found %d of the 2 boxes in the window", i, bc, len(buf))
		}
	}
}

// TestChoosePointRule pins the point rule: the CSR grid at the paper's
// tuned occupancy, 50 000 points at cps 64, rounded to the ladder and
// clamped to its ends.
func TestChoosePointRule(t *testing.T) {
	churn := workload.DefaultGaussian() // the benchmark's point_churn stream
	churn.NumPoints, churn.QuerySize, churn.Queriers, churn.Updaters = 100_000, 100, 0.02, 1
	small := workload.DefaultUniform()
	small.NumPoints = 5000
	for _, tc := range []struct {
		name string
		cfg  workload.Config
		want string
	}{
		{"default uniform", workload.DefaultUniform(), "csr/cps=64"},
		{"point_churn", churn, "csr/cps=96"},      // 64·√2 ≈ 90.5
		{"5000 uniform", small, "csr/cps=24"},     // 64·√0.1 ≈ 20.2
		{"empty", workload.Config{}, "csr/cps=8"}, // the ladder's floor
	} {
		h := core.ParamsFor(tc.cfg).Hints
		if c := ChoosePoint(SamplePoints(make([]geom.Point, tc.cfg.NumPoints), tc.cfg.Bounds(), h)); c.String() != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, c, tc.want)
		}
	}
	if c := ChoosePoint(Stats{N: 1 << 30}); c.CPS != gridCPSLadder[len(gridCPSLadder)-1] {
		t.Errorf("a billion points: %s, want the ladder's top", c)
	}
}

// TestChooseBoxRule pins the box rule: the two-layer classed grid at the
// box anchor's occupancy — 50 000 MBRs at cps 48 on the AVX-512 tier and
// 64 on the Go loops — rounded to the ladder and clamped to its ends,
// whatever the window and the MBRs' extents.
func TestChooseBoxRule(t *testing.T) {
	anchor := map[string]int{"avx512": 48, "generic": 64}[grid.KernelTier()]
	boxes := workload.DefaultUniformBoxes() // the benchmark's box_uniform stream
	gen := workload.MustNewBoxGenerator(boxes)
	snap := gen.Rects(nil)
	h := core.ParamsFor(boxes.Config).Hints
	want := fmt.Sprintf("boxcsr2l/cps=%d", anchor)
	base := SampleBoxes(snap, boxes.Bounds(), h)
	if c := ChooseBox(base); c.String() != want {
		t.Fatalf("box_uniform on the %s tier: %s, want %s", grid.KernelTier(), c, want)
	}
	for _, side := range []float32{0, 20, 400, 1600, 22_000} {
		s := base
		s.QuerySide, s.MeanSide = side, side
		if c := ChooseBox(s); c.String() != want {
			t.Errorf("box_uniform, window and mean side %g: %s, want %s", side, c, want)
		}
	}
	for _, tc := range []struct {
		n    int
		want int
	}{
		{0, gridCPSLadder[0]},
		{1 << 30, gridCPSLadder[len(gridCPSLadder)-1]},
	} {
		c := ChooseBox(Stats{N: tc.n})
		if c.CPS != tc.want {
			t.Errorf("%d boxes: %s, want cps=%d", tc.n, c, tc.want)
		}
		bidx := c.NewBoxIndex(core.Params{Bounds: boxes.Bounds(), NumPoints: len(snap)})
		bidx.Build(snap)
		if err := bidx.(core.InvariantChecker).CheckInvariants(); err != nil {
			t.Errorf("%s over box_uniform: %v", c, err)
		}
	}
}

// TestSelectorChoicesConstruct builds real indexes from a handful of
// box choices and runs a tiny cycle through them.
func TestSelectorChoicesConstruct(t *testing.T) {
	bounds := geom.R(0, 0, 1000, 1000)
	p := core.Params{Bounds: bounds, NumPoints: 64}
	rects := make([]geom.Rect, 64)
	r := xrand.New(7)
	for i := range rects {
		rects[i] = geom.Square(geom.Pt(r.Range(0, 1000), r.Range(0, 1000)), r.Range(1, 60))
	}
	for _, s := range []Stats{
		{},
		{N: 64, Space: bounds, QuerySide: 100},
		{N: 64, Space: bounds, MeanSide: 30, QuerySide: 100},
	} {
		bc := ChooseBox(s)
		bidx := bc.NewBoxIndex(p)
		bidx.Build(rects)
		bidx.Query(rects[0], func(uint32) {})
		bidx.Update(0, rects[0], geom.Square(geom.Pt(2, 2), 4))
	}
}

func TestChoiceExplain(t *testing.T) {
	s := Stats{N: 1000, Space: geom.R(0, 0, 1000, 1000), MeanSide: 20, QuerySide: 50}
	box, point := ChooseBox(s), ChoosePoint(s)
	for _, tc := range []struct {
		c     Choice
		wants []string
	}{
		{box, []string{"sampled:", "rule:", grid.KernelTier() + " tier", "picked:", box.String()}},
		{point, []string{"sampled:", "rule:", "picked:", point.String()}},
	} {
		out := tc.c.Explain()
		for _, want := range tc.wants {
			if !strings.Contains(out, want) {
				t.Errorf("Explain() missing %q:\n%s", want, out)
			}
		}
	}
}

package tune

import (
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
// ANY stats — including fuzzed garbage and the degenerate corners the
// issue names (0 objects, all-outside-space rects, NaN extents) — the
// selectors must return parameters the target constructors accept:
// 1 <= cps <= grid.MaxCSRCPS for the point grid, 1 <= cps <=
// grid.MaxBoxCPS for the box grid, fanout >= 2 for the R-tree. Every
// point choice is constructed and run through a small build and query.
func TestSelectorAlwaysValid(t *testing.T) {
	m := Calibrate()
	r := xrand.New(42)
	fuzzed := make([]Stats, 0, 400)
	for i := 0; i < 400; i++ {
		fuzzed = append(fuzzed, Stats{
			N:         int(r.Intn(2_000_001)) - 1000, // includes negatives and 0
			Space:     geom.R(0, 0, r.Range(-10, 1e6), r.Range(-10, 1e6)),
			MeanSide:  r.Range(-100, 1e5),
			P95Side:   r.Range(-100, 1e5),
			Skew:      float64(r.Range(-5, 300)),
			QuerySide: r.Range(-100, 1e5),
			Queriers:  float64(r.Range(-1, 2)),
			Updaters:  float64(r.Range(-1, 2)),
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

		bc := m.chooseBox(s)
		if bc.Family == BoxRTree {
			if bc.Fanout < 2 {
				t.Fatalf("case %d: fanout %d < 2 (stats %+v)", i, bc.Fanout, s)
			}
		} else if bc.CPS < 1 || bc.CPS > grid.MaxBoxCPS {
			t.Fatalf("case %d: box cps %d outside [1, %d] (stats %+v)", i, bc.CPS, grid.MaxBoxCPS, s)
		}
		if len(bc.Ranking) == 0 || bc.Ranking[0].Family != bc.Family {
			t.Fatalf("case %d: ranking does not lead with the winner", i)
		}
	}
}

// TestChoosePointRule pins the point rule: the CSR grid at the paper's
// tuned occupancy, 50 000 points at cps 64, rounded to the ladder and
// clamped to its ends, whatever the query:update mix.
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
		for _, mix := range [][2]float64{{h.Queriers, h.Updaters}, {0, 0}, {1, 0}, {0, 1}, {1, 1}, {0.3, 0.7}} {
			h.Queriers, h.Updaters = mix[0], mix[1]
			c := ChoosePoint(SamplePoints(make([]geom.Point, tc.cfg.NumPoints), tc.cfg.Bounds(), h))
			if c.String() != tc.want {
				t.Errorf("%s at %.0f%%q/%.0f%%u: %s, want %s", tc.name, mix[0]*100, mix[1]*100, c, tc.want)
			}
		}
	}
	if c := ChoosePoint(Stats{N: 1 << 30}); c.CPS != gridCPSLadder[len(gridCPSLadder)-1] {
		t.Errorf("a billion points: %s, want the ladder's top", c)
	}
}

// TestSelectorChoicesConstruct builds real indexes from a handful of
// box choices and runs a tiny cycle through them.
func TestSelectorChoicesConstruct(t *testing.T) {
	m := Calibrate()
	bounds := geom.R(0, 0, 1000, 1000)
	p := core.Params{Bounds: bounds, NumPoints: 64}
	rects := make([]geom.Rect, 64)
	r := xrand.New(7)
	for i := range rects {
		rects[i] = geom.Square(geom.Pt(r.Range(0, 1000), r.Range(0, 1000)), r.Range(1, 60))
	}
	for _, s := range []Stats{
		{},
		{N: 64, Space: bounds, QuerySide: 100, Queriers: 1, Updaters: 0},
		{N: 64, Space: bounds, MeanSide: 30, QuerySide: 100, Queriers: 0, Updaters: 1},
	} {
		bc := m.chooseBox(s)
		bidx := bc.NewBoxIndex(p)
		bidx.Build(rects)
		bidx.Query(rects[0], func(uint32) {})
		bidx.Update(0, rects[0], geom.Square(geom.Pt(2, 2), 4))
	}
}

func TestSelectorRespondsToMix(t *testing.T) {
	m := Calibrate()
	base := Stats{
		N:         50_000,
		Space:     geom.R(0, 0, 22_000, 22_000),
		MeanSide:  150,
		P95Side:   240,
		Skew:      1,
		QuerySide: 400,
	}
	queryHeavy := base
	queryHeavy.Queriers, queryHeavy.Updaters = 0.9, 0.1
	updateHeavy := base
	updateHeavy.Queriers, updateHeavy.Updaters = 0.0, 1.0

	cq := m.chooseBox(queryHeavy)
	cu := m.chooseBox(updateHeavy)
	// Directional sanity, not an exact pick: an update-only workload
	// must never be given a finer grid than a query-heavy one (finer
	// grids only buy query time and cost replication on every build).
	if cq.Family != BoxRTree && cu.Family != BoxRTree && cu.CPS > cq.CPS {
		t.Errorf("update-heavy picked finer grid (%s) than query-heavy (%s)", cu, cq)
	}
}

// TestStopTheWorldTickIgnoresMoves pins the price of a tick: no driver
// hands the index a move, so TickNs does not depend on the update mix.
func TestStopTheWorldTickIgnoresMoves(t *testing.T) {
	m := Calibrate()
	still := Stats{N: 100_000, Space: geom.R(0, 0, 22_000, 22_000), Skew: 4, QuerySide: 100, Queriers: 0.02}
	churn := still
	churn.Updaters = 1
	for _, f := range boxFamilies {
		if a, b := m.TickNs(f, still, 64), m.TickNs(f, churn, 64); a != b {
			t.Errorf("%s: TickNs %.0f with nobody moving, %.0f with everyone moving", f, a, b)
		}
	}
	if a, b := m.chooseBox(still), m.chooseBox(churn); a.String() != b.String() {
		t.Errorf("stop-the-world pick moved with the update mix: %s still, %s churning", a, b)
	}
}

func TestChoiceExplain(t *testing.T) {
	s := Stats{N: 1000, Space: geom.R(0, 0, 1000, 1000), MeanSide: 20, QuerySide: 50}
	box, point := ChooseBox(s), ChoosePoint(s)
	for _, tc := range []struct {
		c     Choice
		wants []string
	}{
		{box, []string{"sampled:", "predicted:", "picked:", box.String()}},
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

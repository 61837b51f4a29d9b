package tune

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/xrand"
)

// TestSelectorAlwaysValid is the acceptance-criterion property test: for
// ANY stats — including fuzzed garbage and the degenerate corners the
// issue names (0 objects, all-outside-space rects, NaN extents) — the
// selector must return parameters the target constructors accept:
// 1 <= cps <= grid.MaxBoxCPS for grids, fanout >= 2 for the R-tree, and
// the constructed index must survive a small build/query/update cycle.
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
	for i, s := range fuzzed {
		for _, c := range []Choice{m.choosePoint(s), m.chooseBox(s)} {
			if c.Family == BoxRTree {
				if c.Fanout < 2 {
					t.Fatalf("case %d: fanout %d < 2 (stats %+v)", i, c.Fanout, s)
				}
			} else if c.CPS < 1 || c.CPS > grid.MaxBoxCPS {
				t.Fatalf("case %d: cps %d outside [1, %d] (stats %+v)", i, c.CPS, grid.MaxBoxCPS, s)
			}
			if len(c.Ranking) == 0 || c.Ranking[0].Family != c.Family {
				t.Fatalf("case %d: ranking does not lead with the winner", i)
			}
		}
	}
}

// TestSelectorChoicesConstruct builds real indexes from a handful of
// fuzzed choices and runs a tiny cycle through them.
func TestSelectorChoicesConstruct(t *testing.T) {
	m := Calibrate()
	bounds := geom.R(0, 0, 1000, 1000)
	p := core.Params{Bounds: bounds, NumPoints: 64}
	pts := make([]geom.Point, 64)
	rects := make([]geom.Rect, 64)
	r := xrand.New(7)
	for i := range pts {
		pts[i] = geom.Pt(r.Range(0, 1000), r.Range(0, 1000))
		rects[i] = geom.Square(pts[i], r.Range(1, 60))
	}
	for _, s := range []Stats{
		{},
		{N: 64, Space: bounds, QuerySide: 100, Queriers: 1, Updaters: 0},
		{N: 64, Space: bounds, MeanSide: 30, QuerySide: 100, Queriers: 0, Updaters: 1},
	} {
		pc := m.choosePoint(s)
		idx := pc.NewPointIndex(p)
		idx.Build(pts)
		idx.Query(geom.Square(pts[0], 50), func(uint32) {})
		idx.Update(0, pts[0], geom.Pt(1, 1))

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
	for _, f := range append(append([]Family{}, pointFamilies...), boxFamilies...) {
		if a, b := m.TickNs(f, still, 64), m.TickNs(f, churn, 64); a != b {
			t.Errorf("%s: TickNs %.0f with nobody moving, %.0f with everyone moving", f, a, b)
		}
	}
	if a, b := m.choosePoint(still), m.choosePoint(churn); a.String() != b.String() {
		t.Errorf("stop-the-world pick moved with the update mix: %s still, %s churning", a, b)
	}
}

func TestChoiceExplain(t *testing.T) {
	c := ChooseBox(Stats{N: 1000, Space: geom.R(0, 0, 1000, 1000), MeanSide: 20, QuerySide: 50})
	out := c.Explain()
	for _, want := range []string{"sampled:", "predicted:", "picked:", c.String()} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain() missing %q:\n%s", want, out)
		}
	}
}

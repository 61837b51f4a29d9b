package tune

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
)

func TestSampleBoxesExtentStats(t *testing.T) {
	bounds := geom.R(0, 0, 1000, 1000)
	// 100 squares of side 10 and one of side 200: mean pools both axes.
	rects := make([]geom.Rect, 0, 101)
	for i := 0; i < 100; i++ {
		c := geom.Pt(float32(i)*9+5, float32(i)*9+5)
		rects = append(rects, geom.Square(c, 10))
	}
	rects = append(rects, geom.Square(geom.Pt(500, 500), 200))
	s := SampleBoxes(rects, bounds, core.WorkloadHints{QuerySize: 50, Queriers: 0.25, Updaters: 0.75})
	wantMean := float32((100*2*10 + 2*200) / 202.0)
	if math.Abs(float64(s.MeanSide-wantMean)) > 0.5 {
		t.Errorf("MeanSide = %g, want ~%g", s.MeanSide, wantMean)
	}
	if s.P95Side != 10 {
		t.Errorf("P95Side = %g, want 10 (the outlier is past the 95th percentile)", s.P95Side)
	}
	if s.N != 101 || s.Sampled != 101 {
		t.Errorf("N/Sampled = %d/%d, want 101/101", s.N, s.Sampled)
	}
	if s.QuerySide != 50 || s.Queriers != 0.25 || s.Updaters != 0.75 {
		t.Errorf("hints not carried: %+v", s)
	}
}

func TestSampleEmptySanitizes(t *testing.T) {
	s := SamplePoints(nil, geom.Rect{}, core.WorkloadHints{})
	if s.N != 0 {
		t.Errorf("N = %d", s.N)
	}
	if !(s.QuerySide > 0) {
		t.Errorf("QuerySide = %g, want positive default", s.QuerySide)
	}
	if s.Skew < 1 {
		t.Errorf("Skew = %g, want >= 1", s.Skew)
	}
	if s.Queriers != 0.5 || s.Updaters != 0.5 {
		t.Errorf("mix defaults wrong: %+v", s)
	}
}

func TestSampleSkewSeparatesUniformFromClustered(t *testing.T) {
	bounds := geom.R(0, 0, 1000, 1000)
	uniform := make([]geom.Rect, 1024)
	clustered := make([]geom.Rect, 1024)
	for i := range uniform {
		// Deterministic low-discrepancy fill.
		uniform[i] = geom.Square(geom.Pt(float32((i*37)%1000), float32((i*61)%1000)), 4)
		clustered[i] = geom.Square(geom.Pt(float32(i%10), float32((i/10)%10)), 4)
	}
	su := SampleBoxes(uniform, bounds, core.WorkloadHints{})
	sc := SampleBoxes(clustered, bounds, core.WorkloadHints{})
	if !(sc.Skew > 10*su.Skew) {
		t.Errorf("skew does not separate: uniform %g, clustered %g", su.Skew, sc.Skew)
	}
	if su.Skew > 1.5 {
		t.Errorf("uniform skew = %g, want ~1", su.Skew)
	}
}

func TestSampleCapsWork(t *testing.T) {
	rects := make([]geom.Rect, 100_001)
	s := SampleBoxes(rects, geom.R(0, 0, 10, 10), core.WorkloadHints{})
	if s.Sampled > sampleCap || s.Sampled < sampleCap/2 {
		t.Errorf("sampled %d of %d, cap is %d", s.Sampled, len(rects), sampleCap)
	}
	if s.N != len(rects) {
		t.Errorf("N = %d", s.N)
	}
}

func TestSampleBoxesAllOutsideSpace(t *testing.T) {
	bounds := geom.R(0, 0, 100, 100)
	rects := []geom.Rect{
		geom.Square(geom.Pt(-5000, -5000), 10),
		geom.Square(geom.Pt(9000, 9000), 10),
		{MinX: float32(math.NaN()), MinY: 0, MaxX: float32(math.NaN()), MaxY: 1},
		{MinX: 50, MinY: 50, MaxX: 10, MaxY: 10}, // inverted
	}
	s := SampleBoxes(rects, bounds, core.WorkloadHints{})
	if math.IsNaN(float64(s.MeanSide)) || math.IsNaN(float64(s.P95Side)) {
		t.Fatalf("NaN leaked into stats: %+v", s)
	}
	if s.MeanSide < 0 || s.MeanSide > bounds.Width() {
		t.Errorf("MeanSide = %g out of range", s.MeanSide)
	}
}

func TestCalibrateIsCachedAndPositive(t *testing.T) {
	m1 := Calibrate()
	m2 := Calibrate()
	if m1 != m2 {
		t.Fatal("Calibrate not cached")
	}
	for _, f := range boxFamilies {
		bo, bc, qc, qx, qe := m1.Coeffs(f)
		for _, v := range []float64{bo, bc, qc, qx, qe} {
			if !(v >= coeffFloorNs) || math.IsInf(v, 0) || math.IsNaN(v) {
				t.Errorf("%s: coefficient %g below floor or non-finite", f, v)
			}
		}
	}
}

func TestShapeFunctions(t *testing.T) {
	s := Stats{N: 10000, Space: geom.R(0, 0, 1000, 1000), MeanSide: 50, QuerySide: 100, Skew: 1}
	if r := replication(s, 10); math.Abs(r-2.25) > 1e-6 {
		t.Errorf("replication(cell=100, side=50) = %g, want 2.25", r)
	}
	// Finer grids replicate more.
	if !(replication(s, 100) > replication(s, 10)) {
		t.Error("replication not increasing in cps")
	}
	cells, tested, emitted := gridQueryShape(s, 10, 1)
	if math.Abs(cells-4) > 1e-6 { // (100/100 + 1)^2
		t.Errorf("cells = %g, want 4", cells)
	}
	if math.Abs(tested+emitted-10000*0.04) > 1e-3 { // N * ((100+100)/1000)^2
		t.Errorf("cands = %g, want 400", tested+emitted)
	}
	if emitted != 0 { // q/cell == 1: no fully-contained cells
		t.Errorf("emitted = %g, want 0 at q == cell", emitted)
	}
	// A window spanning many fine cells is mostly emitted candidates.
	_, tFine, eFine := gridQueryShape(Stats{N: 10000, Space: geom.R(0, 0, 1000, 1000), QuerySide: 500, Skew: 1}, 100, 1)
	if !(eFine > 5*tFine) {
		t.Errorf("coarse window over fine grid: tested %g, emitted %g — emitted should dominate", tFine, eFine)
	}
	if n := rtreeNodes(4096, 4); n != 1024+256+64+16+4+1 {
		t.Errorf("rtreeNodes(4096, 4) = %g, want 1365", n)
	}
	nodes, leafCands := rtreeQueryShape(s, 16)
	if nodes < 1 || leafCands < 1 || leafCands > float64(s.N) {
		t.Errorf("rtree query shape out of range: nodes=%g cands=%g", nodes, leafCands)
	}
}

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
	if s.N != 101 {
		t.Errorf("N = %d, want 101", s.N)
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
	if s.Queriers != 0.5 || s.Updaters != 0.5 {
		t.Errorf("mix defaults wrong: %+v", s)
	}
}

// TestSampleCapsWork: the sampler reads one rect in every stride of
// ceil(n/sampleCap), at most sampleCap of them. Every other rect is as
// wide as the space, so a sampler that read one would move the mean.
func TestSampleCapsWork(t *testing.T) {
	rects := make([]geom.Rect, 100_001)
	stride := (len(rects) + sampleCap - 1) / sampleCap
	if visited := (len(rects) + stride - 1) / stride; visited > sampleCap || visited < sampleCap/2 {
		t.Fatalf("a stride of %d visits %d of %d, cap is %d", stride, visited, len(rects), sampleCap)
	}
	for i := range rects {
		if i%stride != 0 {
			rects[i] = geom.R(0, 0, 10, 10)
		}
	}
	s := SampleBoxes(rects, geom.R(0, 0, 10, 10), core.WorkloadHints{})
	if s.MeanSide != 0 {
		t.Errorf("MeanSide = %g, want 0: the sampler read past its stride", s.MeanSide)
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
	if math.IsNaN(float64(s.MeanSide)) {
		t.Fatalf("NaN leaked into stats: %+v", s)
	}
	if s.MeanSide < 0 || s.MeanSide > bounds.Width() {
		t.Errorf("MeanSide = %g out of range", s.MeanSide)
	}
}

package main

import (
	"math"
	"testing"
)

func TestQuantileInterpolatesOrderStatistics(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {0.10, 13}, {1.0 / 3, 20}, {-1, 10}, {2, 40},
	} {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("quantile sorted its argument in place")
	}
	if got := quantile([]float64{7}, 0.10); got != 7 {
		t.Errorf("single sample: got %v, want 7", got)
	}
}

func TestEmptySamplesAreNotNumbers(t *testing.T) {
	for name, v := range map[string]float64{
		"quantile": quantile(nil, 0.5), "median": median(nil), "mad": mad(nil), "min": minOf(nil),
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s of an empty sample = %v, want NaN", name, v)
		}
	}
}

func TestMADIgnoresOneOutlier(t *testing.T) {
	xs := []float64{10, 11, 9, 10, 500}
	if got := median(xs); got != 10 {
		t.Errorf("median = %v, want 10", got)
	}
	if got := mad(xs); got != 1 {
		t.Errorf("mad = %v, want 1 (|9-10|, |10-10|, |10-10|, |11-10|, |500-10|)", got)
	}
	var s sample
	for _, x := range xs {
		s.add(x)
	}
	if s.n() != 5 || s.min() != 9 || s.med() != 10 || s.mad() != 1 {
		t.Errorf("sample: n %d min %v med %v mad %v", s.n(), s.min(), s.med(), s.mad())
	}
}

func TestPoolWeighsRoundsByTheirTicks(t *testing.T) {
	fast := []float64{8, 8, 8, 8, 8, 8, 8, 8, 8}
	slow := []float64{13}
	pooled := pool([][]float64{fast, nil, slow})
	if len(pooled) != 10 {
		t.Fatalf("pooled %d samples, want 10", len(pooled))
	}
	// One slow tick in ten leaves the lower decile on the fast mode; a
	// per-round vote would have put it halfway.
	if got := quantile(pooled, 0.10); got != 8 {
		t.Errorf("p10 of the pool = %v, want 8", got)
	}
}

func TestPct(t *testing.T) {
	if got := pct(11, 10); math.Abs(got-10) > 1e-9 {
		t.Errorf("pct(11, 10) = %v, want 10", got)
	}
	if got := pct(9, 10); math.Abs(got+10) > 1e-9 {
		t.Errorf("pct(9, 10) = %v, want -10", got)
	}
	if !math.IsNaN(pct(1, 0)) {
		t.Error("pct over a zero base must be NaN")
	}
}

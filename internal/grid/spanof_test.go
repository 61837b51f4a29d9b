package grid

import (
	"testing"

	"repro/internal/geom"
)

// testMapper builds the mapping of a cps x cps box grid over bounds,
// exactly as the box grid constructors do.
func testMapper(cps int, bounds geom.Rect) mapper { return newMapper(bounds, cps, cps) }

// TestSpanOfClampsOutsideSpace is the boundary regression test for the
// uint16 span encoding: rects entirely outside the space on each side —
// including coordinates so large that the float -> int conversion in the
// cell mapping would overflow — must clamp into the outermost cells with
// x0 <= x1 and y0 <= y1. An inverted span would make Build index the
// object into zero cells, the fate only of an MBR inverted itself.
func TestSpanOfClampsOutsideSpace(t *testing.T) {
	bounds := geom.R(0, 0, 1000, 1000)
	const cps = 16
	m := testMapper(cps, bounds)
	const huge = 1e30 // far beyond the space AND beyond int range after scaling
	cases := []struct {
		name string
		r    geom.Rect
	}{
		{"entirely left", geom.R(-500, 100, -100, 200)},
		{"entirely right", geom.R(1100, 100, 1500, 200)},
		{"entirely below", geom.R(100, -500, 200, -100)},
		{"entirely above", geom.R(100, 1100, 200, 1500)},
		{"far left overflow", geom.R(-huge, 100, -huge/2, 200)},
		{"far right overflow", geom.R(huge/2, 100, huge, 200)},
		{"far below overflow", geom.R(100, -huge, 200, -huge/2)},
		{"far above overflow", geom.R(100, huge/2, 200, huge)},
		{"in-range min, overflowing max", geom.R(500, 500, huge, huge)},
		{"overflowing min, in-range max", geom.R(-huge, -huge, 500, 500)},
		{"spanning overflow on both ends", geom.R(-huge, -huge, huge, huge)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := m.spanOf(tc.r)
			if s.x0 > s.x1 || s.y0 > s.y1 {
				t.Fatalf("spanOf(%v) = %+v: inverted span", tc.r, s)
			}
			if int(s.x1) >= cps || int(s.y1) >= cps {
				t.Fatalf("spanOf(%v) = %+v: cell beyond cps=%d", tc.r, s, cps)
			}
		})
	}

	// The clamped spans must still land in the outermost cells on the
	// correct side, like the point mapping does.
	if s := m.spanOf(geom.R(-500, 100, -100, 200)); s.x0 != 0 || s.x1 != 0 {
		t.Fatalf("entirely-left rect clamped to columns [%d, %d], want [0, 0]", s.x0, s.x1)
	}
	if s := m.spanOf(geom.R(1100, 100, 1500, 200)); s.x0 != cps-1 || s.x1 != cps-1 {
		t.Fatalf("entirely-right rect clamped to columns [%d, %d], want [%d, %d]",
			s.x0, s.x1, cps-1, cps-1)
	}
	if s := m.spanOf(geom.R(huge/2, 100, huge, 200)); s.x0 != cps-1 || s.x1 != cps-1 {
		t.Fatalf("far-right rect clamped to columns [%d, %d], want [%d, %d]",
			s.x0, s.x1, cps-1, cps-1)
	}
}

// TestSpanOfMaxCPSRoundTrips pins the uint16 encoding at its limit:
// at cps == maxBoxCPS exactly, the outermost cell index 65535 must
// survive the round trip through cellSpan, and the constructors must
// accept the limit while rejecting one past it.
func TestSpanOfMaxCPSRoundTrips(t *testing.T) {
	bounds := geom.R(0, 0, 65536, 65536) // cell size exactly 1
	m := testMapper(maxBoxCPS, bounds)
	corner := geom.R(65535.5, 65535.5, 70000, 70000)
	s := m.spanOf(corner)
	want := uint16(maxBoxCPS - 1) // 65535
	if s.x0 != want || s.x1 != want || s.y0 != want || s.y1 != want {
		t.Fatalf("corner span = %+v, want all %d", s, want)
	}
	full := m.spanOf(bounds)
	if full.x0 != 0 || full.y0 != 0 || full.x1 != want || full.y1 != want {
		t.Fatalf("whole-space span = %+v, want [0, %d] on both axes", full, want)
	}

	if err := validateBoxGridParams(maxBoxCPS, bounds); err != nil {
		t.Fatalf("cps == maxBoxCPS rejected: %v", err)
	}
	if err := validateBoxGridParams(maxBoxCPS+1, bounds); err == nil {
		t.Fatal("cps == maxBoxCPS+1 accepted")
	}
}

// TestBoxGridSurvivesOutsideSpaceObjects drives the full index paths
// (build, query, rebuild) with objects far outside the space, the
// end-to-end form of the clamp regression.
func TestBoxGridSurvivesOutsideSpaceObjects(t *testing.T) {
	bounds := geom.R(0, 0, 1000, 1000)
	const huge = 1e30
	rects := []geom.Rect{
		geom.R(100, 100, 200, 200),
		geom.R(-huge, 450, -huge/2, 550), // far left
		geom.R(huge/2, 450, huge, 550),   // far right
		geom.R(450, -huge, 550, -huge/2), // far below
		geom.R(450, huge/2, 550, huge),   // far above
		geom.R(-huge, -huge, huge, huge), // covers everything
		geom.R(900, 900, huge, huge),     // in-range min, overflowing max
		geom.R(-huge, -huge, 50, 50),     // overflowing min, in-range max
	}
	type boxUnderTest interface {
		boxQuerier
		Build([]geom.Rect)
		Len() int
	}
	for _, mk := range []func() boxUnderTest{
		func() boxUnderTest { return MustNewBoxGrid(16, bounds, len(rects)) },
		func() boxUnderTest { return MustNewBoxGrid2L(16, bounds, len(rects)) },
	} {
		bg := mk()
		bg.Build(rects)
		if bg.Len() != len(rects) {
			t.Fatalf("Len = %d, want %d", bg.Len(), len(rects))
		}
		queries := []geom.Rect{
			bounds,
			geom.R(400, 400, 600, 600),
			geom.R(-huge, -huge, huge, huge),
			geom.R(0, 0, 1, 1),
		}
		for _, q := range queries {
			got := collectQuery(t, bg, q)
			want := bruteBoxQuery(rects, q)
			if !equalIDs(got, want) {
				t.Fatalf("query %v: got %v, want %v", q, got, want)
			}
		}
		// Move an outside object back in and an inside one far out, and
		// rebuild: the clamped spans must place every replica again.
		moved := append([]geom.Rect(nil), rects...)
		moved[1] = geom.R(300, 300, 350, 350)
		moved[0] = geom.R(huge/2, -huge, huge, -huge/2)
		bg.Build(moved)
		for _, q := range queries {
			got := collectQuery(t, bg, q)
			want := bruteBoxQuery(moved, q)
			if !equalIDs(got, want) {
				t.Fatalf("post-rebuild query %v: got %v, want %v", q, got, want)
			}
		}
	}
}

package grid

import (
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

// Tests for the inlined-coordinate CSR layout: arena-local filtering,
// bit-identical parallel builds (IDs and coordinates), coordinate
// coherence across ticks of moves and rebuilds, and the footprint of the
// coordinate arena.

func TestCSRXYFiltersWithoutBaseTable(t *testing.T) {
	// Corrupt the base table after the build: a layout that dereferences
	// it would lose entries; the xy layout must not.
	pts := []geom.Point{geom.Pt(10, 10), geom.Pt(20, 20), geom.Pt(80, 80)}
	g := MustNew(Config{Layout: LayoutCSRXY, Scan: ScanRange, BS: 1, CPS: 4}, geom.R(0, 0, 100, 100), len(pts))
	g.Build(pts)
	pts[0] = geom.Pt(-999, -999)
	got := collect(g, geom.R(5, 5, 25, 25))
	if len(got) != 2 || !got[0] || !got[1] {
		t.Fatalf("xy filtering lost entries: %v", got)
	}
}

func TestCSRXYMatchesCSR(t *testing.T) {
	r := xrand.New(41)
	pts := randomPoints(r, 8000, testBounds)
	plain := MustNew(CSR(), testBounds, len(pts))
	plain.Build(pts)
	xy := MustNew(CSRXY(), testBounds, len(pts))
	xy.Build(pts)
	queries := make([]geom.Rect, 80)
	for i := range queries {
		c := geom.Pt(r.Range(-50, 1050), r.Range(-50, 1050))
		queries[i] = geom.Square(c, r.Range(1, 300))
	}
	for qi, q := range queries {
		sameSet(t, collect(xy, q), collect(plain, q), "csr-xy query "+itoa(qi))
	}
}

func TestCSRXYParallelBuildBitIdentical(t *testing.T) { testCSRBuildParallel(t, CSRXY(), 43) }

// TestCSRXYUpdateKeepsCoordinatesCoherent drives ticks the way the
// drivers do — 1000 moves through Update and the base table, then the
// rebuild — and verifies the coordinate arena tracks them: until the
// rebuild each slot holds the coordinates the build saw for the ID it
// holds, after it the live position, and the structure answers exactly.
func TestCSRXYUpdateKeepsCoordinatesCoherent(t *testing.T) {
	r := xrand.New(47)
	pts := randomPoints(r, 2000, testBounds)
	g := MustNew(CSRXY(), testBounds, len(pts))
	g.Build(pts)
	cs := csrOf(t, g)
	coherent := func(tick int, when string, with []geom.Point) {
		t.Helper()
		for k, id := range cs.ids {
			if x, y := cs.xy[2*k], cs.xy[2*k+1]; x != with[id].X || y != with[id].Y {
				t.Fatalf("tick %d, %s: slot %d: entry %d coords (%g, %g), want (%g, %g)",
					tick, when, k, id, x, y, with[id].X, with[id].Y)
			}
		}
	}

	for tick := 0; tick < 3; tick++ {
		built := slices.Clone(pts)
		for i := 0; i < 1000; i++ {
			id := uint32(r.Intn(len(pts)))
			to := geom.Pt(r.Range(0, 1000), r.Range(0, 1000))
			g.Update(id, pts[id], to)
			pts[id] = to
		}
		coherent(tick, "before the rebuild", built)
		g.Build(pts)
		coherent(tick, "after the rebuild", pts)
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		for i := 0; i < 30; i++ {
			q := geom.Square(geom.Pt(r.Range(0, 1000), r.Range(0, 1000)), r.Range(1, 200))
			sameSet(t, collect(g, q), bruteQuery(pts, q), "post-update query")
		}
	}
}

func TestCSRXYMemoryAccountsForCoordinateArena(t *testing.T) {
	r := xrand.New(53)
	pts := randomPoints(r, 4000, testBounds)
	plain := MustNew(CSR(), testBounds, len(pts))
	plain.Build(pts)
	xy := MustNew(CSRXY(), testBounds, len(pts))
	xy.Build(pts)
	// The xy variant must report at least the 8 extra bytes per entry of
	// its coordinate arena on top of the plain layout without what the
	// plain layout keeps in its place, the quanta, 4 bytes a slot.
	ids := plain.MemoryBytes() - int64(4*cap(plain.csr.slots))
	if diff := xy.MemoryBytes() - ids; diff < int64(8*len(pts)) {
		t.Fatalf("xy footprint only %d bytes above plain; want >= %d", diff, 8*len(pts))
	}
}

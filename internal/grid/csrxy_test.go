package grid

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

// Tests for the inlined-coordinate CSR layout: arena-local filtering,
// bit-identical parallel builds (IDs and coordinates), and coordinate
// coherence through the slack/overflow update mechanics.

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

// TestCSRXYUpdateKeepsCoordinatesCoherent drives the slack/overflow
// machinery (swap-deletes, overflow refill) and verifies the coordinate
// arena tracks every move: each dense slot's coordinates must match the
// live position of the ID it holds.
func TestCSRXYUpdateKeepsCoordinatesCoherent(t *testing.T) {
	r := xrand.New(47)
	pts := randomPoints(r, 2000, testBounds)
	g := MustNew(CSRXY(), testBounds, len(pts))
	g.Build(pts)
	cs := csrOf(t, g)

	for i := 0; i < 3000; i++ {
		id := uint32(r.Intn(len(pts)))
		to := geom.Pt(r.Range(0, 1000), r.Range(0, 1000))
		g.Update(id, pts[id], to)
		pts[id] = to
	}

	for c := range cs.counts {
		base, _ := cs.segment(c)
		for j, n := uint32(0), cs.counts[c]; j < n; j++ {
			id := cs.ids[base+j]
			x, y := cs.xy[2*(base+j)], cs.xy[2*(base+j)+1]
			if x != pts[id].X || y != pts[id].Y {
				t.Fatalf("cell %d slot %d: entry %d coords (%g, %g), live (%g, %g)",
					c, j, id, x, y, pts[id].X, pts[id].Y)
			}
		}
		oxy := cs.overflowXY[c]
		for j, id := range cs.overflow[c] {
			if oxy[2*j] != pts[id].X || oxy[2*j+1] != pts[id].Y {
				t.Fatalf("cell %d overflow %d: entry %d coords stale", c, j, id)
			}
		}
	}

	// And the structure still answers queries exactly.
	for i := 0; i < 30; i++ {
		q := geom.Square(geom.Pt(r.Range(0, 1000), r.Range(0, 1000)), r.Range(1, 200))
		sameSet(t, collect(g, q), bruteQuery(pts, q), "post-update query")
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
	// its coordinate arena on top of the plain layout.
	if diff := xy.MemoryBytes() - plain.MemoryBytes(); diff < int64(8*len(pts)) {
		t.Fatalf("xy footprint only %d bytes above plain; want >= %d", diff, 8*len(pts))
	}
}

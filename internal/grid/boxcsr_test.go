package grid

import (
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

// randomBoxes generates n rects in bounds with sides up to maxSide,
// including degenerate (point) rects when minSide is 0.
func randomBoxes(r *xrand.Rand, n int, bounds geom.Rect, minSide, maxSide float32) []geom.Rect {
	out := make([]geom.Rect, n)
	for i := range out {
		cx := r.Range(bounds.MinX, bounds.MaxX)
		cy := r.Range(bounds.MinY, bounds.MaxY)
		hw := r.Range(minSide, maxSide) / 2
		hh := r.Range(minSide, maxSide) / 2
		out[i] = geom.Rect{MinX: cx - hw, MinY: cy - hh, MaxX: cx + hw, MaxY: cy + hh}
	}
	return out
}

// bruteBoxQuery is the oracle: IDs of all rects intersecting r, sorted.
func bruteBoxQuery(rects []geom.Rect, r geom.Rect) []uint32 {
	var out []uint32
	for i := range rects {
		if rects[i].Intersects(r) {
			out = append(out, uint32(i))
		}
	}
	return out
}

// boxQuerier is the slice of the BoxIndex contract the query tests
// exercise, satisfied by both BoxGrid and BoxGrid2L.
type boxQuerier interface {
	Query(r geom.Rect, emit func(id uint32))
}

// collectQuery runs one box grid query, failing the test on any
// duplicate emission, and returns the sorted IDs.
func collectQuery(t *testing.T, bg boxQuerier, r geom.Rect) []uint32 {
	t.Helper()
	seen := make(map[uint32]int)
	var out []uint32
	bg.Query(r, func(id uint32) {
		seen[id]++
		out = append(out, id)
	})
	for id, n := range seen {
		if n > 1 {
			t.Fatalf("query %v emitted id %d %d times (duplicate-free contract)", r, id, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func testQueries(r *xrand.Rand, n int, bounds geom.Rect) []geom.Rect {
	queries := make([]geom.Rect, 0, n+4)
	for i := 0; i < n; i++ {
		cx := r.Range(bounds.MinX, bounds.MaxX)
		cy := r.Range(bounds.MinY, bounds.MaxY)
		side := r.Range(1, bounds.Width()/3)
		queries = append(queries, geom.Square(geom.Pt(cx, cy), side))
	}
	// Edge cases: the whole space, a query poking outside it, a
	// degenerate point query, and a single-cell sliver.
	queries = append(queries,
		bounds,
		bounds.Expand(bounds.Width()/4),
		geom.Pt((bounds.MinX+bounds.MaxX)/2, (bounds.MinY+bounds.MaxY)/2).Rect(),
		geom.R(bounds.MinX+1, bounds.MinY+1, bounds.MinX+2, bounds.MinY+2),
	)
	return queries
}

func TestBoxGridMatchesBruteForce(t *testing.T) {
	bounds := geom.R(0, 0, 1000, 1000)
	rng := xrand.New(7)
	for _, tc := range []struct {
		name             string
		n                int
		minSide, maxSide float32
		cps              int
	}{
		{"small boxes", 500, 0, 40, 16},
		{"mixed sizes", 400, 0, 300, 16},
		{"huge boxes", 60, 200, 900, 8},
		{"degenerate points", 300, 0, 0, 16},
		{"fine grid", 400, 0, 120, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rects := randomBoxes(rng, tc.n, bounds, tc.minSide, tc.maxSide)
			bg := MustNewBoxGrid(tc.cps, bounds, tc.n)
			bg.Build(rects)
			if bg.Len() != tc.n {
				t.Fatalf("Len = %d, want %d", bg.Len(), tc.n)
			}
			for _, q := range testQueries(rng, 50, bounds) {
				got := collectQuery(t, bg, q)
				want := bruteBoxQuery(rects, q)
				if !equalIDs(got, want) {
					t.Fatalf("query %v: got %d ids, want %d", q, len(got), len(want))
				}
			}
		})
	}
}

// TestBoxGridDuplicateFreeSpanningRects is the regression test for the
// reference-point dedup: rects spanning many cells (up to the whole
// grid) queried by rects that also span many cells must be emitted
// exactly once.
func TestBoxGridDuplicateFreeSpanningRects(t *testing.T) {
	bounds := geom.R(0, 0, 1024, 1024)
	bg := MustNewBoxGrid(32, bounds, 8) // 32x32 cells of side 32
	rects := []geom.Rect{
		geom.R(0, 0, 1024, 1024),       // spans all 1024 cells
		geom.R(100, 100, 900, 900),     // spans ~26x26 cells
		geom.R(0, 500, 1024, 510),      // full-width sliver: 32 cells in a row
		geom.R(500, 0, 510, 1024),      // full-height sliver
		geom.R(15, 15, 17, 17),         // single cell
		geom.R(31.5, 31.5, 32.5, 32.5), // straddles a 2x2 cell corner
		geom.R(0, 0, 32, 32),           // exactly one cell, touching edges
		geom.R(700, 700, 701, 701),     // small, deep inside the big rects
	}
	bg.Build(rects)
	if f := bg.ReplicationFactor(); f < 100 {
		t.Fatalf("replication factor %.1f implausibly low for spanning rects", f)
	}
	queries := []geom.Rect{
		bounds,                         // visits every cell
		geom.R(200, 200, 800, 800),     // visits ~19x19 cells
		geom.R(0, 0, 1, 1),             // one corner cell
		geom.R(505, 505, 506, 506),     // center point-ish
		geom.R(-100, -100, 2000, 2000), // poking far outside
	}
	for _, q := range queries {
		got := collectQuery(t, bg, q) // fails on any duplicate
		want := bruteBoxQuery(rects, q)
		if !equalIDs(got, want) {
			t.Fatalf("query %v: got %v, want %v", q, got, want)
		}
	}
}

// TestBoxGridParallelBuildMatchesSequential holds Build to a clean audit
// and brute force's answers on every buildInputs population. The name is
// older than the grid's one build: a sharded build was held to Build's
// arrays here.
func TestBoxGridParallelBuildMatchesSequential(t *testing.T) {
	bounds := geom.R(0, 0, 2000, 2000)
	rng := xrand.New(11)
	for _, in := range buildInputs(6000) {
		rects := in.boxes(rng, bounds)
		queries := testQueries(rng, 20, bounds)
		bg := MustNewBoxGrid(32, bounds, len(rects))
		bg.Build(rects)
		if err := bg.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		for _, q := range queries {
			if got, want := collectQuery(t, bg, q), bruteBoxQuery(rects, q); !equalIDs(got, want) {
				t.Fatalf("%s query %v: %d ids, want %d", in.name, q, len(got), len(want))
			}
		}
	}
}

// moveBoxes returns a moved copy of rects: roughly half the objects
// translated by random offsets (clipping-free: bounds are generous).
func moveBoxes(r *xrand.Rand, rects []geom.Rect, maxShift float32) []geom.Rect {
	out := append([]geom.Rect(nil), rects...)
	for i := range out {
		if r.Bool(0.5) {
			continue
		}
		dx := r.Range(-maxShift, maxShift)
		dy := r.Range(-maxShift, maxShift)
		out[i] = geom.Rect{
			MinX: out[i].MinX + dx, MinY: out[i].MinY + dy,
			MaxX: out[i].MaxX + dx, MaxY: out[i].MaxY + dy,
		}
	}
	return out
}

func TestBoxGridRejectsBadParameters(t *testing.T) {
	bounds := geom.R(0, 0, 100, 100)
	if _, err := NewBoxGrid(0, bounds, 10); err == nil {
		t.Error("cps=0 must be rejected")
	}
	if _, err := NewBoxGrid(16, geom.R(0, 0, 100, 50), 10); err == nil {
		t.Error("non-square space must be rejected")
	}
	if _, err := NewBoxGrid(16, geom.Rect{MinX: 1, MinY: 0, MaxX: 0, MaxY: 1}, 10); err == nil {
		t.Error("inverted bounds must be rejected")
	}
	if _, err := NewBoxGrid(1<<17, bounds, 10); err == nil {
		t.Error("cps beyond the uint16 span encoding must be rejected")
	}
}

package grid

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

// Tests for the two-layer class-partitioned rectangle grid: brute-force
// agreement, the class-partition property (A∪B∪C∪D covers every cell
// span exactly, pairwise disjoint), bit-identical parallel builds, and
// class maintenance under in-place updates.

func TestBoxGrid2LMatchesBruteForce(t *testing.T) {
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
			bg := MustNewBoxGrid2L(tc.cps, bounds, tc.n)
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

// TestBoxGrid2LAgreesWithBoxGrid pins the classed grid to the PR 2
// reference-point grid on identical inputs, including spanning rects
// queried by spanning queries.
func TestBoxGrid2LAgreesWithBoxGrid(t *testing.T) {
	bounds := geom.R(0, 0, 1024, 1024)
	rng := xrand.New(13)
	rects := randomBoxes(rng, 600, bounds, 0, 400)
	rects = append(rects,
		geom.R(0, 0, 1024, 1024),
		geom.R(0, 500, 1024, 510),
		geom.R(500, 0, 510, 1024),
	)
	ref := MustNewBoxGrid(32, bounds, len(rects))
	ref.Build(rects)
	cl := MustNewBoxGrid2L(32, bounds, len(rects))
	cl.Build(rects)
	for _, q := range testQueries(rng, 60, bounds) {
		got := collectQuery(t, cl, q)
		want := collectQuery(t, ref, q)
		if !equalIDs(got, want) {
			t.Fatalf("query %v: classed and reference grids disagree (%d vs %d ids)",
				q, len(got), len(want))
		}
	}
}

// checkClassPartition verifies the structural invariant of the second
// layer: per cell, the four class runs are contiguous, ordered, within
// the segment, and every element sits in the run matching its computed
// class; per object, the (cell, class) replicas partition the cached
// cell span exactly — one class-A replica at the reference cell, class B
// exactly along the rest of the first span row, class C along the rest
// of the first span column, class D in the interior, nothing else and
// nothing missing.
func checkClassPartition(t *testing.T, bg *BoxGrid2L) {
	t.Helper()
	type slot struct{ cx, cy, class int }
	placed := make(map[uint32][]slot)
	for c := 0; c < bg.cells; c++ {
		lo := bg.starts[c]
		if end3 := bg.ends[bg.endIdx(c, 3)]; end3 != bg.starts[c+1] {
			t.Fatalf("cell %d: runs end at %d, the segment at %d", c, end3, bg.starts[c+1])
		}
		cx, cy := c%bg.cps, c/bg.cps
		for j := 0; j < 4; j++ {
			hi := bg.ends[bg.endIdx(c, j)]
			if hi < lo {
				t.Fatalf("cell %d: class run %d inverted [%d, %d)", c, j, lo, hi)
			}
			for p := lo; p < hi; p++ {
				id := bg.ids[p]
				if got := classAt(bg.spans[id], cx, cy); got != j {
					t.Fatalf("cell %d: entry %d stored in class %d, classAt = %d", c, id, j, got)
				}
				if got := bg.rectAt(p); got != bg.rects[id] {
					t.Fatalf("cell %d: entry %d inlined rect %v != snapshot %v", c, id, got, bg.rects[id])
				}
				placed[id] = append(placed[id], slot{cx, cy, j})
			}
			lo = hi
		}
	}
	for id, slots := range placed {
		s := bg.spans[id]
		want := (int(s.x1-s.x0) + 1) * (int(s.y1-s.y0) + 1)
		if len(slots) != want {
			t.Fatalf("entry %d: %d replicas, span %v needs %d", id, len(slots), s, want)
		}
		seen := make(map[[2]int]int, len(slots))
		for _, sl := range slots {
			key := [2]int{sl.cx, sl.cy}
			if _, dup := seen[key]; dup {
				t.Fatalf("entry %d: duplicate replica in cell (%d, %d)", id, sl.cx, sl.cy)
			}
			seen[key] = sl.class
			if sl.cx < int(s.x0) || sl.cx > int(s.x1) || sl.cy < int(s.y0) || sl.cy > int(s.y1) {
				t.Fatalf("entry %d: replica outside span at (%d, %d)", id, sl.cx, sl.cy)
			}
			if got, want := sl.class, classAt(s, sl.cx, sl.cy); got != want {
				t.Fatalf("entry %d at (%d, %d): class %d, want %d", id, sl.cx, sl.cy, got, want)
			}
		}
		// Every cell of the span is covered (with the per-cell class
		// checked above, A∪B∪C∪D == span and the classes are disjoint by
		// cell uniqueness).
		if a, ok := seen[[2]int{int(s.x0), int(s.y0)}]; !ok || a != 0 {
			t.Fatalf("entry %d: reference cell not class A (ok=%v class=%d)", id, ok, a)
		}
	}
	if total, replicas := len(placed), bg.Replicas(); replicas > 0 && total == 0 {
		t.Fatalf("%d replicas but no objects placed", replicas)
	}
}

func TestBoxGrid2LClassPartitionProperty(t *testing.T) {
	bounds := geom.R(0, 0, 1000, 1000)
	rng := xrand.New(29)
	for _, tc := range []struct {
		name             string
		n                int
		minSide, maxSide float32
		cps              int
	}{
		{"small", 700, 0, 60, 16},
		{"mixed", 500, 0, 350, 16},
		{"spanning", 80, 300, 1000, 8},
		{"points", 300, 0, 0, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rects := randomBoxes(rng, tc.n, bounds, tc.minSide, tc.maxSide)
			bg := MustNewBoxGrid2L(tc.cps, bounds, tc.n)
			bg.Build(rects)
			checkClassPartition(t, bg)

			// The partition must hold on a rebuild over moved objects,
			// across spans and within them.
			moved := moveBoxes(rng, rects, 250)
			bg.Build(moved)
			checkClassPartition(t, bg)
			bg.Build(jitterBoxes(rng, moved))
			checkClassPartition(t, bg)
		})
	}
}

// jitterBoxes returns rects with about half of them shifted by up to
// three units per axis.
func jitterBoxes(rng *xrand.Rand, rects []geom.Rect) []geom.Rect {
	moved := append([]geom.Rect(nil), rects...)
	for i, r := range rects {
		if rng.Bool(0.5) {
			continue
		}
		dx, dy := rng.Range(-3, 3), rng.Range(-3, 3)
		moved[i] = geom.Rect{MinX: r.MinX + dx, MinY: r.MinY + dy, MaxX: r.MaxX + dx, MaxY: r.MaxY + dy}
	}
	return moved
}

// TestBoxGrid2LMergedRunsProperty holds the buffered kernel, which tests
// the class runs of a boundary cell together under class A's window,
// against the per-class emit kernel and the brute-force oracle, as exact
// ID lists (a class tested in a cell where it cannot pass the
// reference-cell criterion shows as a duplicate). The inputs are the ones
// where the merged windows differ from the per-class ones: query spans of
// one cell, one row and one column (first and last boundary coincide),
// query and object edges lying exactly on cell edges, and a third of the
// population herded into one corner of the space.
func TestBoxGrid2LMergedRunsProperty(t *testing.T) {
	for _, tc := range []struct {
		name   string
		bounds geom.Rect
		cps    int
	}{
		{"exact cell width", geom.R(0, 0, 1024, 1024), 16},
		{"inexact cell width, offset origin", geom.R(110, 110, 1110, 1110), 13},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := xrand.New(41)
			bounds, cps := tc.bounds, tc.cps
			cell := bounds.Width() / float32(cps)
			// snap moves a coordinate onto the nearest cell edge.
			snap := func(v, origin float32) float32 {
				return origin + cell*float32(int((v-origin)/cell+0.5))
			}
			snapSome := func(r geom.Rect) geom.Rect {
				for _, e := range []struct {
					v      *float32
					origin float32
				}{{&r.MinX, bounds.MinX}, {&r.MinY, bounds.MinY}, {&r.MaxX, bounds.MinX}, {&r.MaxY, bounds.MinY}} {
					if rng.Bool(0.5) {
						*e.v = snap(*e.v, e.origin)
					}
				}
				r.MaxX, r.MaxY = max(r.MinX, r.MaxX), max(r.MinY, r.MaxY)
				return r
			}

			rects := randomBoxes(rng, 900, bounds, 0, 3*cell)
			for i := range rects {
				if i%3 == 0 {
					rects[i] = snapSome(rects[i])
				}
			}
			for i := 0; i < len(rects); i += 3 {
				c := geom.Pt(bounds.MinX+rng.Range(0, 3*cell), bounds.MinY+rng.Range(0, 3*cell))
				rects[i] = geom.Rect{MinX: c.X, MinY: c.Y, MaxX: c.X + rects[i].Width(), MaxY: c.Y + rects[i].Height()}
			}
			rects = jitterBoxes(rng, rects)
			bg := MustNewBoxGrid2L(cps, bounds, len(rects))
			bg.Build(rects)
			checkClassPartition(t, bg)

			// Query shapes: anywhere; inside one cell; one row (wide and
			// flat); one column (narrow and tall); each also with edges
			// snapped onto cell edges.
			var queries []geom.Rect
			for i := 0; i < 400; i++ {
				c := geom.Pt(rng.Range(bounds.MinX, bounds.MaxX), rng.Range(bounds.MinY, bounds.MaxY))
				w, h := rng.Range(0, 4*cell), rng.Range(0, 4*cell)
				switch i % 4 {
				case 1:
					w, h = rng.Range(0, cell/2), rng.Range(0, cell/2)
				case 2:
					h = rng.Range(0, cell/2)
				case 3:
					w = rng.Range(0, cell/2)
				}
				q := geom.Rect{MinX: c.X - w/2, MinY: c.Y - h/2, MaxX: c.X + w/2, MaxY: c.Y + h/2}
				if i%8 >= 4 {
					q = snapSome(q)
				}
				queries = append(queries, q)
			}
			queries = append(queries, testQueries(rng, 20, bounds)...)

			var oneCell, oneRow, oneCol int
			var buf []uint32
			for _, q := range queries {
				s := bg.mapper.spanOf(q)
				switch {
				case s.x0 == s.x1 && s.y0 == s.y1:
					oneCell++
				case s.y0 == s.y1:
					oneRow++
				case s.x0 == s.x1:
					oneCol++
				}
				want := bruteBoxQuery(rects, q)
				if got := collectQuery(t, bg, q); !equalIDs(got, want) {
					t.Fatalf("Query %v (span %v): %d ids, oracle %d", q, s, len(got), len(want))
				}
				buf = bg.QueryAppend(q, buf[:0])
				sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
				if !equalIDs(buf, want) {
					t.Fatalf("QueryAppend %v (span %v): %v, oracle %v", q, s, buf, want)
				}
			}
			if oneCell < 20 || oneRow < 20 || oneCol < 20 {
				t.Fatalf("query spans: %d one-cell, %d one-row, %d one-column; the shapes were not generated", oneCell, oneRow, oneCol)
			}
		})
	}
}

// TestBoxGrid2LParallelBuildBitIdentical is
// TestBoxGridParallelBuildMatchesSequential for the classed grid, whose
// audit holds the class runs and the four edge planes too.
func TestBoxGrid2LParallelBuildBitIdentical(t *testing.T) {
	bounds := geom.R(0, 0, 2000, 2000)
	rng := xrand.New(11)
	for _, in := range buildInputs(6000) {
		rects := in.boxes(rng, bounds)
		queries := testQueries(rng, 20, bounds)
		bg := MustNewBoxGrid2L(32, bounds, len(rects))
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

func TestBoxGrid2LRejectsBadParameters(t *testing.T) {
	bounds := geom.R(0, 0, 100, 100)
	if _, err := NewBoxGrid2L(0, bounds, 10); err == nil {
		t.Error("cps=0 must be rejected")
	}
	if _, err := NewBoxGrid2L(16, geom.R(0, 0, 100, 50), 10); err == nil {
		t.Error("non-square space must be rejected")
	}
	if _, err := NewBoxGrid2L(1<<17, bounds, 10); err == nil {
		t.Error("cps beyond the uint16 span encoding must be rejected")
	}
}

func TestBoxGrid2LClassCounts(t *testing.T) {
	bounds := geom.R(0, 0, 100, 100)
	bg := MustNewBoxGrid2L(4, bounds, 2) // 4x4 cells of side 25
	// One rect spanning 3x2 cells: classes A=1, B=2 (rest of first row),
	// C=1 (rest of first column), D=2 (interior); one single-cell rect.
	bg.Build([]geom.Rect{
		geom.R(10, 10, 60, 40),
		geom.R(80, 80, 90, 90),
	})
	got := bg.ClassCounts()
	want := [4]int{2, 2, 1, 2}
	if got != want {
		t.Fatalf("class counts = %v, want %v", got, want)
	}
	if f := bg.ReplicationFactor(); f != 3.5 {
		t.Fatalf("replication factor = %g, want 3.5", f)
	}
}

func TestBoxGrid2LNameAndAccessors(t *testing.T) {
	bounds := geom.R(0, 0, 100, 100)
	bg := MustNewBoxGrid2L(8, bounds, 0)
	if want := fmt.Sprintf("boxgrid-2l(cps=%d)", 8); bg.Name() != want {
		t.Fatalf("Name = %q, want %q", bg.Name(), want)
	}
	if bg.CPS() != 8 || bg.Bounds() != bounds {
		t.Fatalf("accessors: cps=%d bounds=%v", bg.CPS(), bg.Bounds())
	}
	if bg.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes must count the directory")
	}
}

// TestBoxGrid2LWideCountFallback exercises the full-width count plane:
// populations past the uint16 bound must build through the uint32 path
// and stay digest-identical to the reference-point grid.
func TestBoxGrid2LWideCountFallback(t *testing.T) {
	bounds := geom.R(0, 0, 4000, 4000)
	rng := xrand.New(41)
	n := maxUint16Boxes + 500
	rects := randomBoxes(rng, n, bounds, 0, 12)
	bg := MustNewBoxGrid2L(16, bounds, n)
	bg.Build(rects)
	if bg.Len() != n {
		t.Fatalf("Len = %d, want %d", bg.Len(), n)
	}
	ref := MustNewBoxGrid(16, bounds, n)
	ref.Build(rects)
	for _, q := range testQueries(rng, 12, bounds) {
		got := collectQuery(t, bg, q)
		want := collectQuery(t, ref, q)
		if !equalIDs(got, want) {
			t.Fatalf("wide-count build disagrees with boxcsr on query %v", q)
		}
	}
}

// TestBoxGrid2LEdgeKernelsProperty holds QueryAppend, which picks a kernel
// by the cell's place in the query span, against Query and
// the brute-force oracle as exact sorted ID lists, on the inputs where that
// choice flips: spans of 1, 2 and 3 or more cells on each axis
// independently, windows hanging over every side of the space, a query edge
// bit-equal to a rect edge on each of the four sides (the difference is +0
// and must pass), rects with a min of exactly 0 (stored as -0), rects
// partly outside the space, exact (64) and inexact cell widths, and a
// rebuild after cross-span moves.
func TestBoxGrid2LEdgeKernelsProperty(t *testing.T) {
	bounds := geom.R(0, 0, 1024, 1024)
	for _, cps := range []int{13, 48, 64, 96} {
		t.Run(fmt.Sprintf("cps=%d", cps), func(t *testing.T) {
			rng := xrand.New(uint64(500 + cps))
			cell := bounds.Width() / float32(cps)
			// Two dense 8x8-cell patches, at the origin and at the far
			// corner, each reaching a cell beyond the space on two sides.
			patches := [2]geom.Rect{
				geom.R(-cell, -cell, 8*cell, 8*cell),
				geom.R(bounds.MaxX-8*cell, bounds.MaxY-8*cell, bounds.MaxX+cell, bounds.MaxY+cell),
			}
			var rects []geom.Rect
			for _, p := range patches {
				rects = append(rects, randomBoxes(rng, 700, p, 0, 2.5*cell)...)
			}
			for i := 0; i < 700; i += 7 {
				rects[i].MinX, rects[i].MaxX = 0, max(rects[i].MaxX, 0)
				rects[i+1].MinY, rects[i+1].MaxY = 0, max(rects[i+1].MaxY, 0)
			}
			bg := MustNewBoxGrid2L(cps, bounds, len(rects))
			bg.Build(rects)
			for k, id := range bg.ids {
				// Rect 0 has a MinX and rect 1 a MinY of exactly 0.
				if id == 0 && math.Float32bits(bg.nx[k]) != 1<<31 || id == 1 && math.Float32bits(bg.ny[k]) != 1<<31 {
					t.Fatalf("slot %d: the zero min of rect %d is stored as %v / %v, want -0", k, id, bg.nx[k], bg.ny[k])
				}
			}
			// Cross-span moves inside the patch, then the rebuild.
			for i := 3; i < len(rects); i += 4 {
				rects[i] = randomBoxes(rng, 1, patches[i/700], 0, 2.5*cell)[0]
			}
			bg.Build(rects)

			// side draws a window side for a span of about 1, 2 or >= 3 cells.
			side := func(class int) float32 {
				switch class {
				case 0:
					return rng.Range(0, cell/4)
				case 1:
					return rng.Range(cell/2, cell)
				}
				return rng.Range(2*cell, 4*cell)
			}
			var queries []geom.Rect
			var equalEdge []uint32 // per query: the rect its edge was copied from, or none
			const none = ^uint32(0)
			for pi, p := range patches {
				for shape := 0; shape < 9; shape++ {
					for i := 0; i < 40; i++ {
						c := geom.Pt(rng.Range(p.MinX, p.MaxX), rng.Range(p.MinY, p.MaxY))
						w, h := side(shape%3), side(shape/3)
						queries = append(queries, geom.Rect{MinX: c.X - w/2, MinY: c.Y - h/2, MaxX: c.X + w/2, MaxY: c.Y + h/2})
						equalEdge = append(equalEdge, none)
					}
				}
				// One query edge copied from a rect's facing edge, the other
				// axis laid over the rect.
				for i := 0; i < 160; i++ {
					id := uint32(pi*700 + rng.Intn(700))
					tr := rects[id]
					w, h := side(i/4%3), side(i/12%3)
					q := geom.Rect{MinX: tr.MinX - w/2, MinY: tr.MinY - h/2, MaxX: tr.MinX + w/2, MaxY: tr.MinY + h/2}
					switch i % 4 {
					case 0:
						q.MinX, q.MaxX = tr.MaxX, tr.MaxX+w
					case 1:
						q.MinX, q.MaxX = tr.MinX-w, tr.MinX
					case 2:
						q.MinY, q.MaxY = tr.MaxY, tr.MaxY+h
					case 3:
						q.MinY, q.MaxY = tr.MinY-h, tr.MinY
					}
					queries = append(queries, q)
					equalEdge = append(equalEdge, id)
				}
			}

			var shapes [3][3]int                       // span cells per axis: 1, 2, >= 3
			var fourEdge, twoPlane, onePlane, bulk int // cells by the kernel their place selects
			var clamped [4]int
			var buf []uint32
			for qi, q := range queries {
				s := bg.mapper.spanOf(q)
				nx, ny := int(s.x1-s.x0)+1, int(s.y1-s.y0)+1
				shapes[min(nx, 3)-1][min(ny, 3)-1]++
				if nx == 1 || ny == 1 {
					fourEdge += nx * ny
				} else {
					twoPlane += 4
					onePlane += 2*(nx-2) + 2*(ny-2)
					bulk += (nx - 2) * (ny - 2)
				}
				for i, out := range [4]bool{q.MinX < bounds.MinX, q.MinY < bounds.MinY, q.MaxX > bounds.MaxX, q.MaxY > bounds.MaxY} {
					if out {
						clamped[i]++
					}
				}
				want := bruteBoxQuery(rects, q)
				if id := equalEdge[qi]; id != none && !containsID(want, id) {
					t.Fatalf("query %v touches rect %d %v on an edge; the oracle misses it", q, id, rects[id])
				}
				if got := collectQuery(t, bg, q); !equalIDs(got, want) {
					t.Fatalf("Query %v (span %v): %v, oracle %v", q, s, got, want)
				}
				buf = bg.QueryAppend(q, buf[:0])
				sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
				if !equalIDs(buf, want) {
					t.Fatalf("QueryAppend %v (span %v): %v, oracle %v", q, s, buf, want)
				}
			}
			bg.rects = rects
			if err := bg.CheckInvariants(); err != nil {
				t.Error(err)
			}
			for i, row := range shapes {
				for j, n := range row {
					if n < 20 {
						t.Errorf("%d queries span %d x %d cells (3 = three or more), want >= 20", n, i+1, j+1)
					}
				}
			}
			if min(fourEdge, twoPlane, onePlane, bulk) < 20 {
				t.Errorf("cells by kernel: %d four-edge, %d two-plane, %d one-plane, %d bulk copy; want >= 20 each",
					fourEdge, twoPlane, onePlane, bulk)
			}
			for i, n := range clamped {
				if n < 20 {
					t.Errorf("%d windows hang over side %d of the space, want >= 20", n, i)
				}
			}
		})
	}
}

func containsID(sorted []uint32, id uint32) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= id })
	return i < len(sorted) && sorted[i] == id
}

package grid

// White-box tests of the CSR (contiguous counting-sort) backend: parallel
// build determinism, the slack/overflow update mechanics, and the
// Counter/MemoryBytes invariants. The label-driven update paths are in
// csr_update_test.go.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

func csrOf(t testing.TB, g *Grid) *csrStore {
	t.Helper()
	cs, ok := g.st.(*csrStore)
	if !ok {
		t.Fatalf("store is %T, want *csrStore", g.st)
	}
	return cs
}

func TestCSRParallelBuildBitIdentical(t *testing.T) { testCSRBuildParallel(t, CSR(), 21) }

// testCSRBuildParallel holds a CSR layout's sharded build to Build on
// every shardedBuildInputs population: the same labels, offsets, ID arena
// and coordinate arena, a clean audit, and brute force's answers.
func testCSRBuildParallel(t *testing.T, cfg Config, seed uint64) {
	rng := xrand.New(seed)
	for _, in := range shardedBuildInputs(20000) {
		pts := in.points(rng, testBounds)
		queries := testQueries(rng, 20, testBounds)
		seq := MustNew(cfg, testBounds, len(pts))
		seq.Build(pts)
		ss := csrOf(t, seq)
		for _, workers := range []int{1, 2, 3, 8, 16} {
			name := fmt.Sprintf("%s/%s/workers=%d", cfg.DisplayName(), in.name, workers)
			par := MustNew(cfg, testBounds, len(pts))
			par.BuildParallel(pts, workers)
			ps := csrOf(t, par)
			switch {
			case !slices.Equal(ps.cellOf, ss.cellOf):
				t.Fatalf("%s: labels differ from Build's", name)
			case !slices.Equal(ps.starts, ss.starts) || !slices.Equal(ps.counts, ss.counts):
				t.Fatalf("%s: offsets differ from Build's", name)
			case !slices.Equal(ps.ids, ss.ids):
				t.Fatalf("%s: ID arena differs from Build's", name)
			case !slices.Equal(ps.xy, ss.xy):
				t.Fatalf("%s: coordinate arena differs from Build's", name)
			case ps.dense != ss.dense:
				t.Fatalf("%s: dense %v, Build leaves %v", name, ps.dense, ss.dense)
			}
			if err := par.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			assertKernelsMatchBrute(t, par, pts, queries)
		}
	}
}

func TestCSRSegmentsAreSortedByID(t *testing.T) {
	// The counting sort is stable over ascending input IDs, so every column
	// of every cell segment must hold its IDs in ascending order — the
	// property that makes sequential and parallel builds bit-identical.
	r := xrand.New(22)
	pts := randomPoints(r, 5000, testBounds)
	g := MustNew(CSR(), testBounds, len(pts))
	g.Build(pts)
	cs := csrOf(t, g)
	for f := 0; f < g.cells<<cs.shift; f++ {
		seg := cs.ids[cs.starts[f]:cs.starts[f+1]]
		for j := 1; j < len(seg); j++ {
			if seg[j-1] >= seg[j] {
				t.Fatalf("column %d not ascending at %d: %v", f, j, seg)
			}
		}
	}
}

func TestCSROverflowInsertAndRefill(t *testing.T) {
	// Build fixes segment capacities; an insert into a full cell must land
	// in overflow, stay visible to scans, and be drained back into the
	// segment by the next removal.
	cfg := Config{Layout: LayoutCSR, Scan: ScanRange, BS: 1, CPS: 2}
	g := MustNew(cfg, geom.R(0, 0, 100, 100), 4)
	pts := []geom.Point{geom.Pt(10, 10), geom.Pt(20, 20), geom.Pt(80, 80)}
	g.Build(pts) // cell 0 holds {0,1}, capacity 2; cell 3 holds {2}
	cs := csrOf(t, g)

	// Move entry 2 into cell 0: no slack there, must overflow.
	g.Update(2, geom.Pt(80, 80), geom.Pt(30, 30))
	if len(cs.overflow[0]) != 1 || cs.overflow[0][0] != 2 {
		t.Fatalf("overflow[0] = %v, want [2]", cs.overflow[0])
	}
	if got := g.CellCount(geom.Pt(10, 10)); got != 3 {
		t.Fatalf("cell count = %d, want 3", got)
	}
	if seen := cs.appendCell(0, nil); len(seen) != 3 {
		t.Fatalf("scan saw %v", seen)
	}

	// Removing a segment entry must refill the hole from overflow.
	if !cs.removeAt(0, 1) {
		t.Fatal("remove(1) failed")
	}
	if len(cs.overflow[0]) != 0 {
		t.Fatalf("overflow not drained: %v", cs.overflow[0])
	}
	if cs.counts[0] != 2 {
		t.Fatalf("segment count = %d, want 2", cs.counts[0])
	}
	// And the next build clears any remaining overflow state.
	g.Build(pts)
	if len(cs.overflow[0]) != 0 || g.Len() != 3 {
		t.Fatal("build did not reset overflow")
	}
}

func TestCSRCounterAndMemoryInvariants(t *testing.T) {
	// The ISSUE's invariant pair: Len() tracks every insert/remove, and
	// MemoryBytes() equals the documented formula — directory
	// (starts+counts) + ID arena + labels + retained scratch + overflow
	// capacity — and never shrinks below 4 bytes per live entry.
	r := xrand.New(25)
	pts := randomPoints(r, 3000, testBounds)
	g := MustNew(CSR(), testBounds, len(pts))
	g.Build(pts)
	cs := csrOf(t, g)

	formula := func() int64 {
		total := int64(len(cs.starts)+len(cs.counts)+cap(cs.ids)+cap(cs.cellOf)) * 4
		total += int64(len(cs.overflow)) * 24 // per-cell overflow slice headers
		for _, of := range cs.overflow {
			total += int64(cap(of)) * 4
		}
		for _, sc := range cs.cursors {
			total += int64(cap(sc)) * 4
		}
		return total
	}

	check := func(stage string, wantLen int) {
		t.Helper()
		if g.Len() != wantLen {
			t.Fatalf("%s: Len = %d, want %d", stage, g.Len(), wantLen)
		}
		got := g.MemoryBytes()
		if got != formula() {
			t.Fatalf("%s: MemoryBytes = %d, formula = %d", stage, got, formula())
		}
		if got < int64(4*g.Len()) {
			t.Fatalf("%s: MemoryBytes %d below 4 bytes/entry floor", stage, got)
		}
	}

	check("after build", len(pts))
	for i := 0; i < 500; i++ {
		id := uint32(r.Intn(len(pts)))
		to := geom.Pt(r.Range(0, 1000), r.Range(0, 1000))
		g.Update(id, pts[id], to)
		pts[id] = to
	}
	check("after updates", len(pts))
	g.BuildParallel(pts, 4)
	check("after parallel rebuild", len(pts))

	// Cell counts must sum to Len in both representations.
	total := 0
	for c := 0; c < g.cells; c++ {
		total += cs.cellCount(c)
	}
	if total != g.Len() {
		t.Fatalf("cell counts sum to %d, Len = %d", total, g.Len())
	}
}

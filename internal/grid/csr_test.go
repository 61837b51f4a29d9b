package grid

// White-box tests of the CSR (contiguous counting-sort) backend: the build
// on degenerate populations, the static contract (Update is a no-op), and
// the Counter/MemoryBytes invariants.

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

// arenaIDs returns the IDs of a CSR store's arena, slot by slot.
func arenaIDs(cs *csrStore) []uint32 { return cs.appendIDs(0, uint32(cs.totalEntries()), nil) }

func csrOf(t testing.TB, g *Grid) *csrStore {
	t.Helper()
	cs, ok := g.st.(*csrStore)
	if !ok {
		t.Fatalf("store is %T, want *csrStore", g.st)
	}
	return cs
}

// TestCSRParallelBuildBitIdentical holds Build to a clean audit and brute
// force's answers on every buildInputs population. The name is older than
// the grid's one build: a sharded build was held to Build's arrays here.
func TestCSRParallelBuildBitIdentical(t *testing.T) { testCSRBuild(t, CSR(), 21) }

// testCSRBuild holds a CSR layout's Build on every buildInputs population
// to a clean audit and brute force's answers.
func testCSRBuild(t *testing.T, cfg Config, seed uint64) {
	rng := xrand.New(seed)
	for _, in := range buildInputs(20000) {
		pts := in.points(rng, testBounds)
		queries := testQueries(rng, 20, testBounds)
		g := MustNew(cfg, testBounds, len(pts))
		g.Build(pts)
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("%s/%s: %v", cfg.DisplayName(), in.name, err)
		}
		assertKernelsMatchBrute(t, g, pts, queries)
	}
}

func TestCSRSegmentsAreSortedByID(t *testing.T) {
	// The counting sort is stable over ascending input IDs, so every column
	// of every cell segment must hold its IDs in ascending order.
	r := xrand.New(22)
	pts := randomPoints(r, 5000, testBounds)
	g := MustNew(CSR(), testBounds, len(pts))
	g.Build(pts)
	cs := csrOf(t, g)
	for f := 0; f < g.cells<<cs.shift; f++ {
		seg := arenaIDs(cs)[cs.starts[f]:cs.starts[f+1]]
		for j := 1; j < len(seg); j++ {
			if seg[j-1] >= seg[j] {
				t.Fatalf("column %d not ascending at %d: %v", f, j, seg)
			}
		}
	}
}

// TestCSRUpdateIsNoOpUntilRebuild is the CSR layouts' static contract, as
// rtree's TestUpdateIsNoOpUntilRebuild is the R-tree's: after Build, no
// Update — real moves, a wrong old position, an out-of-range id, a NaN
// position — touches the arena, Len, the audit or any answer over the
// built snapshot. The next Build is what sees a move.
func TestCSRUpdateIsNoOpUntilRebuild(t *testing.T) {
	nan := float32(math.NaN())
	for _, cfg := range []Config{CSR(), CSRXY()} {
		t.Run(cfg.DisplayName(), func(t *testing.T) {
			r := xrand.New(24)
			pts := randomPoints(r, 8192, testBounds)
			queries := testQueries(r, 40, testBounds)
			g := MustNew(cfg, testBounds, len(pts))
			g.Build(pts)
			cs := csrOf(t, g)
			starts, slots, ids, xy := slices.Clone(cs.starts), slices.Clone(cs.slots), slices.Clone(cs.ids), slices.Clone(cs.xy)

			moved := slices.Clone(pts)
			realMoves := make([]geom.Move, 0, 300)
			for _, id := range r.Perm(len(pts))[:cap(realMoves)] {
				to := geom.Pt(r.Range(0, 1000), r.Range(0, 1000))
				realMoves = append(realMoves, geom.Move{ID: uint32(id), Old: pts[id], New: to})
				moved[id] = to
			}
			for _, c := range []struct {
				name  string
				moves []geom.Move
			}{
				{"real moves", realMoves},
				{"wrong old", []geom.Move{{ID: 7, Old: geom.Pt(testBounds.MaxX-1, testBounds.MaxY-1), New: pts[7]}}},
				{"out-of-range id", []geom.Move{{ID: uint32(len(pts)), Old: pts[0], New: pts[1]}}},
				{"NaN position", []geom.Move{{ID: 3, Old: pts[3], New: geom.Pt(nan, nan)}}},
			} {
				for _, m := range c.moves {
					g.Update(m.ID, m.Old, m.New)
				}
				switch {
				case !slices.Equal(cs.starts, starts) || !slices.Equal(cs.ids, ids) ||
					!slices.Equal(cs.slots, slots) || !slices.Equal(cs.xy, xy):
					t.Fatalf("%s: Update changed the arena", c.name)
				case g.Len() != len(pts):
					t.Fatalf("%s: Len = %d, want %d", c.name, g.Len(), len(pts))
				}
				if err := g.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				assertKernelsMatchBrute(t, g, pts, queries)
			}
			g.Build(moved)
			assertKernelsMatchBrute(t, g, moved, queries)
		})
	}
}

func TestCSRCounterAndMemoryInvariants(t *testing.T) {
	// The invariant pair: Len() is the population of the last build, and
	// MemoryBytes() equals the documented formula — directory (one offset
	// per column) + slots (ID and quanta) — and never shrinks below 4 bytes
	// per live entry.
	r := xrand.New(25)
	pts := randomPoints(r, 3000, testBounds)
	g := MustNew(CSR(), testBounds, len(pts))
	g.Build(pts)
	cs := csrOf(t, g)

	formula := func() int64 { return int64(len(cs.starts)+2*cap(cs.slots)) * 4 }

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
		pts[r.Intn(len(pts))] = geom.Pt(r.Range(0, 1000), r.Range(0, 1000))
	}
	g.Build(pts)
	check("after a rebuild", len(pts))
	g.Build(pts[:1000])
	check("after a smaller rebuild", 1000)

	// Cell counts must sum to Len.
	total := 0
	for c := 0; c < g.cells; c++ {
		total += cs.cellCount(c)
	}
	if total != g.Len() {
		t.Fatalf("cell counts sum to %d, Len = %d", total, g.Len())
	}
}

// TestCSRMemoryIsOffsetsIDsAndQuanta pins the memory trade of the quantised
// arena: a build of LayoutCSR keeps the offsets and the slots,
// IDs and quanta, and nothing else, (len(starts) + 2n)·4 bytes, at the
// benchmark's population and on a small one; the xy layout keeps its
// coordinates in place of the quanta.
func TestCSRMemoryIsOffsetsIDsAndQuanta(t *testing.T) {
	for _, n := range []int{3000, 50_000} {
		pts := randomPoints(xrand.New(26), n, testBounds)
		g := MustNew(CSR(), testBounds, n)
		g.Build(pts)
		cs := csrOf(t, g)
		if want := int64(len(cs.starts)+2*n) * 4; g.MemoryBytes() != want {
			t.Errorf("n=%d: MemoryBytes = %d, want (len(starts) + 2n)·4 = %d", n, g.MemoryBytes(), want)
		}
		xy := MustNew(CSRXY(), testBounds, n)
		xy.Build(pts)
		if want := int64(len(cs.starts)+3*n) * 4; xy.MemoryBytes() != want {
			t.Errorf("n=%d: csr+xy MemoryBytes = %d, want (len(starts) + 3n)·4 = %d", n, xy.MemoryBytes(), want)
		}
	}
}

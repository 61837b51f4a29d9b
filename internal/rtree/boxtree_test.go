package rtree

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/xrand"
)

// randomBoxes generates n rects in bounds with sides in [minSide,
// maxSide], including degenerate (point) rects when minSide is 0.
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

// collectBoxQuery runs one query, failing the test on any duplicate
// emission (part of the BoxIndex contract), and returns the sorted IDs.
func collectBoxQuery(t *testing.T, bt *BoxTree, r geom.Rect) []uint32 {
	t.Helper()
	seen := make(map[uint32]int)
	var out []uint32
	bt.Query(r, func(id uint32) {
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

func boxTestQueries(r *xrand.Rand, n int, bounds geom.Rect) []geom.Rect {
	queries := make([]geom.Rect, 0, n+4)
	for i := 0; i < n; i++ {
		cx := r.Range(bounds.MinX, bounds.MaxX)
		cy := r.Range(bounds.MinY, bounds.MaxY)
		side := r.Range(1, bounds.Width()/3)
		queries = append(queries, geom.Square(geom.Pt(cx, cy), side))
	}
	// Edge cases: the whole space, a query poking outside it, a
	// degenerate point query, and a sliver.
	queries = append(queries,
		bounds,
		bounds.Expand(bounds.Width()/4),
		geom.Pt((bounds.MinX+bounds.MaxX)/2, (bounds.MinY+bounds.MaxY)/2).Rect(),
		geom.R(bounds.MinX+1, bounds.MinY+1, bounds.MinX+2, bounds.MinY+2),
	)
	return queries
}

func TestNewBoxTreeRejectsBadFanout(t *testing.T) {
	for _, f := range []int{-3, 0, 1} {
		if _, err := NewBoxTree(f); err == nil {
			t.Errorf("fanout %d must be rejected", f)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewBoxTree(1) must panic")
		}
	}()
	MustNewBoxTree(1)
}

func TestBoxTreeMatchesBruteForce(t *testing.T) {
	bounds := geom.R(0, 0, 1000, 1000)
	rng := xrand.New(7)
	for _, tc := range []struct {
		name             string
		n                int
		minSide, maxSide float32
		fanout           int
	}{
		{"small boxes", 500, 0, 40, 16},
		{"mixed sizes", 400, 0, 300, 16},
		{"huge boxes", 60, 200, 900, 4},
		{"degenerate points", 300, 0, 0, 16},
		{"tiny fanout", 400, 0, 120, 2},
		{"wide fanout", 400, 0, 120, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rects := randomBoxes(rng, tc.n, bounds, tc.minSide, tc.maxSide)
			bt := MustNewBoxTree(tc.fanout)
			bt.Build(rects)
			if bt.Len() != tc.n {
				t.Fatalf("Len = %d, want %d", bt.Len(), tc.n)
			}
			for _, q := range boxTestQueries(rng, 50, bounds) {
				got := collectBoxQuery(t, bt, q)
				want := bruteBoxQuery(rects, q)
				if !equalIDs(got, want) {
					t.Fatalf("query %v: got %d ids, want %d", q, len(got), len(want))
				}
			}
		})
	}
}

// checkSTRInvariants verifies the packing invariants of a bulk-loaded
// tree via the exported CheckInvariants audit, plus the
// test-context fact the audit cannot know: the tree indexes exactly the
// rects snapshot.
func checkSTRInvariants(t *testing.T, bt *BoxTree, rects []geom.Rect) {
	t.Helper()
	if bt.Len() != len(rects) {
		t.Fatalf("tree holds %d entries, snapshot has %d", bt.Len(), len(rects))
	}
	if err := bt.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBoxTreeSTRPackingInvariants(t *testing.T) {
	bounds := geom.R(0, 0, 2000, 2000)
	rng := xrand.New(17)
	for _, n := range []int{1, 2, 15, 16, 17, 255, 256, 257, 3000} {
		rects := randomBoxes(rng, n, bounds, 0, 150)
		bt := MustNewBoxTree(16)
		bt.Build(rects)
		checkSTRInvariants(t, bt, rects)
	}
}

// moveBoxes returns a moved copy of rects: roughly half the objects
// translated (and sometimes resized) by random offsets.
func moveBoxes(r *xrand.Rand, rects []geom.Rect, maxShift float32) []geom.Rect {
	out := append([]geom.Rect(nil), rects...)
	for i := range out {
		if r.Bool(0.5) {
			continue
		}
		dx := r.Range(-maxShift, maxShift)
		dy := r.Range(-maxShift, maxShift)
		grow := r.Range(0, maxShift/4)
		out[i] = geom.Rect{
			MinX: out[i].MinX + dx, MinY: out[i].MinY + dy,
			MaxX: out[i].MaxX + dx + grow, MaxY: out[i].MaxY + dy + grow,
		}
	}
	return out
}

func TestBoxTreeEmptyAndDegenerate(t *testing.T) {
	bt := MustNewBoxTree(16)
	bt.Build(nil)
	if bt.Len() != 0 || bt.Height() != 0 {
		t.Fatalf("empty tree: Len=%d Height=%d", bt.Len(), bt.Height())
	}
	bt.Query(geom.R(0, 0, 100, 100), func(id uint32) {
		t.Fatalf("empty tree emitted %d", id)
	})
	if bt.MBR() != (geom.Rect{}) {
		t.Fatalf("empty tree MBR = %v", bt.MBR())
	}

	one := []geom.Rect{geom.R(5, 5, 10, 10)}
	bt.Build(one)
	if bt.Len() != 1 || bt.Height() != 1 {
		t.Fatalf("singleton tree: Len=%d Height=%d", bt.Len(), bt.Height())
	}
	got := collectBoxQuery(t, bt, geom.R(0, 0, 6, 6))
	if !equalIDs(got, []uint32{0}) {
		t.Fatalf("singleton query got %v", got)
	}
	if bt.MBR() != one[0] {
		t.Fatalf("singleton MBR = %v, want %v", bt.MBR(), one[0])
	}
}

func TestBoxTreeHeightAndMemory(t *testing.T) {
	bounds := geom.R(0, 0, 1000, 1000)
	rects := randomBoxes(xrand.New(3), 5000, bounds, 0, 50)
	bt := MustNewBoxTree(16)
	bt.Build(rects)
	// 5000 entries at fanout 16: 313 leaves, 20 level-1 nodes, 2
	// level-2, 1 root = height 4.
	if h := bt.Height(); h != 4 {
		t.Fatalf("Height = %d, want 4", h)
	}
	if bt.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes must be positive")
	}
	if bt.Fanout() != 16 {
		t.Fatalf("Fanout = %d", bt.Fanout())
	}
}

// FuzzBoxTreeMatchesOracle drives BoxTree and the brute-force oracle
// through fuzzer-chosen build -> query -> move and rebuild -> query cycles and
// fails on any digest divergence — the box-tree mirror of the grid's
// oracle checks. Run as a plain test it covers the seed corpus;
// `go test -fuzz=FuzzBoxTreeMatchesOracle ./internal/rtree` explores
// further.
func FuzzBoxTreeMatchesOracle(f *testing.F) {
	f.Add(uint64(1), uint16(300), uint8(16), uint8(2), uint8(120))
	f.Add(uint64(7), uint16(40), uint8(2), uint8(3), uint8(0))
	f.Add(uint64(42), uint16(900), uint8(64), uint8(1), uint8(255))
	f.Add(uint64(99), uint16(1), uint8(5), uint8(4), uint8(40))
	f.Fuzz(func(t *testing.T, seed uint64, nObjs uint16, fanByte, cycles, sideByte uint8) {
		n := int(nObjs)
		if n == 0 {
			return
		}
		fanout := 2 + int(fanByte)%63
		rng := xrand.New(seed)
		bounds := geom.R(0, 0, 2000, 2000)
		rects := randomBoxes(rng, n, bounds, 0, 1+float32(sideByte)*3)

		bt := MustNewBoxTree(fanout)
		oracle := core.NewBruteForceBoxes()
		bt.Build(rects)
		oracle.Build(rects)

		digest := func(idx core.BoxIndex, queriers []geom.Rect) (int, uint64) {
			var pairs int
			var h uint64
			for q, r := range queriers {
				idx.Query(r, func(id uint32) {
					pairs++
					h = core.MixPair(h, uint32(q), id)
				})
			}
			return pairs, h
		}
		cyc := 1 + int(cycles)%4
		cur := rects
		for c := 0; c < cyc; c++ {
			queriers := boxTestQueries(rng, 12, bounds)
			wantPairs, wantHash := digest(oracle, queriers)
			gotPairs, gotHash := digest(bt, queriers)
			if gotPairs != wantPairs || gotHash != wantHash {
				t.Fatalf("cycle %d pre-move: (%d, %#x), oracle (%d, %#x) [seed=%d n=%d fanout=%d]",
					c, gotPairs, gotHash, wantPairs, wantHash, seed, n, fanout)
			}

			moved := moveBoxes(rng, cur, 400)
			bt.Build(moved)
			oracle.Build(moved)
			checkSTRInvariants(t, bt, moved)
			cur = moved

			wantPairs, wantHash = digest(oracle, queriers)
			gotPairs, gotHash = digest(bt, queriers)
			if gotPairs != wantPairs || gotHash != wantHash {
				t.Fatalf("cycle %d post-rebuild: (%d, %#x), oracle (%d, %#x) [seed=%d n=%d fanout=%d]",
					c, gotPairs, gotHash, wantPairs, wantHash, seed, n, fanout)
			}
		}
	})
}

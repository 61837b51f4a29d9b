package grid

// White-box tests of the two storage backends: arena reuse, freelists,
// bucket chain shapes, and the memory accounting the paper's Section 3.1
// analysis rests on.

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

func TestInlineStoreBucketChains(t *testing.T) {
	st := newInlineStore(1, 3, 0, false) // one cell, bs=3
	pts := make([]geom.Point, 10)
	st.reset(pts)
	for i := uint32(0); i < 10; i++ {
		st.insertAt(0, i, geom.Pt(0, 0))
	}
	if st.cellCount(0) != 10 {
		t.Fatalf("cell count = %d", st.cellCount(0))
	}
	// 10 entries at bs=3: buckets hold 1,3,3,3 from head to tail (head
	// partially filled, the rest exactly full).
	counts := []uint32{}
	for b := st.cells[0]; b != nilOff; b = st.arena[b] {
		counts = append(counts, st.arena[b+1])
	}
	if len(counts) != 4 {
		t.Fatalf("expected 4 buckets, got %d", len(counts))
	}
	if counts[0] != 1 {
		t.Fatalf("head bucket has %d entries, want 1", counts[0])
	}
	for i := 1; i < 4; i++ {
		if counts[i] != 3 {
			t.Fatalf("bucket %d has %d entries, want full (3)", i, counts[i])
		}
	}
}

func TestInlineStoreRemoveKeepsTailFull(t *testing.T) {
	st := newInlineStore(1, 4, 0, false)
	st.reset(make([]geom.Point, 9))
	for i := uint32(0); i < 9; i++ {
		st.insertAt(0, i, geom.Pt(0, 0))
	}
	// Remove an entry from a tail bucket: the hole must be filled from
	// the head bucket, and non-head buckets must stay exactly full.
	if !st.removeAt(0, 2) {
		t.Fatal("entry 2 not found")
	}
	seen := map[uint32]bool{}
	bucketIdx := 0
	for b := st.cells[0]; b != nilOff; b = st.arena[b] {
		n := st.arena[b+1]
		if bucketIdx > 0 && n != 4 {
			t.Fatalf("tail bucket %d underfull: %d", bucketIdx, n)
		}
		for j := uint32(0); j < n; j++ {
			id := st.arena[b+2+j]
			if seen[id] {
				t.Fatalf("duplicate id %d after remove", id)
			}
			seen[id] = true
		}
		bucketIdx++
	}
	if len(seen) != 8 || seen[2] {
		t.Fatalf("wrong survivor set: %v", seen)
	}
}

func TestInlineStoreFreelistReuse(t *testing.T) {
	st := newInlineStore(2, 2, 0, false)
	st.reset(make([]geom.Point, 8))
	for i := uint32(0); i < 4; i++ {
		st.insertAt(0, i, geom.Pt(0, 0))
	}
	allocatedBefore := st.next
	// Empty cell 0 entirely: its two buckets go to the freelist.
	for i := uint32(0); i < 4; i++ {
		if !st.removeAt(0, i) {
			t.Fatalf("missing %d", i)
		}
	}
	if st.live != 0 {
		t.Fatalf("live buckets = %d after emptying", st.live)
	}
	// Refill cell 1: allocation must come from the freelist, not bump.
	for i := uint32(4); i < 8; i++ {
		st.insertAt(1, i, geom.Pt(0, 0))
	}
	if st.next != allocatedBefore {
		t.Fatalf("bump cursor advanced (%d -> %d) despite freelist", allocatedBefore, st.next)
	}
	if st.cellCount(1) != 4 {
		t.Fatalf("cell 1 count = %d", st.cellCount(1))
	}
}

func TestInlineStoreArenaGrowth(t *testing.T) {
	// Start with capacity hint 0 and insert enough to force arena
	// regrowth; offsets must stay valid.
	st := newInlineStore(4, 2, 0, false)
	st.reset(make([]geom.Point, 1000))
	for i := uint32(0); i < 1000; i++ {
		st.insertAt(int(i)%4, i, geom.Pt(0, 0))
	}
	total := 0
	for c := 0; c < 4; c++ {
		total += st.cellCount(c)
	}
	if total != 1000 {
		t.Fatalf("entries after growth = %d", total)
	}
	if st.totalEntries() != 1000 {
		t.Fatalf("totalEntries = %d", st.totalEntries())
	}
}

func TestInlineStoreXYRoundtrip(t *testing.T) {
	st := newInlineStore(1, 4, 0, true)
	pts := []geom.Point{geom.Pt(1, 2), geom.Pt(3, 4), geom.Pt(5, 6)}
	st.reset(pts)
	for i := range pts {
		st.insertAt(0, uint32(i), pts[i])
	}
	// The xy filter reads coordinates from the bucket, not the base:
	// corrupt the base to prove it.
	pts[0] = geom.Pt(999, 999)
	if found := st.appendFilterCell(0, geom.R(0, 0, 10, 10), nil); len(found) != 3 {
		t.Fatalf("xy filtering lost entries: %v", found)
	}
}

func TestLinkedStoreArenaExhaustionFallsBack(t *testing.T) {
	// Capacity hint below the real population: the arena runs out and
	// individual allocation takes over without corrupting the lists.
	st := newLinkedStore(4, 2, 8)
	pts := make([]geom.Point, 100)
	st.reset(pts)
	for i := uint32(0); i < 100; i++ {
		st.insertAt(int(i)%4, i, pts[i])
	}
	if st.totalEntries() != 100 {
		t.Fatalf("entries = %d", st.totalEntries())
	}
	seen := map[uint32]bool{}
	for c := 0; c < 4; c++ {
		for _, id := range st.appendCell(c, nil) {
			if seen[id] {
				t.Fatalf("duplicate %d", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != 100 {
		t.Fatalf("scan found %d of 100", len(seen))
	}
}

func TestLinkedStoreFreelistReuse(t *testing.T) {
	st := newLinkedStore(1, 4, 64)
	pts := make([]geom.Point, 64)
	st.reset(pts)
	for i := uint32(0); i < 64; i++ {
		st.insertAt(0, i, pts[i])
	}
	arenaLen := len(st.nodeArena)
	for i := uint32(0); i < 32; i++ {
		if !st.removeAt(0, i) {
			t.Fatalf("missing %d", i)
		}
	}
	for i := uint32(0); i < 32; i++ {
		st.insertAt(0, i, pts[i])
	}
	if len(st.nodeArena) != arenaLen {
		t.Fatalf("node arena grew (%d -> %d) despite freelist", arenaLen, len(st.nodeArena))
	}
	if st.totalEntries() != 64 {
		t.Fatalf("entries = %d", st.totalEntries())
	}
}

func TestLinkedStoreRemoveMiddleOfList(t *testing.T) {
	st := newLinkedStore(1, 8, 8)
	pts := make([]geom.Point, 5)
	st.reset(pts)
	for i := uint32(0); i < 5; i++ {
		st.insertAt(0, i, pts[i])
	}
	// List order is 4,3,2,1,0 (prepend); remove the middle node (2).
	if !st.removeAt(0, 2) {
		t.Fatal("entry 2 not found")
	}
	order := st.appendCell(0, nil)
	want := []uint32{4, 3, 1, 0}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	// Doubly-linked invariants: forward/backward consistency.
	b := st.cells[0].head
	for n := b.head; n != nil; n = n.next {
		if n.next != nil && n.next.prev != n {
			t.Fatal("broken prev link")
		}
	}
}

func TestLinkedStoreEmptyBucketUnlinked(t *testing.T) {
	st := newLinkedStore(1, 2, 8)
	pts := make([]geom.Point, 4)
	st.reset(pts)
	for i := uint32(0); i < 4; i++ {
		st.insertAt(0, i, pts[i])
	}
	// Two buckets of two. Drain the head bucket (ids 3, 2).
	st.removeAt(0, 3)
	st.removeAt(0, 2)
	buckets := 0
	for b := st.cells[0].head; b != nil; b = b.next {
		buckets++
		if b.count == 0 {
			t.Fatal("empty bucket left in chain")
		}
	}
	if buckets != 1 {
		t.Fatalf("bucket count = %d, want 1", buckets)
	}
	if st.cellCount(0) != 2 {
		t.Fatalf("cell count = %d", st.cellCount(0))
	}
}

func TestMemoryBytesFormulas(t *testing.T) {
	// Section 3.1: original consumes n(24+32/bs) plus 16 bytes per
	// directory cell in C++; our Go nodes are 32B (documented), so the
	// expected figure is n(32+32/bs) + cells*16. The refactored arena is
	// 4 bytes per slot with (2+bs) slots per bucket plus 4 per cell.
	r := xrand.New(5)
	n := 4096
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(r.Range(0, 1000), r.Range(0, 1000))
	}
	orig := MustNew(Config{Layout: LayoutLinked, Scan: ScanFull, BS: 4, CPS: 13}, testBounds, n)
	orig.Build(pts)
	gotO := orig.MemoryBytes()
	minO := int64(n * 32) // at least the nodes
	if gotO < minO {
		t.Fatalf("original footprint %d below node floor %d", gotO, minO)
	}
	ref := MustNew(Config{Layout: LayoutInline, Scan: ScanRange, BS: 4, CPS: 13}, testBounds, n)
	ref.Build(pts)
	gotR := ref.MemoryBytes()
	// Each entry occupies one 4-byte slot; buckets add 2 slots each.
	if gotR < int64(n*4) {
		t.Fatalf("refactored footprint %d below entry floor %d", gotR, n*4)
	}
	// The headline claim: large reduction (paper: 32 -> 12 bytes/point at
	// bs=4; our Go constants differ but the factor must be substantial).
	if float64(gotO)/float64(gotR) < 2.5 {
		t.Fatalf("footprint reduction too small: %d -> %d", gotO, gotR)
	}
}

// This file extends the STR R-tree to extended objects: BoxTree is a
// static, bulk-loaded R-tree over MBRs implementing core.BoxIndex — the
// second real contender (after the grid family) for the box join, the
// pairing Tsitsigkos et al. study as partition-based grids vs STR-packed
// R-trees.
//
// STR over rectangles is the point packing with the sort keys widened to
// MBR centres: sort by centre-x into vertical slabs, centre-y within
// each slab, pack fanout-sized leaf runs, then tile the upper levels
// over node centres exactly like the point tree (the strTileOrder /
// strSlabSize machinery is shared, not forked). Unlike the replicating
// grids each object appears in exactly one leaf, so queries are
// duplicate-free with no reference-point test — the overlap-free-packing
// vs replication trade the window-join sweeps measure.
//
// Leaf entry MBRs are inlined in an arena parallel to the entry IDs
// (entryRects), so the query path never dereferences the base table —
// the same discipline as the classed grid.
package rtree

import (
	"fmt"
	"math"

	"repro/internal/callback"
	"repro/internal/geom"
	"repro/internal/sortutil"
)

// BoxTree is a static, STR bulk-loaded R-tree over an MBR snapshot. It
// implements core.BoxIndex, core.Counter, and core.MemoryReporter. Like
// Tree, Build is its one maintenance and Update is a no-op (core.IndexOf
// allows it of a family rebuilt from the snapshot).
type BoxTree struct {
	fanout int
	rects  []geom.Rect // the retained snapshot

	// entries is the permutation of object IDs in leaf order;
	// entryRects inlines each entry's MBR next to it.
	entries    []uint32
	entryRects []geom.Rect

	// nodes holds all tree nodes: the leaf level first (tile-reordered),
	// then each upper level; root is the last node. Leaf entry runs are
	// fanout-sized, so the leaf owning entry run r covers entries
	// [r*fanout, ...) — the level tiling reorders leaf nodes but never
	// the entry arena.
	nodes  []node
	root   int32
	leaves int

	// build scratch, reused across ticks
	scratchIDs  []uint32
	scratchKeys []uint32
	levelIdx    []uint32
	levelNodes  []node

	// covered is CheckInvariants' mark of each object a leaf run holds,
	// reused across audits.
	covered []uint8
}

// NewBoxTree returns a box tree with the given fanout (entries per node).
func NewBoxTree(fanout int) (*BoxTree, error) {
	if fanout < 2 {
		return nil, fmt.Errorf("rtree: fanout must be >= 2, got %d", fanout)
	}
	return &BoxTree{fanout: fanout, root: -1}, nil
}

// MustNewBoxTree is NewBoxTree for known-good fanouts; it panics on error.
func MustNewBoxTree(fanout int) *BoxTree {
	t, err := NewBoxTree(fanout)
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements core.BoxIndex.
func (t *BoxTree) Name() string { return fmt.Sprintf("boxrtree-str(fanout=%d)", t.fanout) }

// Fanout returns the node capacity.
func (t *BoxTree) Fanout() int { return t.fanout }

// Len implements core.Counter.
func (t *BoxTree) Len() int { return len(t.entries) }

// Height returns the number of levels (0 for an empty tree).
func (t *BoxTree) Height() int {
	if t.root < 0 {
		return 0
	}
	h := 1
	for n := t.nodes[t.root]; !n.leaf; n = t.nodes[n.first] {
		h++
	}
	return h
}

// MBR returns the root bounding rectangle (zero Rect when empty).
func (t *BoxTree) MBR() geom.Rect {
	if t.root < 0 {
		return geom.Rect{}
	}
	return t.nodes[t.root].mbr
}

// prepare sizes the snapshot-dependent state for a bulk load and
// computes the node budget: one fully packed level per ceil-division by
// fanout, leaves first. Arenas are retained across builds, so
// steady-state builds allocate nothing.
func (t *BoxTree) prepare(rects []geom.Rect) {
	t.rects = rects
	n := len(rects)
	t.entries = resizeU32(t.entries, n)
	t.entryRects = resizeRects(t.entryRects, n)
	if n == 0 {
		t.nodes = t.nodes[:0]
		t.root = -1
		t.leaves = 0
		return
	}
	t.leaves = (n + t.fanout - 1) / t.fanout
	total := 0
	for c := t.leaves; ; c = (c + t.fanout - 1) / t.fanout {
		total += c
		if c == 1 {
			break
		}
	}
	t.nodes = resizeNodes(t.nodes, total)
	t.scratchIDs = resizeU32(t.scratchIDs, n)
	t.scratchKeys = resizeU32(t.scratchKeys, n)
	t.levelIdx = resizeU32(t.levelIdx, t.leaves)
	t.levelNodes = resizeNodes(t.levelNodes, t.leaves)
}

// packLeaves packs the leaf runs: one sweep per leaf inlines the run's
// coordinates into the entry arena and accumulates the leaf MBR.
func (t *BoxTree) packLeaves(rects []geom.Rect) {
	n := len(t.entries)
	for l := 0; l < t.leaves; l++ {
		s := l * t.fanout
		e := s + t.fanout
		if e > n {
			e = n
		}
		mbr := rects[t.entries[s]]
		t.entryRects[s] = mbr
		for k := s + 1; k < e; k++ {
			rc := rects[t.entries[k]]
			t.entryRects[k] = rc
			mbr = mbr.Union(rc)
		}
		t.nodes[l] = node{mbr: mbr, first: int32(s), count: int32(e - s), leaf: true}
	}
}

// packUpper tiles the upper levels over node centres until one node
// remains.
func (t *BoxTree) packUpper() {
	levelStart, levelCount := 0, t.leaves
	next := t.leaves
	for levelCount > 1 {
		level := t.nodes[levelStart : levelStart+levelCount]
		strTileOrder(level, strSlabSize(levelCount, t.fanout),
			t.levelIdx, t.scratchKeys, t.scratchIDs, t.levelNodes)
		parent := next
		for s := 0; s < levelCount; s += t.fanout {
			e := s + t.fanout
			if e > levelCount {
				e = levelCount
			}
			mbr := level[s].mbr
			for _, nd := range level[s+1 : e] {
				mbr = mbr.Union(nd.mbr)
			}
			t.nodes[parent] = node{mbr: mbr, first: int32(levelStart + s), count: int32(e - s)}
			parent++
		}
		levelStart, levelCount = next, parent-next
		next = parent
	}
	t.root = int32(levelStart)
}

// Build implements core.BoxIndex with STR bulk loading over MBR centres.
// The sort keys are the order-preserving uint32 images of the centre
// coordinates, indexed by ID as ByKey32 expects.
func (t *BoxTree) Build(rects []geom.Rect) {
	t.prepare(rects)
	n := len(rects)
	if n == 0 {
		return
	}
	for i, rc := range rects {
		t.entries[i] = uint32(i)
		t.scratchKeys[i] = sortutil.Float32Key(rc.MinX + rc.MaxX)
	}
	sortutil.ByKey32(t.entries, t.scratchKeys, t.scratchIDs)
	for i, rc := range rects {
		t.scratchKeys[i] = sortutil.Float32Key(rc.MinY + rc.MaxY)
	}
	slabSize := strSlabSize(n, t.fanout)
	for start := 0; start < n; start += slabSize {
		end := start + slabSize
		if end > n {
			end = n
		}
		sortutil.ByKey32(t.entries[start:end], t.scratchKeys, t.scratchIDs)
	}
	t.packLeaves(rects)
	t.packUpper()
}

// Query implements core.BoxIndex: QueryAppend's result, one emit per ID.
func (t *BoxTree) Query(r geom.Rect, emit func(id uint32)) { callback.Query(t, r, emit) }

// QueryAppend implements core.QueryAppender with an explicit-stack
// traversal over the inlined entry MBRs, results appended into buf; the
// base table is never dereferenced. A leaf whose MBR is contained in r
// contributes its entry run as one bulk copy, without per-entry tests
// (entry rects are covered by the leaf MBR, so all intersect r). Each
// object lives in exactly one leaf, so the result is duplicate-free by
// construction. The stack is sized as in Tree.QueryAppend.
//
//joinlint:hotpath
func (t *BoxTree) QueryAppend(r geom.Rect, buf []uint32) []uint32 {
	if t.root < 0 {
		return buf
	}
	var stack [256]int32
	top := 0
	stack[top] = t.root
	top++
	for top > 0 {
		top--
		nd := &t.nodes[stack[top]]
		if nd.leaf {
			if r.ContainsRect(nd.mbr) {
				buf = append(buf, t.entries[nd.first:nd.first+nd.count]...)
			} else {
				buf = t.appendLeafFiltered(nd, r, buf)
			}
			continue
		}
		for c := nd.first; c < nd.first+nd.count; c++ {
			if r.Intersects(t.nodes[c].mbr) {
				if top == len(stack) {
					buf = t.queryRecAppend(c, r, buf)
					continue
				}
				stack[top] = c
				top++
			}
		}
	}
	return buf
}

// appendLeafFiltered is the buffered boundary-leaf filter, branchless
// like Tree.appendLeafFiltered: the rect-overlap test MaxX >= r.MinX &&
// MinX <= r.MaxX && MaxY >= r.MinY && MinY <= r.MaxY reduces to the OR
// of four differences' IEEE sign bits.
//
//joinlint:hotpath
//joinlint:bce
func (t *BoxTree) appendLeafFiltered(nd *node, r geom.Rect, buf []uint32) []uint32 {
	seg := t.entries[nd.first : nd.first+nd.count]
	rcs := t.entryRects[nd.first : nd.first+nd.count]
	k := len(buf)
	buf = reserve(buf, seg) // survivors overwrite in place
	for j, id := range seg {
		rc := rcs[j]
		m := math.Float32bits(rc.MaxX-r.MinX) | math.Float32bits(r.MaxX-rc.MinX) |
			math.Float32bits(rc.MaxY-r.MinY) | math.Float32bits(r.MaxY-rc.MinY)
		buf[k] = id
		k += 1 - int(m>>31)
	}
	return buf[:k]
}

//joinlint:hotpath
func (t *BoxTree) queryRecAppend(ni int32, r geom.Rect, buf []uint32) []uint32 {
	nd := &t.nodes[ni]
	if nd.leaf {
		return t.appendLeafFiltered(nd, r, buf)
	}
	for c := nd.first; c < nd.first+nd.count; c++ {
		if r.Intersects(t.nodes[c].mbr) {
			buf = t.queryRecAppend(c, r, buf)
		}
	}
	return buf
}

// Update implements core.BoxIndex. Static: the move is picked up by the
// next Build from the snapshot.
func (t *BoxTree) Update(id uint32, old, new geom.Rect) {}

// MemoryBytes implements core.MemoryReporter: nodes, entry arena with
// inlined coordinates, and retained scratch.
func (t *BoxTree) MemoryBytes() int64 {
	const nodeBytes = 28 // 4 float32 MBR + first + count + leaf flag, packed
	total := int64(len(t.nodes)) * nodeBytes
	total += int64(cap(t.entries)) * 4
	total += int64(cap(t.entryRects)) * 16
	total += int64(cap(t.scratchIDs)+cap(t.scratchKeys)+cap(t.levelIdx)) * 4
	total += int64(cap(t.levelNodes)) * nodeBytes
	return total
}

func resizeRects(s []geom.Rect, n int) []geom.Rect {
	if cap(s) < n {
		return make([]geom.Rect, n)
	}
	return s[:n]
}

// Package rtree implements the R-tree technique of the study: a static
// R-tree (Guttman, SIGMOD 1984) bulk-loaded per tick with the
// Sort-Tile-Recursive packing of Leutenegger, Lopez & Edgington (ICDE
// 1997), optimized for main memory as in the original framework.
//
// STR packing for points: with n points and fanout f, the leaf level has
// p = ceil(n/f) leaves arranged in a roughly sqrt(p) x sqrt(p) tiling —
// points are sorted by x, cut into vertical slabs, each slab sorted by y
// and cut into runs of f. Upper levels pack the same way over node
// centres. The result is a fully packed, low-overlap static tree, which
// is why it is competitive in the study.
//
// The tree is stored as flat arrays (one node record per node, entries in
// leaf order), so a per-tick rebuild is a handful of radix sorts and a
// single sequential pass — no per-node allocation.
package rtree

import (
	"fmt"
	"math"

	"repro/internal/callback"
	"repro/internal/geom"
	"repro/internal/sortutil"
)

// DefaultFanout is the node capacity used when none is configured. The
// original study tuned main-memory R-tree node sizes to the cache-line
// regime (a few hundred bytes per node); 16 entries x 20 bytes sits in
// that regime and is the sweep optimum in our harness.
const DefaultFanout = 16

// Tree is a static, STR-packed R-tree over a point snapshot. It
// implements core.Index.
type Tree struct {
	fanout int
	pts    []geom.Point

	// entries is the permutation of object IDs in leaf order.
	entries []uint32
	// nodes holds all tree nodes, leaves first, then each upper level;
	// root is the last node (when the tree is non-empty).
	nodes []node
	root  int32

	// build scratch, reused across ticks
	scratchIDs  []uint32
	scratchKeys []uint32
	levelIdx    []uint32
	levelNodes  []node
}

// node is one R-tree node. Leaves address a contiguous run of entries;
// internal nodes address a contiguous run of child nodes (STR packs
// children consecutively, so no child pointer array is needed).
type node struct {
	mbr   geom.Rect
	first int32 // first entry (leaf) or first child node index (internal)
	count int32
	leaf  bool
}

// New returns a tree with the given fanout (entries per node).
func New(fanout int) (*Tree, error) {
	if fanout < 2 {
		return nil, fmt.Errorf("rtree: fanout must be >= 2, got %d", fanout)
	}
	return &Tree{fanout: fanout, root: -1}, nil
}

// MustNew is New for known-good fanouts; it panics on error.
func MustNew(fanout int) *Tree {
	t, err := New(fanout)
	if err != nil {
		panic(err)
	}
	return t
}

// Name implements core.Index.
func (t *Tree) Name() string { return "R-Tree" }

// Fanout returns the node capacity.
func (t *Tree) Fanout() int { return t.fanout }

// Len implements core.Counter.
func (t *Tree) Len() int { return len(t.entries) }

// Height returns the number of levels (0 for an empty tree).
func (t *Tree) Height() int {
	if t.root < 0 {
		return 0
	}
	h := 1
	for n := t.nodes[t.root]; !n.leaf; n = t.nodes[n.first] {
		h++
	}
	return h
}

// Build implements core.Index with STR bulk loading.
func (t *Tree) Build(pts []geom.Point) {
	t.pts = pts
	n := len(pts)
	t.nodes = t.nodes[:0]
	t.entries = resizeU32(t.entries, n)
	t.root = -1
	if n == 0 {
		return
	}

	// Leaf level: STR tiling of the point set.
	for i := range t.entries {
		t.entries[i] = uint32(i)
	}
	t.scratchIDs = resizeU32(t.scratchIDs, n)
	t.scratchKeys = resizeU32(t.scratchKeys, n)
	keys := t.scratchKeys
	for i := range pts {
		keys[i] = sortutil.Float32Key(pts[i].X)
	}
	sortutil.ByKey32(t.entries, keys, t.scratchIDs)

	slabSize := strSlabSize(n, t.fanout)

	for i := range pts {
		keys[i] = sortutil.Float32Key(pts[i].Y)
	}
	for start := 0; start < n; start += slabSize {
		end := start + slabSize
		if end > n {
			end = n
		}
		sortutil.ByKey32(t.entries[start:end], keys, t.scratchIDs)
	}

	// Pack leaves over the tiled entry order.
	for start := 0; start < n; start += t.fanout {
		end := start + t.fanout
		if end > n {
			end = n
		}
		mbr := pointMBR(pts, t.entries[start:end])
		t.nodes = append(t.nodes, node{mbr: mbr, first: int32(start), count: int32(end - start), leaf: true})
	}

	// Upper levels: STR-pack the previous level by node centres until one
	// node remains.
	levelStart := 0
	levelCount := len(t.nodes)
	for levelCount > 1 {
		nextStart := len(t.nodes)
		t.packLevel(levelStart, levelCount)
		levelStart = nextStart
		levelCount = len(t.nodes) - nextStart
	}
	t.root = int32(len(t.nodes) - 1)
}

// packLevel packs nodes [start, start+count) into parents appended to
// t.nodes. Children of one parent must be contiguous, so the level is
// reordered in place by the STR tiling before parents are emitted.
func (t *Tree) packLevel(start, count int) {
	idx := resizeU32(t.levelIdx, count)
	t.levelIdx = idx
	keys := resizeU32(t.scratchKeys, count)
	t.scratchKeys = keys
	scratch := resizeU32(t.scratchIDs, count)
	t.scratchIDs = scratch
	reordered := resizeNodes(t.levelNodes, count)
	t.levelNodes = reordered

	level := t.nodes[start : start+count]
	strTileOrder(level, strSlabSize(count, t.fanout), idx, keys, scratch, reordered)

	for s := 0; s < count; s += t.fanout {
		e := s + t.fanout
		if e > count {
			e = count
		}
		mbr := level[s].mbr
		for _, nd := range level[s+1 : e] {
			mbr = mbr.Union(nd.mbr)
		}
		t.nodes = append(t.nodes, node{mbr: mbr, first: int32(start + s), count: int32(e - s)})
	}
}

// strSlabSize returns the STR tile width (in items) for packing count
// items into fanout-sized groups: with p = ceil(count/fanout) groups,
// the tiling uses ceil(sqrt(p)) vertical slabs of ceil(sqrt(p))*fanout
// items each (Leutenegger et al., ICDE 1997).
func strSlabSize(count, fanout int) int {
	groups := (count + fanout - 1) / fanout
	slabs := int(math.Ceil(math.Sqrt(float64(groups))))
	return slabs * fanout
}

// strTileOrder reorders one whole tree level in place into STR tile
// order: by MBR centre-x into vertical slabs of slabSize nodes, then by
// centre-y within each slab. idx, keys, scratch, and reorder are
// caller-owned scratch of at least len(level); the machinery is shared
// by the point tree and the box tree so the packing discipline is
// written once.
func strTileOrder(level []node, slabSize int, idx, keys, scratch []uint32, reorder []node) {
	count := len(level)
	for i := range idx[:count] {
		idx[i] = uint32(i)
	}
	for i, nd := range level {
		keys[i] = sortutil.Float32Key(nd.mbr.Center().X)
	}
	sortutil.ByKey32(idx[:count], keys, scratch)

	for i, nd := range level {
		keys[i] = sortutil.Float32Key(nd.mbr.Center().Y)
	}
	for s := 0; s < count; s += slabSize {
		e := s + slabSize
		if e > count {
			e = count
		}
		sortutil.ByKey32(idx[s:e], keys, scratch)
	}

	// Apply the permutation to the level (copy out, then back in order).
	for i, j := range idx[:count] {
		reorder[i] = level[j]
	}
	copy(level, reorder[:count])
}

// Query implements core.Index: QueryAppend's result, one emit per ID.
func (t *Tree) Query(r geom.Rect, emit func(id uint32)) { callback.Query(t, r, emit) }

// QueryAppend implements core.QueryAppender with an explicit-stack
// traversal, results appended into buf. A leaf fully contained in r
// contributes its entry run as one bulk copy, without per-point tests.
//
//joinlint:hotpath
func (t *Tree) QueryAppend(r geom.Rect, buf []uint32) []uint32 {
	if t.root < 0 {
		return buf
	}
	// Worst-case occupancy is height*(fanout-1)+1; 256 covers any
	// realistic configuration (fanout <= 64, height <= 5), and deeper
	// trees fall back to recursion rather than overflow.
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
// like the grid stores' (see grid's appendFilterPts for the sign
// trick): every entry is stored unconditionally and the write cursor
// advances by the sign bit of the containment test, so the
// unpredictable hit/miss pattern of a partially covered leaf costs no
// branch mispredictions.
//
//joinlint:hotpath
//joinlint:bce
func (t *Tree) appendLeafFiltered(nd *node, r geom.Rect, buf []uint32) []uint32 {
	seg := t.entries[nd.first : nd.first+nd.count]
	pts := t.pts
	k := len(buf)
	buf = reserve(buf, seg) // survivors overwrite in place
	for _, id := range seg {
		p := pts[id]
		m := math.Float32bits(p.X-r.MinX) | math.Float32bits(r.MaxX-p.X) |
			math.Float32bits(p.Y-r.MinY) | math.Float32bits(r.MaxY-p.Y)
		buf[k] = id
		k += 1 - int(m>>31)
	}
	return buf[:k]
}

// reserve returns buf extended to at least len(seg) slots past its length,
// for a branchless filter of seg to overwrite and cut back: capacity grows,
// nothing is copied but a shortfall (the grid package's reserve, restated
// here because neither package imports the other).
func reserve(buf, seg []uint32) []uint32 {
	free := cap(buf) - len(buf)
	buf = buf[:cap(buf)]
	if uint(free) < uint(len(seg)) {
		buf = append(buf, seg[free:]...)
	}
	return buf
}

//joinlint:hotpath
func (t *Tree) queryRecAppend(ni int32, r geom.Rect, buf []uint32) []uint32 {
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

// Update implements core.Index. Static category: the move is picked up by
// the next per-tick rebuild from the refreshed snapshot; nothing to do
// beyond the framework's base-table write.
func (t *Tree) Update(id uint32, old, new geom.Point) {}

// MemoryBytes implements core.MemoryReporter.
func (t *Tree) MemoryBytes() int64 {
	const nodeBytes = 28 // 4 float32 MBR + first + count + leaf flag, packed
	return int64(len(t.nodes))*nodeBytes + int64(len(t.entries))*4
}

// MBR returns the root bounding rectangle (zero Rect when empty).
func (t *Tree) MBR() geom.Rect {
	if t.root < 0 {
		return geom.Rect{}
	}
	return t.nodes[t.root].mbr
}

func pointMBR(pts []geom.Point, ids []uint32) geom.Rect {
	r := pts[ids[0]].Rect()
	for _, id := range ids[1:] {
		r = r.Stretch(pts[id])
	}
	return r
}

func resizeU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

func resizeNodes(s []node, n int) []node {
	if cap(s) < n {
		return make([]node, n)
	}
	return s[:n]
}

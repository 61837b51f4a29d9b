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
// the same discipline as the classed grid — and in-place updates can
// patch coordinates without touching the retained snapshot.
package rtree

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/geom"
	"repro/internal/parutil"
	"repro/internal/sortutil"
)

// minParallelBoxTreeBuild gates the sharded build; below this population
// the fork/join overhead beats the win.
const minParallelBoxTreeBuild = 4096

// minBoxTreeBatch gates the batched update path the same way.
const minBoxTreeBatch = 2048

// BoxTree is a static, STR bulk-loaded R-tree over an MBR snapshot. It
// implements core.BoxIndex, core.BoxParallelBuilder, core.BoxBatchUpdater,
// core.Counter, and core.MemoryReporter.
//
// Between bulk loads the tree supports in-place moves by bottom-up MBR
// refit: the moved entry's inlined rectangle is patched and the exact
// MBRs of its leaf and ancestors are recomputed until one is unchanged.
// Refits keep every node MBR an exact cover of its subtree, but they do
// not re-pack, so sustained drift degrades the tiling; past a dirtiness
// threshold (one refit per object since the last load) the tree rebuilds
// itself from the patched coordinates instead.
type BoxTree struct {
	fanout int
	rects  []geom.Rect // the retained snapshot

	// entries is the permutation of object IDs in leaf order;
	// entryRects inlines each entry's current MBR next to it, and slots
	// is the inverse permutation (slots[id] = entry slot of id).
	entries    []uint32
	entryRects []geom.Rect
	slots      []uint32

	// nodes holds all tree nodes: the leaf level first (tile-reordered),
	// then each upper level; root is the last node. parents[i] is the
	// node index of i's parent (-1 for the root); leafPos[r] is the node
	// index of the leaf owning entry run r (runs are fanout-sized, so
	// run r covers entries [r*fanout, ...) — the level tiling reorders
	// leaf nodes but never the entry arena).
	nodes   []node
	parents []int32
	leafPos []int32
	root    int32
	leaves  int

	// refitted counts in-place moves since the last bulk load — the
	// dirtiness that triggers the rebuild fallback.
	refitted int

	// build scratch, reused across ticks
	scratchIDs  []uint32
	scratchKeys []uint32
	levelIdx    []uint32
	levelNodes  []node
	slabScratch [][]uint32  // per-worker slab-sort ping-pong buffers
	curScratch  []geom.Rect // rebuild materialization of patched coords
	dirtyNodes  []bool      // batched-refit worklist
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
	t.refitted = 0
	n := len(rects)
	t.entries = resizeU32(t.entries, n)
	t.entryRects = resizeRects(t.entryRects, n)
	t.slots = resizeU32(t.slots, n)
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
	t.parents = resizeI32(t.parents, total)
	t.leafPos = resizeI32(t.leafPos, t.leaves)
	t.scratchIDs = resizeU32(t.scratchIDs, n)
	t.scratchKeys = resizeU32(t.scratchKeys, n)
	t.levelIdx = resizeU32(t.levelIdx, t.leaves)
	t.levelNodes = resizeNodes(t.levelNodes, t.leaves)
}

// fillKeysX/fillKeysY compute the STR sort key of objects [lo, hi):
// the order-preserving uint32 image of the MBR centre coordinate. The
// key of object i lands in scratchKeys[i] (ByKey32 keys are indexed by
// ID, so the fill shards trivially).
func (t *BoxTree) fillKeysX(rects []geom.Rect, lo, hi int) {
	for i := lo; i < hi; i++ {
		t.entries[i] = uint32(i)
		t.scratchKeys[i] = sortutil.Float32Key(rects[i].MinX + rects[i].MaxX)
	}
}

func (t *BoxTree) fillKeysY(rects []geom.Rect, lo, hi int) {
	for i := lo; i < hi; i++ {
		t.scratchKeys[i] = sortutil.Float32Key(rects[i].MinY + rects[i].MaxY)
	}
}

// packLeaves packs leaf runs [lo, hi): one sweep per leaf inlines the
// run's coordinates into the entry arena and accumulates the leaf MBR.
// Distinct leaves touch disjoint state, so the parallel build shards it.
func (t *BoxTree) packLeaves(rects []geom.Rect, lo, hi int) {
	n := len(t.entries)
	for l := lo; l < hi; l++ {
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

// fillSlots records the inverse permutation for entries [lo, hi).
func (t *BoxTree) fillSlots(lo, hi int) {
	for k := lo; k < hi; k++ {
		t.slots[t.entries[k]] = uint32(k)
	}
}

// packUpper tiles the upper levels over node centres until one node
// remains, then indexes the (reordered) leaf level by entry run. Upper
// levels hold ~n/fanout nodes, so this stays sequential even in the
// sharded build.
func (t *BoxTree) packUpper() {
	levelStart, levelCount := 0, t.leaves
	next := t.leaves
	for levelCount > 1 {
		level := t.nodes[levelStart : levelStart+levelCount]
		strTileOrder(level, strSlabSize(levelCount, t.fanout),
			t.levelIdx, t.scratchKeys, t.scratchIDs, t.levelNodes)
		// The reorder moved this level's records, so the parent links of
		// the level BELOW (set when this level was emitted) point at the
		// old positions; each record carries its child range, so one walk
		// re-points them.
		for p, nd := range level {
			if nd.leaf {
				break // leaf level: entries below, nothing to re-point
			}
			for c := nd.first; c < nd.first+nd.count; c++ {
				t.parents[c] = int32(levelStart + p)
			}
		}
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
			for c := s; c < e; c++ {
				t.parents[levelStart+c] = int32(parent)
			}
			parent++
		}
		levelStart, levelCount = next, parent-next
		next = parent
	}
	t.root = int32(levelStart)
	t.parents[t.root] = -1
	for p := 0; p < t.leaves; p++ {
		t.leafPos[int(t.nodes[p].first)/t.fanout] = int32(p)
	}
}

// Build implements core.BoxIndex with STR bulk loading over MBR centres.
func (t *BoxTree) Build(rects []geom.Rect) {
	t.prepare(rects)
	n := len(rects)
	if n == 0 {
		return
	}
	t.fillKeysX(rects, 0, n)
	sortutil.ByKey32(t.entries, t.scratchKeys, t.scratchIDs)
	t.fillKeysY(rects, 0, n)
	slabSize := strSlabSize(n, t.fanout)
	for start := 0; start < n; start += slabSize {
		end := start + slabSize
		if end > n {
			end = n
		}
		sortutil.ByKey32(t.entries[start:end], t.scratchKeys, t.scratchIDs)
	}
	t.packLeaves(rects, 0, t.leaves)
	t.fillSlots(0, n)
	t.packUpper()
}

// BuildParallel implements core.BoxParallelBuilder: the sharded variant
// of Build. The key fills, the per-slab y-sorts (disjoint sub-ranges of
// the x-sorted entry order, one ping-pong buffer per worker), the leaf
// packing, and the inverse-permutation fill all shard; the global x
// radix sort and the small upper levels stay sequential. Every sharded
// stage writes the same values to the same slots as its sequential
// counterpart, so the resulting tree is bit-identical to Build's.
func (t *BoxTree) BuildParallel(rects []geom.Rect, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || len(rects) < minParallelBoxTreeBuild {
		t.Build(rects)
		return
	}
	t.prepare(rects)
	n := len(rects)
	parutil.ForEachShard(n, workers, func(_, lo, hi int) {
		t.fillKeysX(rects, lo, hi)
	})
	sortutil.ByKey32(t.entries, t.scratchKeys, t.scratchIDs)
	parutil.ForEachShard(n, workers, func(_, lo, hi int) {
		t.fillKeysY(rects, lo, hi)
	})

	slabSize := strSlabSize(n, t.fanout)
	nSlabs := (n + slabSize - 1) / slabSize
	if len(t.slabScratch) < workers {
		t.slabScratch = append(t.slabScratch, make([][]uint32, workers-len(t.slabScratch))...)
	}
	for w := 0; w < workers; w++ {
		if cap(t.slabScratch[w]) < slabSize {
			t.slabScratch[w] = make([]uint32, slabSize)
		}
	}
	parutil.ForEachShard(nSlabs, workers, func(w, lo, hi int) {
		scratch := t.slabScratch[w][:cap(t.slabScratch[w])]
		for s := lo; s < hi; s++ {
			a := s * slabSize
			b := a + slabSize
			if b > n {
				b = n
			}
			sortutil.ByKey32(t.entries[a:b], t.scratchKeys, scratch)
		}
	})

	parutil.ForEachShard(t.leaves, workers, func(_, lo, hi int) {
		t.packLeaves(rects, lo, hi)
	})
	parutil.ForEachShard(n, workers, func(_, lo, hi int) {
		t.fillSlots(lo, hi)
	})
	t.packUpper()
}

// Query implements core.BoxIndex with an explicit-stack traversal over
// the inlined entry MBRs; the base table is never dereferenced. Leaves
// whose MBR is contained in r report their run without per-entry tests
// (entry rects are covered by the leaf MBR, so all intersect r). Each
// object lives in exactly one leaf, so emission is duplicate-free by
// construction.
func (t *BoxTree) Query(r geom.Rect, emit func(id uint32)) {
	if t.root < 0 {
		return
	}
	// Worst-case occupancy is height*(fanout-1)+1; 256 covers any
	// realistic configuration (fanout <= 64, height <= 5).
	var stack [256]int32
	top := 0
	stack[top] = t.root
	top++
	for top > 0 {
		top--
		nd := &t.nodes[stack[top]]
		if nd.leaf {
			if r.ContainsRect(nd.mbr) {
				for _, id := range t.entries[nd.first : nd.first+nd.count] {
					emit(id)
				}
			} else {
				for k := nd.first; k < nd.first+nd.count; k++ {
					if t.entryRects[k].Intersects(r) {
						emit(t.entries[k])
					}
				}
			}
			continue
		}
		for c := nd.first; c < nd.first+nd.count; c++ {
			if r.Intersects(t.nodes[c].mbr) {
				if top == len(stack) {
					// Beyond any realistic height*fanout; fall back to
					// recursion rather than overflow.
					t.queryRec(c, r, emit)
					continue
				}
				stack[top] = c
				top++
			}
		}
	}
}

func (t *BoxTree) queryRec(ni int32, r geom.Rect, emit func(id uint32)) {
	nd := &t.nodes[ni]
	if nd.leaf {
		for k := nd.first; k < nd.first+nd.count; k++ {
			if t.entryRects[k].Intersects(r) {
				emit(t.entries[k])
			}
		}
		return
	}
	for c := nd.first; c < nd.first+nd.count; c++ {
		if r.Intersects(t.nodes[c].mbr) {
			t.queryRec(c, r, emit)
		}
	}
}

// QueryAppend implements core.QueryAppender: the explicit-stack
// traversal of Query with results appended into buf. A leaf fully
// contained in r contributes its entry run as one bulk copy.
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

// refitNode recomputes node ni's exact MBR from its children (entry
// rects for a leaf, child MBRs otherwise), reporting whether it changed.
func (t *BoxTree) refitNode(ni int32) bool {
	nd := &t.nodes[ni]
	var mbr geom.Rect
	if nd.leaf {
		mbr = t.entryRects[nd.first]
		for k := nd.first + 1; k < nd.first+nd.count; k++ {
			mbr = mbr.Union(t.entryRects[k])
		}
	} else {
		mbr = t.nodes[nd.first].mbr
		for c := nd.first + 1; c < nd.first+nd.count; c++ {
			mbr = mbr.Union(t.nodes[c].mbr)
		}
	}
	if mbr == nd.mbr {
		return false
	}
	nd.mbr = mbr
	return true
}

// refitFrom recomputes exact MBRs from node ni up towards the root,
// stopping at the first unchanged node (its ancestors are exact covers
// of unchanged values, so they are still exact).
func (t *BoxTree) refitFrom(ni int32) {
	for ni >= 0 && t.refitNode(ni) {
		ni = t.parents[ni]
	}
}

// rebuildAt is the dirtiness threshold of the rebuild fallback: one
// refit per object since the last bulk load. The per-tick driver
// rebuilds every tick and never reaches it; sustained in-place update
// cycles (no interleaved Build) re-pack once drift has eroded the
// tiling.
func (t *BoxTree) rebuildAt() int { return len(t.entries) }

// rebuildFromEntries re-packs the tree from the patched entry
// coordinates: the current MBR of every object is scattered back to an
// ID-indexed scratch snapshot and bulk-loaded.
func (t *BoxTree) rebuildFromEntries(workers int) {
	cur := resizeRects(t.curScratch, len(t.entries))
	t.curScratch = cur
	for k, id := range t.entries {
		cur[id] = t.entryRects[k]
	}
	if workers > 1 {
		t.BuildParallel(cur, workers)
	} else {
		t.Build(cur)
	}
}

// Update implements core.BoxIndex: patch the moved entry's inlined MBR
// and refit its leaf and ancestors bottom-up (O(fanout * height) exact
// recomputes); past the dirtiness threshold, fall back to a rebuild.
func (t *BoxTree) Update(id uint32, old, new geom.Rect) {
	k := t.slots[id]
	t.entryRects[k] = new
	t.refitFrom(t.leafPos[int(k)/t.fanout])
	t.refitted++
	if t.refitted >= t.rebuildAt() {
		t.rebuildFromEntries(1)
	}
}

// CanBatchUpdates implements core.BoxBatchUpdater: the batched path pays
// off only for batches large enough to beat its setup.
func (t *BoxTree) CanBatchUpdates(n int) bool { return n >= minBoxTreeBatch }

// UpdateBatch implements core.BoxBatchUpdater. Coordinate patches shard
// across workers (slots are per-object, and a batch holds at most one
// move per object). The refit then runs as one bottom-up sweep: dirty
// leaves are marked, and nodes are recomputed in ascending node index
// order — children always precede parents in the arena, so each node is
// refit exactly once, after all its dirty children. MBRs are exact
// recomputes, so the final tree is the same one per-move Update calls
// produce. When the batch crosses the dirtiness threshold the refit is
// skipped entirely in favour of a sharded rebuild from the patched
// coordinates.
func (t *BoxTree) UpdateBatch(moves []geom.BoxMove, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 || len(moves) < minBoxTreeBatch {
		for i := range moves {
			t.Update(moves[i].ID, moves[i].Old, moves[i].New)
		}
		return
	}
	parutil.ForEachShard(len(moves), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			t.entryRects[t.slots[moves[i].ID]] = moves[i].New
		}
	})
	t.refitted += len(moves)
	if t.refitted >= t.rebuildAt() {
		t.rebuildFromEntries(workers)
		return
	}

	if cap(t.dirtyNodes) < len(t.nodes) {
		t.dirtyNodes = make([]bool, len(t.nodes))
	}
	dirty := t.dirtyNodes[:len(t.nodes)]
	for i := range moves {
		dirty[t.leafPos[int(t.slots[moves[i].ID])/t.fanout]] = true
	}
	for ni := range dirty {
		if !dirty[ni] {
			continue
		}
		dirty[ni] = false
		if t.refitNode(int32(ni)) {
			if p := t.parents[ni]; p >= 0 {
				dirty[p] = true
			}
		}
	}
}

// MemoryBytes implements core.MemoryReporter: nodes, entry arena with
// inlined coordinates, inverse permutation, parent/leaf indexes, and
// retained scratch.
func (t *BoxTree) MemoryBytes() int64 {
	const nodeBytes = 28 // 4 float32 MBR + first + count + leaf flag, packed
	total := int64(len(t.nodes)) * nodeBytes
	total += int64(cap(t.entries)+cap(t.slots)) * 4
	total += int64(cap(t.entryRects)+cap(t.curScratch)) * 16
	total += int64(cap(t.parents)+cap(t.leafPos)) * 4
	total += int64(cap(t.scratchIDs)+cap(t.scratchKeys)+cap(t.levelIdx)) * 4
	total += int64(cap(t.levelNodes)) * nodeBytes
	for _, s := range t.slabScratch {
		total += int64(cap(s)) * 4
	}
	total += int64(cap(t.dirtyNodes))
	return total
}

func resizeI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func resizeRects(s []geom.Rect, n int) []geom.Rect {
	if cap(s) < n {
		return make([]geom.Rect, n)
	}
	return s[:n]
}

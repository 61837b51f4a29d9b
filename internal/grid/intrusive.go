package grid

import "repro/internal/geom"

// intrusiveStore is the handle-based layout that explains the original
// framework's cheap grid updates (Table 2 reports 0.0029 s for ~25K
// removals+insertions, ~116 ns each — far too fast for a list search).
// Exactly one node exists per object, stored in a flat arena indexed BY
// object ID, so the arena doubles as the handle table: removal finds the
// node in O(1) and unlinks it from its cell's intrusive doubly-linked
// list. This is the u-grid / MOVIES object-table design (Šidlauskas et
// al., GIS 2009 — the paper's reference [8], which the refactoring is
// "based on").
//
// Per-node cost is 12 bytes (prev, next, cell as int32), plus one 4-byte
// head index per directory cell. Queries walk the per-cell list exactly
// like the linked layout, with one node hop per entry; the layout's win
// is the O(1) update path, which the "ext-handles" bench extension
// isolates.
type intrusiveStore struct {
	cells   []int32 // head node (object ID) per cell, -1 terminates
	nodes   []iNode // arena indexed by object ID
	entries int
	pts     []geom.Point
}

// iNode is one intrusive list node. prev/next hold object IDs (-1 for
// none); cell is the node's current cell, needed to fix the cell head on
// removal.
type iNode struct {
	prev, next int32
	cell       int32
}

// nilID terminates intrusive lists.
const nilID = int32(-1)

func newIntrusiveStore(cells, numPoints int) *intrusiveStore {
	st := &intrusiveStore{
		cells: make([]int32, cells),
	}
	if numPoints > 0 {
		st.nodes = make([]iNode, numPoints)
	}
	for i := range st.cells {
		st.cells[i] = nilID
	}
	return st
}

func (st *intrusiveStore) reset(pts []geom.Point) {
	for i := range st.cells {
		st.cells[i] = nilID
	}
	if cap(st.nodes) < len(pts) {
		st.nodes = make([]iNode, len(pts))
	}
	st.nodes = st.nodes[:len(pts)]
	// Mark every node unlinked: the zero iNode would otherwise read as
	// "linked after node 0 in cell 0" and a stray removal could corrupt
	// the lists instead of failing cleanly.
	for i := range st.nodes {
		st.nodes[i] = iNode{prev: nilID, next: nilID, cell: nilID}
	}
	st.entries = 0
	st.pts = pts
}

func (st *intrusiveStore) insertAt(c int, id uint32, p geom.Point) {
	if int(id) >= len(st.nodes) {
		// Update-inserted IDs beyond the build population (possible when
		// callers use the store directly): grow the arena with unlinked
		// nodes.
		grown := make([]iNode, id+1)
		copy(grown, st.nodes)
		for i := len(st.nodes); i < len(grown); i++ {
			grown[i] = iNode{prev: nilID, next: nilID, cell: nilID}
		}
		st.nodes = grown
	}
	head := st.cells[c]
	st.nodes[id] = iNode{prev: nilID, next: head, cell: int32(c)}
	if head != nilID {
		st.nodes[head].prev = int32(id)
	}
	st.cells[c] = int32(id)
	st.entries++
}

func (st *intrusiveStore) removeAt(c int, id uint32) bool {
	if int(id) >= len(st.nodes) {
		return false
	}
	n := st.nodes[id]
	if n.cell == nilID {
		return false // never inserted (or already removed)
	}
	// The handle knows the node's true cell; trust it over the caller's
	// geometric recomputation (they agree whenever the caller passes the
	// cell of the position the entry was inserted at).
	c = int(n.cell)
	if n.prev != nilID {
		st.nodes[n.prev].next = n.next
	} else {
		st.cells[c] = n.next
	}
	if n.next != nilID {
		st.nodes[n.next].prev = n.prev
	}
	st.nodes[id] = iNode{prev: nilID, next: nilID, cell: nilID}
	st.entries--
	return true
}

// appendRow is the whole-row kernel of the bucketStore interface: direct
// per-cell calls on the concrete store, no interface dispatch.
func (st *intrusiveStore) appendRow(r geom.Rect, base, xmin, xmax int, x cellWindow, buf []uint32) []uint32 {
	for cx := xmin; cx <= xmax; cx++ {
		if x.holds(cx) {
			buf = st.appendCell(base+cx, buf)
		} else if x.touches(cx) {
			buf = st.appendFilterCell(base+cx, r, buf)
		}
	}
	return buf
}

// appendCell implements store.
func (st *intrusiveStore) appendCell(c int, buf []uint32) []uint32 {
	for id := st.cells[c]; id != nilID; id = st.nodes[id].next {
		buf = append(buf, uint32(id))
	}
	return buf
}

// appendFilterCell appends the entries of cell c contained in r.
func (st *intrusiveStore) appendFilterCell(c int, r geom.Rect, buf []uint32) []uint32 {
	for id := st.cells[c]; id != nilID; id = st.nodes[id].next {
		if st.pts[id].In(r) {
			buf = append(buf, uint32(id))
		}
	}
	return buf
}

func (st *intrusiveStore) cellCount(c int) int {
	count := 0
	for id := st.cells[c]; id != nilID; id = st.nodes[id].next {
		count++
	}
	return count
}

func (st *intrusiveStore) totalEntries() int { return st.entries }

func (st *intrusiveStore) memoryBytes() int64 {
	return int64(len(st.cells))*4 + int64(len(st.nodes))*12
}

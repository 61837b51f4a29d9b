package grid

import "repro/internal/geom"

// linkedStore reproduces the original Simple Grid structure of Figure 3a.
//
// The grid directory is a contiguous array of (counter, pointer) cells:
// the integer counts the objects stored in the cell, the pointer
// references a singly-linked list of buckets. Each bucket holds a
// doubly-linked list of entry nodes, and each node points at the actual
// data entry. Reaching an entry's coordinates therefore costs
// cell -> bucket -> node -> data, the extra indirection hop the paper
// blames for much of the original implementation's cache-miss bill.
//
// Nodes and buckets are recycled through arenas and freelists so that
// per-tick rebuilds do not allocate in steady state (the C++ original
// used custom allocators the same way); the pointer-chasing access
// pattern is what matters and is preserved.
type linkedStore struct {
	bs    int
	cells []linkedCell

	nodeArena   []entryNode
	nodeFree    *entryNode
	bucketArena []linkedBucket
	bucketFree  *linkedBucket
	entries     int
	pts         []geom.Point
}

// linkedCell is the original 16-byte directory cell: the count (the
// "unnecessary integer" removed by the refactoring) plus the bucket
// pointer.
type linkedCell struct {
	count int32
	head  *linkedBucket
}

// linkedBucket matches the original 32-byte bucket: chain pointer, entry
// count, and the head of the doubly-linked entry list.
type linkedBucket struct {
	next  *linkedBucket
	count int32
	head  *entryNode
}

// entryNode matches the original 24-byte doubly-linked list node holding
// a pointer to the data entry. Go needs the entry ID alongside the data
// pointer (C++ recovered it from the record layout), which pads the node
// to 32 bytes; the indirection structure — the part that drives the
// memory behaviour — is identical.
type entryNode struct {
	prev, next *entryNode
	ptr        *geom.Point
	id         uint32
}

func newLinkedStore(cells, bs, numPoints int) *linkedStore {
	st := &linkedStore{
		bs:    bs,
		cells: make([]linkedCell, cells),
	}
	if numPoints > 0 {
		st.nodeArena = make([]entryNode, 0, numPoints)
		st.bucketArena = make([]linkedBucket, 0, numPoints/bs+cells)
	}
	return st
}

func (st *linkedStore) reset(pts []geom.Point) {
	for i := range st.cells {
		st.cells[i] = linkedCell{}
	}
	// Recycle wholesale: forget freelists and reuse the arenas from the
	// start. Arena nodes keep stale pointers until overwritten by insert,
	// which is fine because cells were just cleared.
	st.nodeArena = st.nodeArena[:0]
	st.nodeFree = nil
	st.bucketArena = st.bucketArena[:0]
	st.bucketFree = nil
	st.entries = 0
	st.pts = pts
}

func (st *linkedStore) allocNode() *entryNode {
	if n := st.nodeFree; n != nil {
		st.nodeFree = n.next
		*n = entryNode{}
		return n
	}
	if len(st.nodeArena) < cap(st.nodeArena) {
		st.nodeArena = st.nodeArena[:len(st.nodeArena)+1]
		n := &st.nodeArena[len(st.nodeArena)-1]
		*n = entryNode{}
		return n
	}
	// Arena exhausted (population grew): allocate individually. Appending
	// to the arena instead would move it and invalidate live pointers.
	return &entryNode{}
}

func (st *linkedStore) freeNode(n *entryNode) {
	n.prev, n.ptr = nil, nil
	n.next = st.nodeFree
	st.nodeFree = n
}

func (st *linkedStore) allocBucket() *linkedBucket {
	if b := st.bucketFree; b != nil {
		st.bucketFree = b.next
		*b = linkedBucket{}
		return b
	}
	if len(st.bucketArena) < cap(st.bucketArena) {
		st.bucketArena = st.bucketArena[:len(st.bucketArena)+1]
		b := &st.bucketArena[len(st.bucketArena)-1]
		*b = linkedBucket{}
		return b
	}
	return &linkedBucket{}
}

func (st *linkedStore) freeBucket(b *linkedBucket) {
	b.head = nil
	b.next = st.bucketFree
	st.bucketFree = b
}

func (st *linkedStore) insertAt(c int, id uint32, p geom.Point) {
	// The node references the data entry through the base snapshot, per
	// the secondary-index assumption; p itself is only used by layouts
	// that inline coordinates.
	ptr := &st.pts[id]
	cell := &st.cells[c]
	b := cell.head
	if b == nil || b.count >= int32(st.bs) {
		nb := st.allocBucket()
		nb.next = b
		cell.head = nb
		b = nb
	}
	n := st.allocNode()
	n.id = id
	n.ptr = ptr
	n.next = b.head
	if b.head != nil {
		b.head.prev = n
	}
	b.head = n
	b.count++
	cell.count++
	st.entries++
}

func (st *linkedStore) removeAt(c int, id uint32) bool {
	cell := &st.cells[c]
	var prevB *linkedBucket
	for b := cell.head; b != nil; b = b.next {
		for n := b.head; n != nil; n = n.next {
			if n.id != id {
				continue
			}
			if n.prev != nil {
				n.prev.next = n.next
			} else {
				b.head = n.next
			}
			if n.next != nil {
				n.next.prev = n.prev
			}
			st.freeNode(n)
			b.count--
			cell.count--
			st.entries--
			if b.count == 0 {
				if prevB != nil {
					prevB.next = b.next
				} else {
					cell.head = b.next
				}
				st.freeBucket(b)
			}
			return true
		}
		prevB = b
	}
	return false
}

// appendRow is the whole-row kernel of the bucketStore interface: direct
// per-cell calls on the concrete store, no interface dispatch.
func (st *linkedStore) appendRow(r geom.Rect, base, xmin, xmax int, x cellWindow, buf []uint32) []uint32 {
	for cx := xmin; cx <= xmax; cx++ {
		if x.holds(cx) {
			buf = st.appendCell(base+cx, buf)
		} else if x.touches(cx) {
			buf = st.appendFilterCell(base+cx, r, buf)
		}
	}
	return buf
}

// appendCell implements store. The node walk is the original
// structure's: its pointer chasing is the point of this layout.
func (st *linkedStore) appendCell(c int, buf []uint32) []uint32 {
	for b := st.cells[c].head; b != nil; b = b.next {
		for n := b.head; n != nil; n = n.next {
			buf = append(buf, n.id)
		}
	}
	return buf
}

// appendFilterCell appends the entries of cell c contained in r.
func (st *linkedStore) appendFilterCell(c int, r geom.Rect, buf []uint32) []uint32 {
	for b := st.cells[c].head; b != nil; b = b.next {
		for n := b.head; n != nil; n = n.next {
			if n.ptr.In(r) {
				buf = append(buf, n.id)
			}
		}
	}
	return buf
}

func (st *linkedStore) cellCount(c int) int { return int(st.cells[c].count) }

func (st *linkedStore) totalEntries() int { return st.entries }

// memoryBytes reports the structure's footprint using the node/bucket
// sizes of this implementation (32-byte nodes, 32-byte buckets, 16-byte
// directory cells), mirroring the n*(24+32/bs) + directory analysis of
// Section 3.1 with Go's sizes.
func (st *linkedStore) memoryBytes() int64 {
	const (
		cellBytes   = 16
		bucketBytes = 32
		nodeBytes   = 32
	)
	buckets := 0
	for i := range st.cells {
		for b := st.cells[i].head; b != nil; b = b.next {
			buckets++
		}
	}
	return int64(len(st.cells))*cellBytes + int64(buckets)*bucketBytes + int64(st.entries)*nodeBytes
}

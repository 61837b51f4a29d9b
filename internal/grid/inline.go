package grid

import (
	"math"

	"repro/internal/geom"
)

// inlineStore is the refactored Simple Grid structure of Figure 3b.
//
// The directory stores one bare bucket reference per cell (the counter is
// gone), and buckets hold entry references inline instead of a
// doubly-linked list of pointer nodes. Reaching an entry costs
// cell -> bucket -> data: one hop fewer than the original, and each
// 64-byte cache line now carries up to 16 entry IDs instead of two
// 32-byte list nodes.
//
// Buckets live in one contiguous uint32 arena and are addressed by slot
// offset, which keeps the whole structure in a handful of allocations and
// makes bucket references 4 bytes. Layout of a bucket at offset o:
//
//	arena[o]                 next bucket offset (nilOff terminates)
//	arena[o+1]               entry count
//	arena[o+2 : o+2+bs]      entry IDs
//	arena[o+2+bs : o+2+3bs]  (LayoutInlineXY only) x,y float32 bits
type inlineStore struct {
	bs       int
	slots    int // arena slots per bucket
	withXY   bool
	cells    []uint32
	arena    []uint32
	freeHead uint32
	next     uint32 // bump allocation cursor (in slots)
	live     int    // buckets currently in use
	entries  int
	pts      []geom.Point
}

// nilOff terminates bucket chains and the freelist.
const nilOff = ^uint32(0)

func newInlineStore(cells, bs, numPoints int, withXY bool) *inlineStore {
	slots := 2 + bs
	if withXY {
		slots += 2 * bs
	}
	st := &inlineStore{
		bs:       bs,
		slots:    slots,
		withXY:   withXY,
		cells:    make([]uint32, cells),
		freeHead: nilOff,
	}
	buckets := numPoints/bs + cells/4 + 16
	st.arena = make([]uint32, 0, buckets*slots)
	for i := range st.cells {
		st.cells[i] = nilOff
	}
	return st
}

func (st *inlineStore) reset(pts []geom.Point) {
	for i := range st.cells {
		st.cells[i] = nilOff
	}
	st.arena = st.arena[:0]
	st.freeHead = nilOff
	st.next = 0
	st.live = 0
	st.entries = 0
	st.pts = pts
}

func (st *inlineStore) allocBucket() uint32 {
	if st.freeHead != nilOff {
		off := st.freeHead
		st.freeHead = st.arena[off]
		st.arena[off] = nilOff
		st.arena[off+1] = 0
		st.live++
		return off
	}
	off := st.next
	need := int(off) + st.slots
	if need > len(st.arena) {
		if need > cap(st.arena) {
			grown := make([]uint32, need, need*2)
			copy(grown, st.arena)
			st.arena = grown
		} else {
			st.arena = st.arena[:need]
		}
	}
	st.arena[off] = nilOff
	st.arena[off+1] = 0
	st.next += uint32(st.slots)
	st.live++
	return off
}

func (st *inlineStore) freeBucket(off uint32) {
	st.arena[off] = st.freeHead
	st.freeHead = off
	st.live--
}

func (st *inlineStore) insertAt(c int, id uint32, p geom.Point) {
	head := st.cells[c]
	if head == nilOff || st.arena[head+1] >= uint32(st.bs) {
		nb := st.allocBucket()
		st.arena[nb] = head
		st.cells[c] = nb
		head = nb
	}
	n := st.arena[head+1]
	st.arena[head+2+n] = id
	if st.withXY {
		xy := head + 2 + uint32(st.bs) + 2*n
		st.arena[xy] = math.Float32bits(p.X)
		st.arena[xy+1] = math.Float32bits(p.Y)
	}
	st.arena[head+1] = n + 1
	st.entries++
}

func (st *inlineStore) removeAt(c int, id uint32) bool {
	head := st.cells[c]
	for b := head; b != nilOff; b = st.arena[b] {
		n := st.arena[b+1]
		for j := uint32(0); j < n; j++ {
			if st.arena[b+2+j] != id {
				continue
			}
			// Fill the hole with the most recently inserted entry (the
			// last slot of the head bucket), then shrink the head. This
			// keeps all buckets except the head exactly full.
			hn := st.arena[head+1] - 1
			st.arena[b+2+j] = st.arena[head+2+hn]
			if st.withXY {
				src := head + 2 + uint32(st.bs) + 2*hn
				dst := b + 2 + uint32(st.bs) + 2*j
				st.arena[dst] = st.arena[src]
				st.arena[dst+1] = st.arena[src+1]
			}
			st.arena[head+1] = hn
			if hn == 0 {
				st.cells[c] = st.arena[head]
				st.freeBucket(head)
			}
			st.entries--
			return true
		}
	}
	return false
}

// appendRow is the whole-row kernel of the store interface: the per-cell
// dispatch happens here as direct (inlinable) calls on the concrete store
// instead of interface calls per cell.
func (st *inlineStore) appendRow(r geom.Rect, base, xmin, xmax int, containsY, intersectsY bool, xs []float32, buf []uint32) []uint32 {
	x0 := xs[xmin]
	for cx := xmin; cx <= xmax; cx++ {
		x1 := xs[cx+1]
		c := base + cx
		if containsY && r.MinX <= x0 && x1 <= r.MaxX {
			buf = st.appendCell(c, buf)
		} else if intersectsY && x0 <= r.MaxX && r.MinX <= x1 {
			buf = st.appendFilterCell(c, r, buf)
		}
		x0 = x1
	}
	return buf
}

// appendCell implements store: each bucket's ID slots are one contiguous
// sub-slice of the arena, so a full bucket appends as a single copy.
func (st *inlineStore) appendCell(c int, buf []uint32) []uint32 {
	for b := st.cells[c]; b != nilOff; b = st.arena[b] {
		n := st.arena[b+1]
		buf = append(buf, st.arena[b+2:b+2+n]...)
	}
	return buf
}

// appendFilterCell appends the entries of cell c contained in r, with
// branchless compaction per bucket (see appendFilterPts for the sign
// trick): each bucket's ID slots are contiguous, so the bucket is reserved
// whole and survivors overwrite it in place, cursor advanced by the sign
// bit of the containment test. LayoutInlineXY tests the coordinates stored
// in the bucket itself, never dereferencing the base table (the locality
// refinement of Section 3.1 that the paper declines).
func (st *inlineStore) appendFilterCell(c int, r geom.Rect, buf []uint32) []uint32 {
	if st.withXY {
		for b := st.cells[c]; b != nilOff; b = st.arena[b] {
			n := st.arena[b+1]
			seg := st.arena[b+2 : b+2+n]
			xy := st.arena[b+2+uint32(st.bs):]
			k := len(buf)
			buf = append(buf, seg...)
			for j, id := range seg {
				x := math.Float32frombits(xy[2*j])
				y := math.Float32frombits(xy[2*j+1])
				m := math.Float32bits(x-r.MinX) | math.Float32bits(r.MaxX-x) |
					math.Float32bits(y-r.MinY) | math.Float32bits(r.MaxY-y)
				buf[k] = id
				k += 1 - int(m>>31)
			}
			buf = buf[:k]
		}
		return buf
	}
	pts := st.pts
	for b := st.cells[c]; b != nilOff; b = st.arena[b] {
		n := st.arena[b+1]
		seg := st.arena[b+2 : b+2+n]
		k := len(buf)
		buf = append(buf, seg...)
		for _, id := range seg {
			p := pts[id]
			m := math.Float32bits(p.X-r.MinX) | math.Float32bits(r.MaxX-p.X) |
				math.Float32bits(p.Y-r.MinY) | math.Float32bits(r.MaxY-p.Y)
			buf[k] = id
			k += 1 - int(m>>31)
		}
		buf = buf[:k]
	}
	return buf
}

// cellCount walks the chain: the refactored directory deliberately has no
// per-cell counter anymore.
func (st *inlineStore) cellCount(c int) int {
	total := 0
	for b := st.cells[c]; b != nilOff; b = st.arena[b] {
		total += int(st.arena[b+1])
	}
	return total
}

func (st *inlineStore) totalEntries() int { return st.entries }

// memoryBytes mirrors the refactored footprint analysis of Section 3.1:
// one reference per directory cell plus per-bucket storage, with no
// per-entry nodes.
func (st *inlineStore) memoryBytes() int64 {
	return int64(len(st.cells))*4 + int64(st.live*st.slots)*4
}

package memsim

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/workload"
)

// GridKind selects which Simple Grid implementation is simulated.
type GridKind int

const (
	// GridOriginal is the Figure 3a structure with the Algorithm 1
	// full-directory query scan — the "Before" row of Table 3.
	GridOriginal GridKind = iota
	// GridRefactored is the Figure 3b structure with the Algorithm 2
	// range scan — the "After" row of Table 3.
	GridRefactored
	// GridIntrusive is the handle-based u-grid layout (one 12-byte node
	// per object, O(1) updates) with the Algorithm 2 range scan; not a
	// Table 3 row, but the hardware-level completion of the update-path
	// ablation (bench extension "ext-handles").
	GridIntrusive
	// GridRTree is not a grid at all: the static STR-packed R-tree
	// (internal/rtree, simulated in rtreesim.go), so the profiler can
	// put the study's grid-vs-R-tree axis on Table-3 footing. BS is the
	// fanout; CPS is ignored.
	GridRTree
)

// String implements fmt.Stringer.
func (k GridKind) String() string {
	switch k {
	case GridOriginal:
		return "original"
	case GridIntrusive:
		return "intrusive"
	case GridRTree:
		return "rtree"
	default:
		return "refactored"
	}
}

// GridSimConfig fixes the simulated implementation and its tuning.
type GridSimConfig struct {
	Kind GridKind
	BS   int
	CPS  int
}

// PaperBefore is the configuration of Table 3's "Before" row: the
// original implementation at its own optimum (bs=4, cps=13).
func PaperBefore() GridSimConfig { return GridSimConfig{Kind: GridOriginal, BS: 4, CPS: 13} }

// PaperAfter is the configuration of Table 3's "After" row: the
// refactored implementation at its optimum (bs=20, cps=64).
func PaperAfter() GridSimConfig { return GridSimConfig{Kind: GridRefactored, BS: 20, CPS: 64} }

// Validate reports the first problem with the configuration, or nil.
func (c GridSimConfig) Validate() error {
	if c.Kind == GridRTree {
		if c.BS < 2 {
			return fmt.Errorf("memsim: rtree fanout (bs) must be >= 2, got %d", c.BS)
		}
		return nil
	}
	if c.BS <= 0 || c.CPS <= 0 {
		return fmt.Errorf("memsim: bs and cps must be positive, got bs=%d cps=%d", c.BS, c.CPS)
	}
	if c.Kind != GridOriginal && c.Kind != GridRefactored && c.Kind != GridIntrusive {
		return fmt.Errorf("memsim: unknown grid kind %d", int(c.Kind))
	}
	return nil
}

// Object sizes of the C++ implementations the paper analyses
// (Section 3.1): 16-byte directory cells with a counter, 32-byte buckets
// and 24-byte doubly-linked entry nodes before; 8-byte pointer-only cells
// and buckets holding 8-byte entry references inline after. The base
// table stores two 4-byte coordinates per point.
const (
	origCellBytes   = 16
	origBucketBytes = 32
	origNodeBytes   = 24
	refCellBytes    = 8
	refBucketHeader = 16
	refEntryBytes   = 8
	pointBytes      = 8
	intrNodeBytes   = 12 // prev, next, cell as 32-bit ints
	intrCellBytes   = 4  // head object ID per cell
)

// Instruction cost model (instructions per abstract operation). The
// absolute values are calibrated to the order of magnitude a compiled
// implementation needs; Table 3's message lives in the ratios, which are
// driven by how often each operation runs, not by these constants.
const (
	insCellVisit   = 10 // getCell + rectangle construction + predicate
	insBucketHop   = 4  // load next pointer, compare
	insNodeHop     = 5  // doubly-linked node traversal step
	insEntryScan   = 2  // advance within an inline entry array
	insPointTest   = 8  // load coordinates, two comparisons, branch
	insEmit        = 2  // report a result
	insQuerySetup  = 12 // query rectangle normalization
	insRangeSetup  = 16 // Algorithm 2 cell-range computation (divisions)
	insInsert      = 18 // cell lookup, bucket head maintenance
	insRemoveBase  = 12 // cell lookup and list fix-up on removal
	insSnapshotPer = 2  // per-point snapshot refresh (streaming copy)
)

// simGrid replays grid operations against the cache hierarchy. It keeps
// a functional shadow of the structure (so traversals are exact, not
// statistical) and threads every memory touch through h.
type simGrid struct {
	cfg    GridSimConfig
	h      *Hierarchy
	bounds geom.Rect
	scale  float32 // 2³² over the space's side, the real grid's mapper.scale

	pts       []geom.Point
	baseAddr  uint64
	dirAddr   uint64
	nodesAddr uint64 // intrusive layout: node arena base

	heap uint64 // bump allocator cursor

	// original layout shadow
	oCells []oCell
	oFree  *oNode
	oFreeB *oBucket

	// refactored layout shadow
	rCells []*rBucket
	rFree  *rBucket

	// intrusive layout shadow: one node per object ID
	iCells []int32
	iNodes []iNode
}

// iNode mirrors internal/grid's intrusive node for the simulation.
type iNode struct {
	prev, next int32
	cell       int32
}

// intrNilID terminates simulated intrusive lists.
const intrNilID = int32(-1)

type oNode struct {
	addr       uint64
	prev, next *oNode
	id         uint32
}

type oBucket struct {
	addr  uint64
	next  *oBucket
	count int
	head  *oNode
}

type oCell struct {
	count int
	head  *oBucket
}

type rBucket struct {
	addr uint64
	next *rBucket
	ids  []uint32
}

func newSimGrid(cfg GridSimConfig, h *Hierarchy, bounds geom.Rect, numPoints int) *simGrid {
	g := &simGrid{
		cfg:    cfg,
		h:      h,
		bounds: bounds,
		scale:  1 << 32 / bounds.Width(),
	}
	cells := cfg.CPS * cfg.CPS
	g.baseAddr = g.alloc(uint64(numPoints) * pointBytes)
	switch cfg.Kind {
	case GridOriginal:
		g.dirAddr = g.alloc(uint64(cells) * origCellBytes)
		g.oCells = make([]oCell, cells)
	case GridIntrusive:
		g.dirAddr = g.alloc(uint64(cells) * intrCellBytes)
		g.nodesAddr = g.alloc(uint64(numPoints) * intrNodeBytes)
		g.iCells = make([]int32, cells)
		g.iNodes = make([]iNode, numPoints)
	default:
		g.dirAddr = g.alloc(uint64(cells) * refCellBytes)
		g.rCells = make([]*rBucket, cells)
	}
	return g
}

// alloc hands out 16-byte-aligned synthetic addresses.
func (g *simGrid) alloc(size uint64) uint64 {
	addr := g.heap
	g.heap += (size + 15) &^ 15
	return addr
}

// axisCell maps an offset from the space's minimum to its cell on one axis
// as the real grid's mapper does, so that the simulated cells hold exactly
// the real grid's entries: to the fixed-point position F, the product
// clamped to [0, 2³²) (a NaN maps to 0), then the cell (F·cps) >> 32.
func (g *simGrid) axisCell(d float32) int {
	f := uint64(0)
	if d *= g.scale; d >= 1<<32 {
		f = 1<<32 - 1
	} else if d > 0 {
		f = uint64(d)
	}
	return int(f * uint64(g.cfg.CPS) >> 32)
}

func (g *simGrid) cellIndexFor(p geom.Point) int {
	return g.axisCell(p.Y-g.bounds.MinY)*g.cfg.CPS + g.axisCell(p.X-g.bounds.MinX)
}

// simAxis is a query window on one axis as the real grid's cell walk sees
// it (grid.cellWindow): the cells [lo, hi] it touches, and the cells
// [in0, in1] it holds whole, those strictly inside [lo, hi] and an edge
// cell where the window reaches past the space's bound.
type simAxis struct{ lo, hi, in0, in1 int }

func (g *simGrid) axis(lo, hi, min, max float32) simAxis {
	if !(lo <= hi) {
		return simAxis{1, 0, 1, 0}
	}
	a := simAxis{lo: g.axisCell(lo - min), hi: g.axisCell(hi - min)}
	a.in0, a.in1 = a.lo+1, a.hi-1
	if lo <= min {
		a.in0 = a.lo
	}
	if hi >= max {
		a.in1 = a.hi
	}
	return a
}

// window returns r's window on each axis.
func (g *simGrid) window(r geom.Rect) (x, y simAxis) {
	b := g.bounds
	return g.axis(r.MinX, r.MaxX, b.MinX, b.MaxX), g.axis(r.MinY, r.MaxY, b.MinY, b.MaxY)
}

// classify reports whether the window holds cell (cx, cy) whole, and
// whether it touches it.
func classify(x, y simAxis, cx, cy int) (holds, touches bool) {
	holds = x.in0 <= cx && cx <= x.in1 && y.in0 <= cy && cy <= y.in1
	touches = x.lo <= cx && cx <= x.hi && y.lo <= cy && cy <= y.hi
	return holds, touches
}

func (g *simGrid) cellAddr(c int) uint64 {
	return g.dirAddr + uint64(c)*uint64(cellBytes(g.cfg.Kind))
}

// nodeAddr returns the simulated address of intrusive node id.
func (g *simGrid) nodeAddr(id int32) uint64 {
	return g.nodesAddr + uint64(id)*intrNodeBytes
}

// build mirrors Grid.Build: refresh the snapshot (streaming write of the
// base table) and insert every point. Shadow structures are reset but
// simulated addresses are NOT re-randomized: like the real
// implementations, arenas are reused tick over tick.
func (g *simGrid) build(pts []geom.Point) {
	g.pts = pts
	g.h.Write(g.baseAddr, uint64(len(pts))*pointBytes)
	g.h.Exec(len(pts) * insSnapshotPer)
	switch g.cfg.Kind {
	case GridOriginal:
		for i := range g.oCells {
			g.oCells[i] = oCell{}
		}
		g.oFree, g.oFreeB = nil, nil
	case GridIntrusive:
		for i := range g.iCells {
			g.iCells[i] = intrNilID
		}
		for i := range g.iNodes {
			g.iNodes[i] = iNode{prev: intrNilID, next: intrNilID, cell: intrNilID}
		}
	default:
		for i := range g.rCells {
			g.rCells[i] = nil
		}
		g.rFree = nil
	}
	for i := range pts {
		g.insert(uint32(i), pts[i])
	}
}

func (g *simGrid) insert(id uint32, p geom.Point) {
	c := g.cellIndexFor(p)
	g.h.Exec(insInsert)
	g.h.Read(g.cellAddr(c), uint64(cellBytes(g.cfg.Kind)))
	switch g.cfg.Kind {
	case GridOriginal:
		g.insertOriginal(c, id)
	case GridIntrusive:
		g.insertIntrusive(c, id)
	default:
		g.insertRefactored(c, id)
	}
	g.h.Write(g.cellAddr(c), uint64(cellBytes(g.cfg.Kind)))
}

func (g *simGrid) insertIntrusive(c int, id uint32) {
	head := g.iCells[c]
	g.iNodes[id] = iNode{prev: intrNilID, next: head, cell: int32(c)}
	g.h.Write(g.nodeAddr(int32(id)), intrNodeBytes)
	if head != intrNilID {
		g.iNodes[head].prev = int32(id)
		g.h.Write(g.nodeAddr(head), intrNodeBytes)
	}
	g.iCells[c] = int32(id)
}

func cellBytes(k GridKind) int {
	switch k {
	case GridOriginal:
		return origCellBytes
	case GridIntrusive:
		return intrCellBytes
	default:
		return refCellBytes
	}
}

func (g *simGrid) insertOriginal(c int, id uint32) {
	cell := &g.oCells[c]
	b := cell.head
	if b == nil || b.count >= g.cfg.BS {
		nb := g.allocOBucket()
		nb.next = b
		nb.count = 0
		nb.head = nil
		cell.head = nb
		g.h.Write(nb.addr, origBucketBytes)
		b = nb
	} else {
		g.h.Read(b.addr, origBucketBytes)
	}
	n := g.allocONode()
	n.id = id
	n.prev = nil
	n.next = b.head
	g.h.Write(n.addr, origNodeBytes)
	if b.head != nil {
		b.head.prev = n
		g.h.Write(b.head.addr, origNodeBytes)
	}
	b.head = n
	b.count++
	cell.count++
	g.h.Write(b.addr, origBucketBytes)
}

func (g *simGrid) allocONode() *oNode {
	if n := g.oFree; n != nil {
		g.oFree = n.next
		return n
	}
	return &oNode{addr: g.alloc(origNodeBytes)}
}

func (g *simGrid) allocOBucket() *oBucket {
	if b := g.oFreeB; b != nil {
		g.oFreeB = b.next
		return b
	}
	return &oBucket{addr: g.alloc(origBucketBytes)}
}

func (g *simGrid) insertRefactored(c int, id uint32) {
	head := g.rCells[c]
	if head == nil || len(head.ids) >= g.cfg.BS {
		nb := g.allocRBucket()
		nb.next = head
		nb.ids = nb.ids[:0]
		g.rCells[c] = nb
		g.h.Write(nb.addr, refBucketHeader)
		head = nb
	} else {
		g.h.Read(head.addr, refBucketHeader)
	}
	g.h.Write(head.addr+refBucketHeader+uint64(len(head.ids))*refEntryBytes, refEntryBytes)
	head.ids = append(head.ids, id)
	g.h.Write(head.addr, refBucketHeader) // count update
}

func (g *simGrid) allocRBucket() *rBucket {
	if b := g.rFree; b != nil {
		g.rFree = b.next
		return b
	}
	return &rBucket{
		addr: g.alloc(refBucketHeader + uint64(g.cfg.BS)*refEntryBytes),
		ids:  make([]uint32, 0, g.cfg.BS),
	}
}

func (g *simGrid) remove(id uint32, p geom.Point) {
	c := g.cellIndexFor(p)
	g.h.Exec(insRemoveBase)
	g.h.Read(g.cellAddr(c), uint64(cellBytes(g.cfg.Kind)))
	switch g.cfg.Kind {
	case GridOriginal:
		g.removeOriginal(c, id)
	case GridIntrusive:
		g.removeIntrusive(id)
	default:
		g.removeRefactored(c, id)
	}
	g.h.Write(g.cellAddr(c), uint64(cellBytes(g.cfg.Kind)))
}

// removeIntrusive is the O(1) handle unlink: the node arena is indexed
// by object ID, so no search happens — the operation Table 2's original
// update numbers imply.
func (g *simGrid) removeIntrusive(id uint32) {
	n := g.iNodes[id]
	g.h.Read(g.nodeAddr(int32(id)), intrNodeBytes)
	if n.cell == intrNilID {
		panic(fmt.Sprintf("memsim: remove of unknown entry %d", id))
	}
	if n.prev != intrNilID {
		g.iNodes[n.prev].next = n.next
		g.h.Write(g.nodeAddr(n.prev), intrNodeBytes)
	} else {
		g.iCells[n.cell] = n.next
	}
	if n.next != intrNilID {
		g.iNodes[n.next].prev = n.prev
		g.h.Write(g.nodeAddr(n.next), intrNodeBytes)
	}
	g.iNodes[id] = iNode{prev: intrNilID, next: intrNilID, cell: intrNilID}
	g.h.Write(g.nodeAddr(int32(id)), intrNodeBytes)
}

func (g *simGrid) removeOriginal(c int, id uint32) {
	cell := &g.oCells[c]
	var prevB *oBucket
	for b := cell.head; b != nil; b = b.next {
		g.h.Read(b.addr, origBucketBytes)
		g.h.Exec(insBucketHop)
		for n := b.head; n != nil; n = n.next {
			g.h.Read(n.addr, origNodeBytes)
			g.h.Exec(insNodeHop)
			if n.id != id {
				continue
			}
			if n.prev != nil {
				n.prev.next = n.next
				g.h.Write(n.prev.addr, origNodeBytes)
			} else {
				b.head = n.next
			}
			if n.next != nil {
				n.next.prev = n.prev
				g.h.Write(n.next.addr, origNodeBytes)
			}
			n.next = g.oFree
			g.oFree = n
			b.count--
			cell.count--
			g.h.Write(b.addr, origBucketBytes)
			if b.count == 0 {
				if prevB != nil {
					prevB.next = b.next
					g.h.Write(prevB.addr, origBucketBytes)
				} else {
					cell.head = b.next
				}
				b.next = g.oFreeB
				g.oFreeB = b
			}
			return
		}
		prevB = b
	}
	panic(fmt.Sprintf("memsim: remove of unknown entry %d", id))
}

func (g *simGrid) removeRefactored(c int, id uint32) {
	head := g.rCells[c]
	for b := head; b != nil; b = b.next {
		g.h.Read(b.addr, refBucketHeader)
		g.h.Exec(insBucketHop)
		g.h.Read(b.addr+refBucketHeader, uint64(len(b.ids))*refEntryBytes)
		for j, v := range b.ids {
			g.h.Exec(insEntryScan)
			if v != id {
				continue
			}
			hn := len(head.ids) - 1
			b.ids[j] = head.ids[hn]
			g.h.Read(head.addr+refBucketHeader+uint64(hn)*refEntryBytes, refEntryBytes)
			g.h.Write(b.addr+refBucketHeader+uint64(j)*refEntryBytes, refEntryBytes)
			head.ids = head.ids[:hn]
			g.h.Write(head.addr, refBucketHeader)
			if hn == 0 {
				g.rCells[c] = head.next
				head.next = g.rFree
				g.rFree = head
			}
			return
		}
	}
	panic(fmt.Sprintf("memsim: remove of unknown entry %d", id))
}

// query mirrors the variant's range query and returns the result count.
func (g *simGrid) query(r geom.Rect) int {
	g.h.Exec(insQuerySetup)
	if g.cfg.Kind == GridOriginal {
		return g.queryFullScan(r)
	}
	return g.queryRangeScan(r)
}

// queryFullScan is Algorithm 1 over the original structure.
func (g *simGrid) queryFullScan(r geom.Rect) int {
	found := 0
	cps := g.cfg.CPS
	xw, yw := g.window(r)
	for cy := 0; cy < cps; cy++ {
		for cx := 0; cx < cps; cx++ {
			c := cy*cps + cx
			g.h.Exec(insCellVisit)
			g.h.Read(g.cellAddr(c), origCellBytes)
			if holds, touches := classify(xw, yw, cx, cy); holds {
				found += g.scanCellOriginal(c, nil)
			} else if touches {
				found += g.scanCellOriginal(c, &r)
			}
		}
	}
	return found
}

// queryRangeScan is Algorithm 2 over the refactored structure.
func (g *simGrid) queryRangeScan(r geom.Rect) int {
	g.h.Exec(insRangeSetup)
	found := 0
	cps := g.cfg.CPS
	xw, yw := g.window(r)
	for cy := yw.lo; cy <= yw.hi; cy++ {
		for cx := xw.lo; cx <= xw.hi; cx++ {
			c := cy*cps + cx
			g.h.Exec(insCellVisit)
			g.h.Read(g.cellAddr(c), uint64(cellBytes(g.cfg.Kind)))
			scan := g.scanCellRefactored
			if g.cfg.Kind == GridIntrusive {
				scan = g.scanCellIntrusive
			}
			if holds, _ := classify(xw, yw, cx, cy); holds {
				found += scan(c, nil)
			} else {
				found += scan(c, &r)
			}
		}
	}
	return found
}

// scanCellIntrusive walks cell c's intrusive list: one scattered node
// read per entry (the locality price of the O(1)-update design).
func (g *simGrid) scanCellIntrusive(c int, filter *geom.Rect) int {
	found := 0
	for id := g.iCells[c]; id != intrNilID; id = g.iNodes[id].next {
		g.h.Read(g.nodeAddr(id), intrNodeBytes)
		g.h.Exec(insNodeHop)
		if filter != nil {
			g.h.Read(g.baseAddr+uint64(id)*pointBytes, pointBytes)
			g.h.Exec(insPointTest)
			if !g.pts[id].In(*filter) {
				continue
			}
		}
		g.h.Exec(insEmit)
		found++
	}
	return found
}

// scanCellOriginal walks cell c's buckets and nodes; with a non-nil
// filter each entry's coordinates are fetched from the base table and
// tested.
func (g *simGrid) scanCellOriginal(c int, filter *geom.Rect) int {
	found := 0
	for b := g.oCells[c].head; b != nil; b = b.next {
		g.h.Read(b.addr, origBucketBytes)
		g.h.Exec(insBucketHop)
		for n := b.head; n != nil; n = n.next {
			g.h.Read(n.addr, origNodeBytes)
			g.h.Exec(insNodeHop)
			if filter != nil {
				g.h.Read(g.baseAddr+uint64(n.id)*pointBytes, pointBytes)
				g.h.Exec(insPointTest)
				if !g.pts[n.id].In(*filter) {
					continue
				}
			}
			g.h.Exec(insEmit)
			found++
		}
	}
	return found
}

// scanCellRefactored walks cell c's buckets, reading each bucket's entry
// run as one contiguous span.
func (g *simGrid) scanCellRefactored(c int, filter *geom.Rect) int {
	found := 0
	for b := g.rCells[c]; b != nil; b = b.next {
		g.h.Read(b.addr, refBucketHeader)
		g.h.Exec(insBucketHop)
		g.h.Read(b.addr+refBucketHeader, uint64(len(b.ids))*refEntryBytes)
		for _, id := range b.ids {
			g.h.Exec(insEntryScan)
			if filter != nil {
				g.h.Read(g.baseAddr+uint64(id)*pointBytes, pointBytes)
				g.h.Exec(insPointTest)
				if !g.pts[id].In(*filter) {
					continue
				}
			}
			g.h.Exec(insEmit)
			found++
		}
	}
	return found
}

// ProfileResult couples the hardware profile with the join statistics of
// the replayed run, so callers can verify both implementations computed
// the same join while disagreeing on cost.
type ProfileResult struct {
	Profile Profile
	Pairs   int64
	Queries int64
	Updates int64
}

// simIndex is the slice of the simulated-technique API the replay
// drives, implemented by simGrid and simRTree.
type simIndex interface {
	build(pts []geom.Point)
	query(r geom.Rect) int
	remove(id uint32, p geom.Point)
	insert(id uint32, p geom.Point)
}

// ProfileGrid replays the trace's full build/query/update cycle on the
// simulated implementation and returns the profile — one Table 3 row.
// ticks caps the replay (0 = all recorded ticks).
func ProfileGrid(cfg GridSimConfig, trace *workload.Trace, hcfg HierarchyConfig, ticks int) (ProfileResult, error) {
	if err := cfg.Validate(); err != nil {
		return ProfileResult{}, err
	}
	h, err := NewHierarchy(hcfg)
	if err != nil {
		return ProfileResult{}, err
	}
	if ticks <= 0 || ticks > len(trace.Ticks) {
		ticks = len(trace.Ticks)
	}
	bounds := trace.Config.Bounds()
	var g simIndex
	if cfg.Kind == GridRTree {
		g = newSimRTree(cfg.BS, h, len(trace.Initial))
	} else {
		g = newSimGrid(cfg, h, bounds, len(trace.Initial))
	}
	player := workload.NewPlayer(trace)
	snapshot := make([]geom.Point, len(trace.Initial))
	var res ProfileResult
	for t := 0; t < ticks; t++ {
		objs := player.Objects()
		for i := range objs {
			snapshot[i] = objs[i].Pos
		}
		g.build(snapshot)
		for _, q := range player.Queriers() {
			res.Pairs += int64(g.query(player.QueryRect(q)))
			res.Queries++
		}
		batch := player.Updates()
		for _, u := range batch {
			g.remove(u.ID, snapshot[u.ID])
			g.insert(u.ID, u.Pos)
			res.Updates++
		}
		player.ApplyUpdates(batch)
	}
	res.Profile = h.Report()
	return res, nil
}

// Package grid implements the Simple Grid spatial join technique in the
// two guises the paper studies:
//
//   - the original implementation (Figure 3a): a directory of
//     (counter, pointer) cells, each pointing to a singly-linked chain of
//     buckets, each bucket holding a doubly-linked list of per-entry nodes
//     that point at the data — and a query algorithm that scans the whole
//     directory (Algorithm 1);
//   - the refactored implementation (Figure 3b): a directory of bare
//     bucket references with entry IDs stored inline in the buckets, and a
//     query algorithm that visits only the cells overlapping the query
//     rectangle (Algorithm 2).
//
// The two differ only in implementation, not in the high-level algorithm:
// both partition space uniformly into cps x cps cells with buckets of
// capacity bs and answer range queries by examining intersecting cells.
// That is the paper's entire point. The ablation chain
// (Original -> +restructured -> +querying -> +bs tuned -> +cps tuned) is
// expressed as Config presets.
package grid

import (
	"fmt"

	"repro/internal/callback"
	"repro/internal/geom"
	"repro/internal/obs"
)

// Layout selects the physical representation of cells and buckets.
type Layout int

const (
	// LayoutLinked is the original structure: per-entry heap nodes in
	// doubly-linked lists hanging off linked buckets (Figure 3a).
	LayoutLinked Layout = iota
	// LayoutInline is the refactored structure: entry IDs stored directly
	// in bucket slots within a contiguous arena (Figure 3b).
	LayoutInline
	// LayoutInlineXY additionally stores each entry's coordinates next to
	// its ID. The paper mentions this locality refinement in Section 3.1
	// but does not adopt it because it breaks the secondary-index
	// assumption; it is provided here as an ablation extension.
	LayoutInlineXY
	// LayoutIntrusive is the handle-based u-grid design of the paper's
	// reference [8]: one arena node per object ID forming intrusive
	// per-cell doubly-linked lists, giving O(1) updates. Provided as an
	// ablation (the "ext-handles" extension) to isolate the update-path
	// cost of the bucketed layouts.
	LayoutIntrusive
	// LayoutCSR is the partition-based contiguous layout: a counting-sort
	// build places each cell's entry IDs in one dense slice of a single
	// arena (compressed-sparse-row), so cell scans are flat loops with no
	// bucket chains. The build runs on one core (see Grid). The layout is
	// static: Build is its one maintenance, Update a no-op, and it answers
	// by Algorithm 2 only (ScanRange). BS is irrelevant to this layout.
	LayoutCSR
	// LayoutCSRXY is LayoutCSR with each entry's coordinates scattered
	// into a float32 arena parallel to the ID arena, so filtered cells
	// test containment against arena-local data and never dereference the
	// base table — the Section 3.1 refinement the paper declines
	// (LayoutInlineXY), replayed on the contiguous layout.
	LayoutCSRXY
)

// String implements fmt.Stringer.
func (l Layout) String() string {
	switch l {
	case LayoutLinked:
		return "linked"
	case LayoutInline:
		return "inline"
	case LayoutInlineXY:
		return "inline+xy"
	case LayoutIntrusive:
		return "intrusive"
	case LayoutCSR:
		return "csr"
	case LayoutCSRXY:
		return "csr+xy"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// Scan selects the range query algorithm.
type Scan int

const (
	// ScanFull is Algorithm 1: traverse every grid cell and test it
	// against the query region.
	ScanFull Scan = iota
	// ScanRange is Algorithm 2: compute the overlapping cell range from
	// the query corners and visit only those cells.
	ScanRange
)

// String implements fmt.Stringer.
func (s Scan) String() string {
	switch s {
	case ScanFull:
		return "full-scan"
	case ScanRange:
		return "range-scan"
	default:
		return fmt.Sprintf("Scan(%d)", int(s))
	}
}

// Config fixes one point in the implementation space the paper explores.
type Config struct {
	Name   string // display name; empty derives one from the fields
	Layout Layout
	Scan   Scan
	BS     int // bucket size: max entries per bucket
	CPS    int // cells per side of the square grid directory
}

// The tuned parameter values the paper reports: bs=4, cps=13 are optimal
// for the original implementation (Figure 1); bs=20, cps=64 for the
// refactored one (Figure 5).
const (
	OriginalBS   = 4
	OriginalCPS  = 13
	RefactoredBS = 20
	// RefactoredCPS is the tuned cells-per-side for the refactored grid.
	RefactoredCPS = 64
)

// Original is the Simple Grid exactly as the original framework shipped
// it, with its own optimal tuning.
func Original() Config {
	return Config{Name: "Simple Grid", Layout: LayoutLinked, Scan: ScanFull, BS: OriginalBS, CPS: OriginalCPS}
}

// Restructured applies only the structural changes of Section 3.1
// (pointer-only directory, inline buckets).
func Restructured() Config {
	return Config{Name: "+restructured", Layout: LayoutInline, Scan: ScanFull, BS: OriginalBS, CPS: OriginalCPS}
}

// Querying additionally applies the Algorithm 2 query refactoring of
// Section 3.2.
func Querying() Config {
	return Config{Name: "+querying", Layout: LayoutInline, Scan: ScanRange, BS: OriginalBS, CPS: OriginalCPS}
}

// BSTuned additionally retunes the bucket size to the refactored optimum
// (Section 3.3, Figure 5a).
func BSTuned() Config {
	return Config{Name: "+bs tuned", Layout: LayoutInline, Scan: ScanRange, BS: RefactoredBS, CPS: OriginalCPS}
}

// CPSTuned additionally retunes the grid granularity (Section 3.3,
// Figure 5b). This is the final, best-performing configuration.
func CPSTuned() Config {
	return Config{Name: "+cps tuned", Layout: LayoutInline, Scan: ScanRange, BS: RefactoredBS, CPS: RefactoredCPS}
}

// CSR goes beyond the paper: the fully tuned grid with the
// contiguous counting-sort layout in place of inline buckets. BS is kept
// at the refactored value only to satisfy validation; the layout has no
// buckets.
func CSR() Config {
	return Config{Name: "+csr", Layout: LayoutCSR, Scan: ScanRange, BS: RefactoredBS, CPS: RefactoredCPS}
}

// CSRXY is CSR with coordinates inlined next to the IDs, removing the
// base-table dereference from filtered cells.
func CSRXY() Config {
	return Config{Name: "+csr xy", Layout: LayoutCSRXY, Scan: ScanRange, BS: RefactoredBS, CPS: RefactoredCPS}
}

// AblationChain returns the five configurations of Figure 4 and the lower
// half of Table 2, in paper order.
func AblationChain() []Config {
	return []Config{Original(), Restructured(), Querying(), BSTuned(), CPSTuned()}
}

// MaxCSRCPS is the finest granularity the CSR layouts accept. A label is
// uint32(row*cols + column) over cps² << columnShift columns, and the vector
// label kernel computes it in 32-bit lanes; at MaxCSRCPS the last label is
// exactly 2^32-1, one cps more and labels wrap. (That grid's directory is
// already tens of GB: the bound makes asking for more an error, not a
// runtime abort.)
const MaxCSRCPS = 1 << ((32 - columnShift) / 2)

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	switch {
	case c.BS <= 0:
		return fmt.Errorf("grid: bucket size must be positive, got %d", c.BS)
	case c.CPS <= 0:
		return fmt.Errorf("grid: cells per side must be positive, got %d", c.CPS)
	case (c.Layout == LayoutCSR || c.Layout == LayoutCSRXY) && c.CPS > MaxCSRCPS:
		return fmt.Errorf("grid: cells per side %d exceeds the CSR grid limit %d", c.CPS, MaxCSRCPS)
	case (c.Layout == LayoutCSR || c.Layout == LayoutCSRXY) && c.Scan == ScanFull:
		return fmt.Errorf("grid: layout %s answers by range scan only: the full scan (Algorithm 1) is the paper's ablation of the bucket layouts", c.Layout)
	case c.Layout != LayoutLinked && c.Layout != LayoutInline &&
		c.Layout != LayoutInlineXY && c.Layout != LayoutIntrusive &&
		c.Layout != LayoutCSR && c.Layout != LayoutCSRXY:
		return fmt.Errorf("grid: unknown layout %d", int(c.Layout))
	case c.Scan != ScanFull && c.Scan != ScanRange:
		return fmt.Errorf("grid: unknown scan %d", int(c.Scan))
	}
	return nil
}

// DisplayName returns the configured name or a derived one.
func (c Config) DisplayName() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("grid(%s,%s,bs=%d,cps=%d)", c.Layout, c.Scan, c.BS, c.CPS)
}

// store is what every layout keeps, and what the grid reads of it outside
// the query kernels: a cell's entries for the audit, a cell's count, and
// the sizes. The grid owns the geometry (cell mapping); stores only manage
// entries. A query goes to the CSR store's run list (csrStore.appendRuns)
// or a bucket store's rows (bucketStore.appendRow).
type store interface {
	// appendCell appends every entry of cell c, unfiltered: the audit's
	// per-cell reader (CheckInvariants).
	appendCell(c int, buf []uint32) []uint32
	cellCount(c int) int
	memoryBytes() int64
	totalEntries() int
}

// bucketStore is a store of the paper's bucket layouts (and the intrusive
// one), built entry by entry, maintained in place and queried a directory
// row at a time.
type bucketStore interface {
	store
	// appendRow is one directory row of Algorithm 1's cell body: for every
	// cell [base+xmin, base+xmax] it appends the cell's entries whole when
	// x holds it (x.holds), test-and-appends them when x touches it
	// (x.touches) and skips the cell otherwise. x is the window's x axis as
	// this row sees it (cellWindow.row): it holds no cell of a row the
	// window does not hold on y, and touches none of a row it does not
	// touch. One interface call covers the whole row: a per-cell dispatch
	// is the overhead the buffered kernel exists to kill.
	appendRow(r geom.Rect, base, xmin, xmax int, x cellWindow, buf []uint32) []uint32
	// reset clears all cells and retains the snapshot for coordinate
	// lookups during filtering.
	reset(pts []geom.Point)
	// insertAt adds entry id at point p to cell c.
	insertAt(c int, id uint32, p geom.Point)
	// removeAt deletes entry id from cell c, reporting whether it was
	// present.
	removeAt(c int, id uint32) bool
}

// mapper is every grid's one map from coordinates to integers. Each axis
// maps once, to a 32-bit fixed-point position F (fixed): the offset from
// the space's minimum times 2³² over its side, under axisIndex's clamp.
// Everything else is an integer function of F: a row, a cell or a column
// is (F·n) >> 32 over n of them (index), a box span the cells of its
// corners, a quantum F >> 16 (quantize). Each of those steps is monotone, so
// an integer of a coordinate strictly past that of a bound proves the
// coordinate past the bound, and only an equal one leaves the order open;
// the cell walk, the run path, the box classes and both quantised filters
// rest on that. Cell c of n begins at the integer ⌈c·2³²/n⌉, so no edge is
// searched for, and the columns of a CSR grid refine its cells exactly:
// (F·(n<<s)) >> 32 >> s is (F·n) >> 32. The products are 64-bit, below
// 2⁴⁹ at MaxCSRCPS << columnShift columns.
type mapper struct {
	minX, minY float32
	scale      float32 // 2³² over the space's side
	rows, cols int     // cells an axis, and x units a row: cells, or a CSR grid's columns
}

// fixedSteps is the number of fixed-point positions an axis is cut into.
const fixedSteps = 1 << 32

func newMapper(bounds geom.Rect, rows, cols int) mapper {
	return mapper{minX: bounds.MinX, minY: bounds.MinY, scale: fixedSteps / bounds.Width(), rows: rows, cols: cols}
}

// fixed maps an offset d from the space's minimum to its fixed-point
// position: one product, then axisIndex's clamp to [0, 2³²), its two tests
// in the order that keeps cellOf within the inliner's budget (a NaN fails
// both and maps to 0).
//
//joinlint:inline
func (m *mapper) fixed(d float32) uint32 {
	if d *= m.scale; d >= fixedSteps {
		return fixedSteps - 1
	}
	if d > 0 {
		return uint32(d)
	}
	return 0
}

// fixedOf returns p's fixed-point position on each axis.
//
//joinlint:inline
func (m *mapper) fixedOf(p geom.Point) (x, y uint32) {
	return m.fixed(p.X - m.minX), m.fixed(p.Y - m.minY)
}

// index is the cell, row or column of fixed-point position f over n of
// them.
//
//joinlint:inline
func index(f uint32, n int) int { return int(uint64(f) * uint64(n) >> 32) }

// cellOf maps a point to its cell index, clamping coordinates that fall
// on or outside the space boundary into the outermost cells: index of each
// axis, written out so that the bucket layouts' Build and Update inline it.
//
//joinlint:inline
func (m *mapper) cellOf(p geom.Point) int {
	n := uint64(m.rows)
	return int(uint64(m.fixed(p.Y-m.minY))*n>>32*n + uint64(m.fixed(p.X-m.minX))*n>>32)
}

// label maps a position (x, y) to its row's first x unit plus the unit of
// x: the cell for a grid of cells, and for a CSR grid its column, whose
// label >> shift is the cell.
//
//joinlint:inline
func (m *mapper) label(x, y uint32) uint32 { return uint32(index(y, m.rows)*m.cols + index(x, m.cols)) }

// quantize maps a position (x, y) to its quanta, 16 bits an axis,
// x | y<<16: the high halves of x and y.
//
//joinlint:inline
func quantize(x, y uint32) uint32 { return x>>16 | y&^(quantSteps-1) }

// labelOf and quantOf map a point to its label and its quanta: the
// definitions the build's mapping pass keeps (quantPoints) and the whole of
// it on the scalar tier.
func (m *mapper) labelOf(p geom.Point) uint32 { return m.label(m.fixedOf(p)) }

func (m *mapper) quantOf(p geom.Point) uint32 { return quantize(m.fixedOf(p)) }

// cellWindow is a query window on one axis of the cell walk: the cells
// [lo, hi] it touches and the cells [in0, in1] it holds whole, in the
// units of the axis' mapping. A cell strictly inside [lo, hi] is held by
// monotonicity (mapper); an edge cell only where the window reaches past
// the space's own bound, so that every entry mapped there in the space is
// inside the window too (an entry clamped there from outside the space is
// reported with it, core.IndexOf's input contract). A NaN or inverted
// window touches nothing.
type cellWindow struct{ lo, hi, in0, in1 int }

// noCells is the window that touches and holds no cell.
var noCells = cellWindow{1, 0, 1, 0}

// axisCells returns the window [lo, hi] on an axis of n cells over
// [min, max], its ends at fixed-point positions f0 and f1.
func axisCells(lo, hi float32, f0, f1 uint32, n int, min, max float32) cellWindow {
	if !(lo <= hi) {
		return noCells
	}
	w := cellWindow{lo: index(f0, n), hi: index(f1, n)}
	w.in0, w.in1 = w.lo+1, w.hi-1
	if lo <= min {
		w.in0 = w.lo
	}
	if hi >= max {
		w.in1 = w.hi
	}
	return w
}

// holds and touches report whether the window holds, or touches, cell c.
func (w *cellWindow) holds(c int) bool   { return w.in0 <= c && c <= w.in1 }
func (w *cellWindow) touches(c int) bool { return w.lo <= c && c <= w.hi }

// row returns x, the window's x axis, as row cy of the y axis w sees it:
// holding nothing unless w holds the row, touching nothing unless w
// touches it.
func (w *cellWindow) row(cy int, x cellWindow) cellWindow {
	if !w.holds(cy) {
		x.in0, x.in1 = noCells.in0, noCells.in1
	}
	if !w.touches(cy) {
		x.lo, x.hi = noCells.lo, noCells.hi
	}
	return x
}

// Grid is a uniform grid over a fixed square space. It implements
// core.Index. Build is its one build, in every layout and under core's
// parallel drivers too: the CSR layouts' sharded counting sort made the
// same arena and lost to Build at two workers (0.74–0.90 ms against
// 0.37–0.47 ms for 50 000 points at cps=64, on a 2-vCPU host), and the
// bucket layouts' parallel build was Build already.
type Grid struct {
	cfg    Config
	bounds geom.Rect
	cells  int
	// mapper maps a point to its row and its x unit: a cell, or for the
	// CSR layouts a column (the store's label).
	mapper mapper
	st     store
	// Exactly one of buckets and csr aliases st, so the dispatch in
	// Build, Update and QueryAppend is a nil check on csr.
	buckets bucketStore
	csr     *csrStore
	pts     []geom.Point
	// queries counts query-kernel entries (nil until Instrument).
	queries *obs.Counter
	// audit is CheckInvariants' reusable state (nil until first used).
	audit *occupancy
}

// New constructs a grid for the given space. numPoints sizes the arenas;
// it is a hint, not a limit.
func New(cfg Config, bounds geom.Rect, numPoints int) (*Grid, error) {
	return newGrid(cfg, bounds, numPoints, columnShift)
}

// newGrid is New with the CSR layouts' columns per cell (1<<shift) open, for
// the benchmark that backs columnShift.
func newGrid(cfg Config, bounds geom.Rect, numPoints int, shift uint) (*Grid, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !bounds.Valid() || bounds.Width() <= 0 || bounds.Height() <= 0 {
		return nil, fmt.Errorf("grid: invalid bounds %v", bounds)
	}
	if bounds.Width() != bounds.Height() {
		return nil, fmt.Errorf("grid: space must be square, got %v", bounds)
	}
	g := &Grid{
		cfg:    cfg,
		bounds: bounds,
		cells:  cfg.CPS * cfg.CPS,
		mapper: newMapper(bounds, cfg.CPS, cfg.CPS),
	}
	switch cfg.Layout {
	case LayoutLinked:
		g.buckets = newLinkedStore(g.cells, cfg.BS, numPoints)
	case LayoutInline:
		g.buckets = newInlineStore(g.cells, cfg.BS, numPoints, false)
	case LayoutInlineXY:
		g.buckets = newInlineStore(g.cells, cfg.BS, numPoints, true)
	case LayoutIntrusive:
		// The intrusive layout has no buckets; BS is irrelevant to it.
		g.buckets = newIntrusiveStore(g.cells, numPoints)
	case LayoutCSR, LayoutCSRXY:
		// The CSR layouts have no buckets either; BS is irrelevant to them.
		g.mapper.cols <<= shift
		g.csr = newCSRStore(g.cells, g.mapper, shift, numPoints, cfg.Layout == LayoutCSRXY)
		g.st = g.csr
		return g, nil
	}
	g.st = g.buckets
	return g, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config, bounds geom.Rect, numPoints int) *Grid {
	g, err := New(cfg, bounds, numPoints)
	if err != nil {
		panic(err)
	}
	return g
}

// KernelTier names, for run headers, the tier this process runs its vector
// kernels on — the branchless filters, the counting sorts' mapping pass and
// core's digest fold, which read one probe (internal/cpuid): "avx512"
// (filter_amd64.s, label_amd64.s, core's fold_amd64.s) or "generic" (their
// Go loops). Two hosts that differ in it differ by a quarter on a
// query-bound tick, and by a fifth on a build-bound one.
func KernelTier() string {
	if vectorKernels {
		return "avx512"
	}
	return "generic"
}

// Name implements core.Index.
func (g *Grid) Name() string { return g.cfg.DisplayName() }

// Config returns the grid's configuration.
func (g *Grid) Config() Config { return g.cfg }

// Bounds returns the indexed space.
func (g *Grid) Bounds() geom.Rect { return g.bounds }

// Build implements core.Index: it clears all cells and inserts the whole
// snapshot. Arenas and freelists are retained across builds, so steady-
// state builds allocate nothing. The CSR layout takes its bulk
// counting-sort path instead of per-entry inserts.
func (g *Grid) Build(pts []geom.Point) {
	g.pts = pts
	if g.csr != nil {
		g.csr.build(pts)
		return
	}
	g.buckets.reset(pts)
	for i := range pts {
		g.buckets.insertAt(g.mapper.cellOf(pts[i]), uint32(i), pts[i])
	}
}

// Update implements core.Index. The paper's bucket layouts (and the
// intrusive one) are maintained in place: the entry is removed from the
// cell of its old position and inserted into the cell of the new one. That
// is the paper's Table 2 update column, which internal/bench's paper
// protocol charges; the core drivers rebuild instead and never call it.
// The CSR layouts are static, like the box grids and the R-trees: Update
// is a no-op for them, and the next Build is what sees the move.
func (g *Grid) Update(id uint32, old, new geom.Point) {
	if g.csr != nil {
		return
	}
	if !g.buckets.removeAt(g.mapper.cellOf(old), id) {
		unknownEntry(id, old)
	}
	g.buckets.insertAt(g.mapper.cellOf(new), id, new)
}

func unknownEntry(id uint32, at geom.Point) {
	panic(fmt.Sprintf("grid: update of unknown entry %d at %v", id, at))
}

// Query implements core.Index: QueryAppend's result, one emit per ID.
func (g *Grid) Query(r geom.Rect, emit func(id uint32)) { callback.Query(g, r, emit) }

// QueryAppend implements core.QueryAppender, the grid's one query
// algorithm in both of the paper's forms: ScanFull (Algorithm 1) runs the
// cell body over the whole directory, ScanRange (Algorithm 2) over the
// cells the query corners span. Contained cells become straight sub-slice
// appends (a copy for the CSR layouts' interior columns) and filtered cells
// tight test-and-append loops, with no per-result indirect call anywhere.
//
// The window is mapped once, to the fixed-point positions of its corners:
// its cells on each axis (axisCells) and its quanta, which only the
// quantised CSR filter reads, are integer functions of those four. The
// intersection test matters even under Algorithm 2: when the query
// rectangle lies (partly) outside the space, clamping can place edge cells
// in the range that do not actually overlap r. A CSR grid hands the whole
// window to its run list (csrStore.appendRuns), a bucket layout each row to
// its store in ONE call. No row is skipped under ScanFull, even one that
// cannot intersect r: Algorithm 1's defining cost is the full directory
// traversal, so every cell gets its cell test.
//
//joinlint:hotpath
func (g *Grid) QueryAppend(r geom.Rect, buf []uint32) []uint32 {
	g.queries.Inc()
	m, b := &g.mapper, &g.bounds
	x0, y0 := m.fixedOf(geom.Point{X: r.MinX, Y: r.MinY})
	x1, y1 := m.fixedOf(geom.Point{X: r.MaxX, Y: r.MaxY})
	xw := axisCells(r.MinX, r.MaxX, x0, x1, m.cols, b.MinX, b.MaxX)
	yw := axisCells(r.MinY, r.MaxY, y0, y1, m.rows, b.MinY, b.MaxY)
	cps := g.cfg.CPS
	if g.csr != nil {
		return g.csr.appendRuns(r, quantWindow{quantize(x0, y0), quantize(x1, y1)}, cps, xw, yw, buf)
	}
	xmin, xmax, ymin, ymax := xw.lo, xw.hi, yw.lo, yw.hi
	if g.cfg.Scan == ScanFull {
		xmin, xmax, ymin, ymax = 0, m.cols-1, 0, m.rows-1
	}
	for cy := ymin; cy <= ymax; cy++ {
		buf = g.buckets.appendRow(r, cy*cps, xmin, xmax, yw.row(cy, xw), buf)
	}
	return buf
}

// Len implements core.Counter.
func (g *Grid) Len() int { return g.st.totalEntries() }

// CellCount returns the number of entries in the cell containing p,
// mirroring the directory counter of the original structure. Exposed for
// tests and for the memsim instrumentation to validate against.
func (g *Grid) CellCount(p geom.Point) int {
	return g.st.cellCount(g.mapper.cellOf(p))
}

// MemoryBytes implements core.MemoryReporter with the layout-dependent
// footprint the paper's Section 3.1 reasons about.
func (g *Grid) MemoryBytes() int64 { return g.st.memoryBytes() }

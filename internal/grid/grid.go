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
	"math"

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

// store is the layout-specific backend shared by both implementations.
// The Grid owns the geometry (cell mapping); stores only manage entries.
type store interface {
	// appendCell appends every entry of cell c, unfiltered: the audit's
	// per-cell reader (CheckInvariants).
	appendCell(c int, buf []uint32) []uint32
	// appendRow is one directory row of Algorithm 1's cell body, the one
	// query kernel: for every cell [base+xmin, base+xmax] it appends the
	// cell's entries whole when the cell is contained in r (only possible
	// when containsY holds; the x-halves of the predicates are tested
	// against xs), test-and-appends them when the cell intersects r (only
	// possible when intersectsY holds) and skips the cell otherwise. One
	// interface call covers the whole row: a per-cell dispatch is the
	// overhead the buffered kernel exists to kill. base is the row's first
	// cell; xmin, xmax and xs are in the units of Grid.cols, which are
	// cells for every layout but the CSR ones. qw is r in quanta, made
	// once a query for the quantised CSR filter and zero for every other
	// layout, which ignores it.
	appendRow(r geom.Rect, qw quantWindow, base, xmin, xmax int, containsY, intersectsY bool, xs []float32, buf []uint32) []uint32
	cellCount(c int) int
	memoryBytes() int64
	totalEntries() int
}

// bucketStore is a store of the paper's bucket layouts (and the intrusive
// one), built entry by entry and maintained in place.
type bucketStore interface {
	store
	// reset clears all cells and retains the snapshot for coordinate
	// lookups during filtering.
	reset(pts []geom.Point)
	// insertAt adds entry id at point p to cell c.
	insertAt(c int, id uint32, p geom.Point)
	// removeAt deletes entry id from cell c, reporting whether it was
	// present.
	removeAt(c int, id uint32) bool
}

// cellMapper maps points to cell indices. It is the part of the grid
// geometry the storage backends need for bulk builds, split out so the
// CSR store can map points without holding a *Grid.
type cellMapper struct {
	minX, minY float32
	invCell    float32
	cps        int
}

// axisCell maps an offset from the space's minimum to its cell on one
// axis: one product, then axisIndex's clamp.
//
//joinlint:inline
func (m cellMapper) axisCell(d float32) int { return axisIndex(d*m.invCell, m.cps) }

// cellIndexFor maps a point to its cell index, clamping coordinates that
// fall on or outside the space boundary into the outermost cells.
//
//joinlint:inline
func (m cellMapper) cellIndexFor(p geom.Point) int {
	return m.axisCell(p.Y-m.minY)*m.cps + m.axisCell(p.X-m.minX)
}

// edges returns one axis' cps+1 cell edge coordinates, exact with respect
// to axisCell: edge c is the least float32 the mapper sends to cell c, so
// every entry of cell c lies in [edges[c], edges[c+1]) and the walk's
// containment and intersection tests can never disagree with where the
// mapper put a point. min + c*cellSize alone is off by an ulp on either
// side whenever the cell width is not float32-exact (cps=48 on a 22000
// space, say), which made the walk skip, or copy whole, a cell holding a
// point within an ulp of its edge. The outer edges are the space's own:
// the mapper clamps everything beyond them into the border cells.
func (m cellMapper) edges(min, max, cellSize float32) []float32 {
	e := make([]float32, m.cps+1)
	e[0] = min
	for c := 1; c < m.cps; c++ {
		e[c] = m.leastOf(min, c)
	}
	e[m.cps] = min + float32(m.cps)*cellSize
	if e[m.cps] < max {
		e[m.cps] = max
	}
	return e
}

// leastOf is the least float32 x that axisCell(x-min) sends to cell c or
// beyond, for 0 < c < cps: a bisection over the order of the float32s
// between min, which maps to cell 0, and +Inf, which maps to cps-1. The
// map is monotone, so about 32 steps find the boundary wherever it lies.
// A walk one ulp at a time from min + c*cellSize finds the same float but
// not in bounded time: where that point is 0 and min is not, x-min does
// not change across about a billion floats around it (22 s for a grid
// over [-5, 5]).
func (m cellMapper) leastOf(min float32, c int) float32 {
	lo, hi := floatOrder(min), floatOrder(float32(math.Inf(1)))
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if m.axisCell(orderFloat(mid)-min) >= c {
			hi = mid
		} else {
			lo = mid
		}
	}
	return orderFloat(hi)
}

// floatOrder maps a float32 to an integer in the order of the float32s,
// and orderFloat maps it back: a float's IEEE bits, but for a negative
// float its magnitude's bits negated less one, so -0 is -1, just below
// +0's 0.
func floatOrder(f float32) int64 {
	b := math.Float32bits(f)
	if b>>31 != 0 {
		return -int64(b&0x7fffffff) - 1
	}
	return int64(b)
}

func orderFloat(k int64) float32 {
	if k < 0 {
		return math.Float32frombits(uint32(-(k + 1)) | 1<<31)
	}
	return math.Float32frombits(uint32(k))
}

// Grid is a uniform grid over a fixed square space. It implements
// core.Index. Build is its one build, in every layout and under core's
// parallel drivers too: the CSR layouts' sharded counting sort made the
// same arena and lost to Build at two workers (0.74–0.90 ms against
// 0.37–0.47 ms for 50 000 points at cps=64, on a 2-vCPU host), and the
// bucket layouts' parallel build was Build already.
type Grid struct {
	cfg      Config
	bounds   geom.Rect
	cellSize float32
	cells    int
	mapper   cellMapper
	// xs and ys hold the cps+1 cell edge coordinates per axis
	// (cellMapper.edges), computed once at construction so the query loops
	// do two loads per cell and no arithmetic.
	xs, ys []float32
	// cols and colXs are the x axis as QueryAppend hands it to appendRow:
	// the CSR layouts' columns (columnsOf) and their edges, mapper and xs
	// for every other layout.
	cols  cellMapper
	colXs []float32
	st    store
	// Exactly one of buckets and csr aliases st, so the dispatch in
	// Build/Update is a nil check on csr.
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
		cfg:      cfg,
		bounds:   bounds,
		cellSize: bounds.Width() / float32(cfg.CPS),
		cells:    cfg.CPS * cfg.CPS,
	}
	g.mapper = cellMapper{
		minX:    bounds.MinX,
		minY:    bounds.MinY,
		invCell: 1 / g.cellSize,
		cps:     cfg.CPS,
	}
	g.xs = g.mapper.edges(bounds.MinX, bounds.MaxX, g.cellSize)
	g.ys = g.mapper.edges(bounds.MinY, bounds.MaxY, g.cellSize)
	g.cols, g.colXs = g.mapper, g.xs
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
		g.cols = columnsOf(g.mapper, shift)
		g.colXs = g.cols.edges(bounds.MinX, bounds.MaxX, g.cellSize/float32(int(1)<<shift))
		g.csr = newCSRStore(g.cells, newColumnMapper(g.mapper, g.cols, bounds.Width()), shift, numPoints, cfg.Layout == LayoutCSRXY)
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

func (g *Grid) cellIndexFor(p geom.Point) int { return g.mapper.cellIndexFor(p) }

func (g *Grid) axisCell(d float32) int { return g.mapper.axisCell(d) }

// cellRect returns the spatial extent of cell (cx, cy), read from the
// precomputed edge tables so repeated calls cost two loads per axis.
func (g *Grid) cellRect(cx, cy int) geom.Rect {
	return geom.Rect{MinX: g.xs[cx], MinY: g.ys[cy], MaxX: g.xs[cx+1], MaxY: g.ys[cy+1]}
}

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
		g.buckets.insertAt(g.cellIndexFor(pts[i]), uint32(i), pts[i])
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
	if !g.buckets.removeAt(g.cellIndexFor(old), id) {
		unknownEntry(id, old)
	}
	g.buckets.insertAt(g.cellIndexFor(new), id, new)
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
//joinlint:hotpath
func (g *Grid) QueryAppend(r geom.Rect, buf []uint32) []uint32 {
	g.queries.Inc()
	if g.cfg.Scan == ScanFull {
		return g.scanCellRange(r, quantWindow{}, 0, g.cfg.CPS-1, 0, g.cfg.CPS-1, buf)
	}
	dx0, dx1 := r.MinX-g.bounds.MinX, r.MaxX-g.bounds.MinX
	dy0, dy1 := r.MinY-g.bounds.MinY, r.MaxY-g.bounds.MinY
	var qw quantWindow
	if st := g.csr; st != nil && st.xy == nil {
		m := &st.mapper
		qw = quantWindow{m.quantum(dx0) | m.quantum(dy0)<<16, m.quantum(dx1) | m.quantum(dy1)<<16}
	}
	return g.scanCellRange(r, qw, g.cols.axisCell(dx0), g.cols.axisCell(dx1), g.axisCell(dy0), g.axisCell(dy1), buf)
}

// scanCellRange runs lines 4-10 of Algorithm 1 over the inclusive cell
// range: append whole cells fully contained in r, filter cells that merely
// intersect it. The intersection test matters even under Algorithm 2:
// when the query rectangle lies (partly) outside the space, clamping can
// place edge cells in the range that do not actually overlap r.
//
// The y-halves of the predicates are decided here, from the precomputed
// edge tables, and every row goes to the store in ONE call — a direct one
// for the CSR layouts, an interface call for the others — its x range in
// the units of g.cols, and qw, r in quanta for the quantised CSR grid (zero
// for every other layout). No row is skipped, even one that cannot
// intersect r: Algorithm 1's defining cost is the full directory
// traversal, so under ScanFull every cell gets its cell test.
//
//joinlint:hotpath
func (g *Grid) scanCellRange(r geom.Rect, qw quantWindow, xmin, xmax, ymin, ymax int, buf []uint32) []uint32 {
	cps := g.cfg.CPS
	st := g.st
	// The CSR row kernel is called directly, with no itab load and no
	// indirect branch a row. Against the interface call alone, on a 2-vCPU
	// AVX-512 host, point_uniform's tick_ms read 2.925 against 2.976 ms
	// (medians of four interleaved 20 s runs; the direct call ahead in
	// all four pairs).
	csr, _ := st.(*csrStore)
	for cy := ymin; cy <= ymax; cy++ {
		y0, y1 := g.ys[cy], g.ys[cy+1]
		containsY := r.MinY <= y0 && y1 <= r.MaxY
		intersectsY := y0 <= r.MaxY && r.MinY <= y1
		if csr != nil {
			buf = csr.appendRow(r, qw, cy*cps, xmin, xmax, containsY, intersectsY, g.colXs, buf)
		} else {
			buf = st.appendRow(r, qw, cy*cps, xmin, xmax, containsY, intersectsY, g.colXs, buf)
		}
	}
	return buf
}

// Len implements core.Counter.
func (g *Grid) Len() int { return g.st.totalEntries() }

// CellCount returns the number of entries in the cell containing p,
// mirroring the directory counter of the original structure. Exposed for
// tests and for the memsim instrumentation to validate against.
func (g *Grid) CellCount(p geom.Point) int {
	return g.st.cellCount(g.cellIndexFor(p))
}

// MemoryBytes implements core.MemoryReporter with the layout-dependent
// footprint the paper's Section 3.1 reasons about.
func (g *Grid) MemoryBytes() int64 { return g.st.memoryBytes() }

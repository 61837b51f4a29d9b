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
	"runtime"

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
	// bucket chains. Builds shard across cores (see Grid.BuildParallel);
	// in-place updates run on segment slack plus a small per-cell
	// overflow. BS is irrelevant to this layout.
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

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	switch {
	case c.BS <= 0:
		return fmt.Errorf("grid: bucket size must be positive, got %d", c.BS)
	case c.CPS <= 0:
		return fmt.Errorf("grid: cells per side must be positive, got %d", c.CPS)
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
// The Grid owns the geometry (cell mapping); stores only manage buckets.
type store interface {
	// reset clears all cells and retains the snapshot for coordinate
	// lookups during filtering.
	reset(pts []geom.Point)
	// insertAt adds entry id at point p to cell c.
	insertAt(c int, id uint32, p geom.Point)
	// removeAt deletes entry id from cell c, reporting whether it was
	// present.
	removeAt(c int, id uint32) bool
	// scanCell invokes emit for all entries of cell c (no filtering).
	scanCell(c int, emit func(id uint32))
	// filterCell invokes emit for entries of cell c contained in r.
	filterCell(c int, r geom.Rect, emit func(id uint32))
	// appendRow is the buffered counterpart of one directory row of the
	// scanCellRange walk: for every cell [base+xmin, base+xmax] it appends
	// the cell's entries whole when the cell is contained in r (only
	// possible when containsY holds; the x-halves of the predicate are
	// tested against xs) and test-and-appends otherwise. One interface
	// call covers the whole row — the per-cell dispatch of the callback
	// walk is the exact overhead the buffered kernel exists to kill, so
	// it must not reappear here as a per-cell appendCell call. base is the
	// row's first cell; xmin, xmax and xs are in the units of Grid.cols,
	// which are cells for every layout but the CSR ones.
	appendRow(r geom.Rect, base, xmin, xmax int, containsY bool, xs []float32, buf []uint32) []uint32
	cellCount(c int) int
	memoryBytes() int64
	totalEntries() int
}

// cellMapper maps points to cell indices. It is the part of the grid
// geometry the storage backends need for bulk builds, split out so the
// CSR store can map points without holding a *Grid.
type cellMapper struct {
	minX, minY float32
	invCell    float32
	cps        int
}

//joinlint:inline
func (m cellMapper) axisCell(d float32) int {
	// Clamp in float space BEFORE truncating: converting an out-of-range
	// float to int is implementation-specific in Go (amd64 yields the
	// minimum int), so a coordinate far past the boundary would otherwise
	// clamp to the WRONG side — inverting the cell span of an MBR whose
	// other edge is in range. In-range values are unaffected.
	f := d * m.invCell
	if !(f > 0) { // also catches NaN
		return 0
	}
	if f >= float32(m.cps) {
		return m.cps - 1
	}
	return int(f)
}

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
		x := min + float32(c)*cellSize
		for m.axisCell(x-min) >= c {
			x = math.Nextafter32(x, float32(math.Inf(-1)))
		}
		for m.axisCell(x-min) < c {
			x = math.Nextafter32(x, float32(math.Inf(1)))
		}
		e[c] = x
	}
	e[m.cps] = min + float32(m.cps)*cellSize
	if e[m.cps] < max {
		e[m.cps] = max
	}
	return e
}

// Grid is a uniform grid over a fixed square space. It implements
// core.Index.
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
	// csr aliases st when the layout is CSR, so the bulk-path dispatch
	// in Build/BuildParallel/UpdateBatch is a nil check in one place.
	csr *csrStore
	pts []geom.Point
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
		g.st = newLinkedStore(g.cells, cfg.BS, numPoints)
	case LayoutInline:
		g.st = newInlineStore(g.cells, cfg.BS, numPoints, false)
	case LayoutInlineXY:
		g.st = newInlineStore(g.cells, cfg.BS, numPoints, true)
	case LayoutIntrusive:
		// The intrusive layout has no buckets; BS is irrelevant to it.
		g.st = newIntrusiveStore(g.cells, numPoints)
	case LayoutCSR, LayoutCSRXY:
		// The CSR layouts have no buckets either; BS is irrelevant to them.
		g.cols = columnsOf(g.mapper, shift)
		g.colXs = g.cols.edges(bounds.MinX, bounds.MaxX, g.cellSize/float32(int(1)<<shift))
		g.csr = newCSRStore(g.cells, newColumnMapper(g.mapper, g.cols), shift, numPoints,
			cfg.Layout == LayoutCSRXY, cfg.Scan == ScanRange)
		g.st = g.csr
	}
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

// Name implements core.Index.
// KernelTier names, for run headers, the tier this process runs the
// branchless filters on: "avx512" (filter_amd64.s) or "generic" (their Go
// loops). Two hosts that differ in it differ by a quarter on a query-bound tick.
func KernelTier() string {
	if vectorKernels {
		return "avx512"
	}
	return "generic"
}

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
		g.csr.build(pts, 1)
		return
	}
	g.st.reset(pts)
	for i := range pts {
		g.st.insertAt(g.cellIndexFor(pts[i]), uint32(i), pts[i])
	}
}

// minParallelBuild gates every sharded build path; below this population
// the fork/join overhead beats the win.
const minParallelBuild = 4096

// BuildParallel implements core.ParallelBuilder across all layouts (0
// workers selects GOMAXPROCS). The CSR layout builds by sharded counting
// sort and produces an arena bit-identical to Build; the bucket layouts
// (inline, linked, intrusive) build per-worker private chains spliced
// per cell (see parbuild.go), indistinguishable to Query/Update though
// chain order differs. Small populations fall back to the sequential
// Build.
func (g *Grid) BuildParallel(pts []geom.Point, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if g.csr != nil {
		g.pts = pts
		g.csr.build(pts, workers)
		return
	}
	if sb, ok := g.st.(spliceBuildStore); ok && workers > 1 && len(pts) >= minParallelBuild {
		g.pts = pts
		sb.buildParallel(pts, g.mapper, workers)
		return
	}
	g.Build(pts)
}

// Update implements core.Index: the grid is maintained in place by
// removing the entry from the cell of its old position and inserting it
// into the cell of the new one (the paper's Table 2 update column). The
// CSR layouts find the entry by its label and leave a move within one
// cell alone.
func (g *Grid) Update(id uint32, old, new geom.Point) {
	if g.csr != nil {
		g.csr.update(id, old, new)
		return
	}
	if !g.st.removeAt(g.cellIndexFor(old), id) {
		unknownEntry(id, old)
	}
	g.st.insertAt(g.cellIndexFor(new), id, new)
}

// minParallelMoves gates the box grids' sharded update paths: below this
// batch size the fork/join overhead exceeds the win.
const minParallelMoves = 2048

// CanBatchUpdates implements core.BatchUpdater: the CSR layouts have a
// bulk path at every batch size; the paper's layouts have none.
func (g *Grid) CanBatchUpdates(n int) bool { return g.csr != nil }

// UpdateBatch implements core.BatchUpdater. The CSR layouts validate the
// whole batch first, then relocate the few movers that cross a cell or
// re-scatter the arena over workers (csrStore.updateBatch; 0 selects
// GOMAXPROCS). Every other layout loops over Update.
func (g *Grid) UpdateBatch(moves []geom.Move, workers int) {
	if g.csr != nil {
		g.csr.updateBatch(moves, workers, rescatterPays)
		return
	}
	for i := range moves {
		g.Update(moves[i].ID, moves[i].Old, moves[i].New)
	}
}

// Query implements core.Index, dispatching on the configured algorithm.
func (g *Grid) Query(r geom.Rect, emit func(id uint32)) {
	g.queries.Inc()
	switch g.cfg.Scan {
	case ScanFull:
		g.queryFullScan(r, emit)
	default:
		g.queryRangeScan(r, emit)
	}
}

// queryFullScan is Algorithm 1: traverse all grid cells one by one; report
// whole cells fully contained in r, filter cells that merely intersect it.
func (g *Grid) queryFullScan(r geom.Rect, emit func(id uint32)) {
	g.scanCellRange(r, 0, g.cfg.CPS-1, 0, g.cfg.CPS-1, emit)
}

// queryRangeScan is Algorithm 2: compute the overlapping cell range from
// the query corners and run the Algorithm 1 cell body over that range
// only.
func (g *Grid) queryRangeScan(r geom.Rect, emit func(id uint32)) {
	xmin := g.axisCell(r.MinX - g.bounds.MinX)
	xmax := g.axisCell(r.MaxX - g.bounds.MinX)
	ymin := g.axisCell(r.MinY - g.bounds.MinY)
	ymax := g.axisCell(r.MaxY - g.bounds.MinY)
	g.scanCellRange(r, xmin, xmax, ymin, ymax, emit)
}

// scanCellRange runs lines 4-10 of Algorithm 1 over the inclusive cell
// range: report whole cells fully contained in r, filter cells that
// merely intersect it. The intersection test matters even under Algorithm
// 2: when the query rectangle lies (partly) outside the space, clamping
// can place edge cells in the range that do not actually overlap r.
//
// Cell rectangles come from the precomputed edge tables, and the y-axis
// halves of the containment and intersection predicates are hoisted out
// of the inner loop, so the per-cell work is two x comparisons per
// predicate and no arithmetic. Every cell in the range is still visited
// — Algorithm 1's defining cost is the full directory traversal, so
// rows that cannot intersect r must not be skipped wholesale.
func (g *Grid) scanCellRange(r geom.Rect, xmin, xmax, ymin, ymax int, emit func(id uint32)) {
	cps := g.cfg.CPS
	for cy := ymin; cy <= ymax; cy++ {
		y0, y1 := g.ys[cy], g.ys[cy+1]
		containsY := r.MinY <= y0 && y1 <= r.MaxY
		intersectsY := y0 <= r.MaxY && r.MinY <= y1
		base := cy * cps
		for cx := xmin; cx <= xmax; cx++ {
			x0, x1 := g.xs[cx], g.xs[cx+1]
			c := base + cx
			if containsY && r.MinX <= x0 && x1 <= r.MaxX {
				g.st.scanCell(c, emit)
			} else if intersectsY && x0 <= r.MaxX && r.MinX <= x1 {
				g.st.filterCell(c, r, emit)
			}
		}
	}
}

// QueryAppend implements core.QueryAppender: the same cell walk as
// Query with results appended to buf — contained cells become straight
// sub-slice appends (a copy for the CSR layout's dense segments) and
// filtered cells tight test-and-append loops, with no per-result
// indirect call anywhere.
//
//joinlint:hotpath
func (g *Grid) QueryAppend(r geom.Rect, buf []uint32) []uint32 {
	g.queries.Inc()
	if g.cfg.Scan == ScanFull {
		return g.scanCellRangeAppend(r, 0, g.cols.cps-1, 0, g.cfg.CPS-1, buf)
	}
	xmin := g.cols.axisCell(r.MinX - g.bounds.MinX)
	xmax := g.cols.axisCell(r.MaxX - g.bounds.MinX)
	ymin := g.axisCell(r.MinY - g.bounds.MinY)
	ymax := g.axisCell(r.MaxY - g.bounds.MinY)
	return g.scanCellRangeAppend(r, xmin, xmax, ymin, ymax, buf)
}

// scanCellRangeAppend is scanCellRange with the buffered row kernel:
// the y-halves of the predicates are decided here, rows that cannot
// overlap r are skipped, and each surviving row is handed to the store
// in ONE interface call (the per-cell dispatch of the callback walk is
// gone from the buffered path), its x range in the units of g.cols.
//
//joinlint:hotpath
func (g *Grid) scanCellRangeAppend(r geom.Rect, xmin, xmax, ymin, ymax int, buf []uint32) []uint32 {
	cps := g.cfg.CPS
	st := g.st
	for cy := ymin; cy <= ymax; cy++ {
		y0, y1 := g.ys[cy], g.ys[cy+1]
		containsY := r.MinY <= y0 && y1 <= r.MaxY
		if !containsY && !(y0 <= r.MaxY && r.MinY <= y1) {
			continue
		}
		buf = st.appendRow(r, cy*cps, xmin, xmax, containsY, g.colXs, buf)
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

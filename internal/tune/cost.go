package tune

import (
	"fmt"
	"math"
)

// Family enumerates the index families the selector chooses among: the
// three point-grid layouts the repo benchmarks against each other, and
// the three box structures (two grid variants and the STR R-tree — the
// cross-family axis).
type Family int

const (
	// PointInline is the paper's tuned refactored grid (inline buckets):
	// the update-cheapest point layout.
	PointInline Family = iota
	// PointCSR is the contiguous counting-sort layout: fastest
	// build+query at tuned granularities.
	PointCSR
	// PointCSRXY is CSR with coordinates inlined next to the IDs: wins
	// only at coarse grids, where filtered cells dominate.
	PointCSRXY
	// BoxCSR is the reference-point CSR rectangle grid.
	BoxCSR
	// BoxCSR2L is the two-layer class-partitioned rectangle grid:
	// fastest box queries at tuned granularities, higher build tax.
	BoxCSR2L
	// BoxRTree is the STR bulk-loaded box R-tree: replication-free,
	// granularity-independent build.
	BoxRTree

	numFamilies int = iota
)

// String returns the family's lineup-facing name.
func (f Family) String() string {
	switch f {
	case PointInline:
		return "inline"
	case PointCSR:
		return "csr"
	case PointCSRXY:
		return "csrxy"
	case BoxCSR:
		return "boxcsr"
	case BoxCSR2L:
		return "boxcsr2l"
	case BoxRTree:
		return "boxrtree"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// IsBox reports whether the family indexes rectangles.
func (f Family) IsBox() bool { return f >= BoxCSR }

// pointFamilies and boxFamilies are the candidate sets the selector
// sweeps.
var (
	pointFamilies = []Family{PointInline, PointCSR, PointCSRXY}
	boxFamilies   = []Family{BoxCSR, BoxCSR2L, BoxRTree}
)

// coeffs are one family's fitted hardware constants, all in
// nanoseconds per primitive. Shapes (below) count the primitives; a
// predicted cost is always shape·coefficient summed over primitives.
type coeffs struct {
	buildObj  float64 // per object replica scattered (grids) / per record packed (tree)
	buildCell float64 // per directory cell swept per build (grids) / per node packed (tree)
	queryCell float64 // per cell visited (grids) / per node visited (tree)
	queryCand float64 // per TESTED candidate (boundary cells: containment / dedup test)
	queryEmit float64 // per EMITTED candidate through the callback kernel (cells contained in the window: scan-and-emit, no per-candidate test for the layouts that can skip it)
	// queryEmitBuf is queryEmit remeasured through the buffered
	// QueryAppend kernel, where emission is a slice append (a bulk copy
	// for contained cells) instead of an indirect call per result. The
	// selector prices THIS constant — the engines drain buffered by
	// default — while queryEmit keeps the callback price for the
	// -querykernel emit path.
	queryEmitBuf float64
	update       float64 // per update primitive (replica edit / refit level)
}

// Model is a calibrated cost model: closed-form curves over the sampled
// Stats with per-family constants fitted by Calibrate's microbenchmarks.
type Model struct {
	c [numFamilies]coeffs
}

// --- shape functions: primitive counts, shared by prediction and fitting ---

// replication is the expected cells-per-object of a box grid at
// granularity p: an MBR of side m spans 1 + m/cell cells per axis in
// expectation.
func replication(s Stats, p int) float64 {
	cell := float64(s.Space.Width()) / float64(p)
	per := 1 + float64(s.MeanSide)/cell
	return per * per
}

// gridBuildShape returns the two build primitive counts of a grid at
// granularity p: replica scatters and directory-cell sweeps. repl is 1
// for point grids.
func gridBuildShape(s Stats, p int, repl float64) (obj, cells float64) {
	return float64(s.N) * repl, float64(p) * float64(p)
}

// gridQueryShape returns the query primitive counts of a grid at
// granularity p for one window of side s.QuerySide: cells visited,
// candidates TESTED (in cells the window merely intersects, where every
// entry takes a containment or dedup test), and candidates EMITTED (in
// cells the window fully contains, which the grids scan without a
// per-entry test — the term that makes fine grids cheap on coarse
// windows, the two-layer classed grid most of all). repl is 1 for point
// grids.
func gridQueryShape(s Stats, p int, repl float64) (cells, tested, emitted float64) {
	side := float64(s.Space.Width())
	cell := side / float64(p)
	q := float64(s.QuerySide)
	perAxis := q/cell + 1
	cells = perAxis * perAxis
	frac := (q + cell) / side
	if frac > 1 {
		frac = 1
	}
	cands := s.Skew * float64(s.N) * repl * frac * frac
	containedPerAxis := q/cell - 1
	if containedPerAxis < 0 {
		containedPerAxis = 0
	}
	containedFrac := (containedPerAxis / perAxis) * (containedPerAxis / perAxis)
	emitted = cands * containedFrac
	tested = cands - emitted
	return cells, tested, emitted
}

// rtreeNodes is the total node count of an STR tree over n records at
// the given fanout (≈ n/(f−1), summed geometric levels).
func rtreeNodes(n, fanout int) float64 {
	if n <= 0 {
		return 0
	}
	total := 0.0
	for level := ceilDiv(n, fanout); ; level = ceilDiv(level, fanout) {
		total += float64(level)
		if level <= 1 {
			break
		}
	}
	return total
}

// rtreeQueryShape returns the query primitive counts of an STR box tree
// at the given fanout: nodes visited (all levels) and leaf candidates
// examined. Level-ℓ tiles cover ~f^(ℓ+1) objects, so their side is
// S·√(f^(ℓ+1)/N); a window of side q overlaps a tile iff their centres
// fall within (q + tile + m)/2 per axis — the Minkowski count the model
// sums per level.
func rtreeQueryShape(s Stats, fanout int) (nodes, cands float64) {
	n := s.N
	if n <= 0 {
		return 1, 0
	}
	side := float64(s.Space.Width())
	q := float64(s.QuerySide)
	m := float64(s.MeanSide)
	covered := float64(fanout)
	for count := ceilDiv(n, fanout); ; count = ceilDiv(count, fanout) {
		tile := side * math.Sqrt(math.Min(1, covered/float64(n)))
		frac := (q + tile + m) / side
		if frac > 1 {
			frac = 1
		}
		v := s.Skew * float64(count) * frac * frac
		if v > float64(count) {
			v = float64(count)
		}
		if v < 1 {
			v = 1
		}
		nodes += v
		if count <= 1 {
			break
		}
		covered *= float64(fanout)
	}
	// Candidates: entries of the visited leaves. Recompute the leaf term
	// directly (first level).
	leafTile := side * math.Sqrt(math.Min(1, float64(fanout)/float64(n)))
	frac := (q + leafTile + m) / side
	if frac > 1 {
		frac = 1
	}
	leaves := s.Skew * float64(ceilDiv(n, fanout)) * frac * frac
	if leaves > float64(ceilDiv(n, fanout)) {
		leaves = float64(ceilDiv(n, fanout))
	}
	if leaves < 1 {
		leaves = 1
	}
	cands = leaves * float64(fanout)
	if cands > float64(n) {
		cands = float64(n)
	}
	return nodes, cands
}

// rtreeHeight is the refit path length of an in-place move.
func rtreeHeight(n, fanout int) float64 {
	if n <= 0 {
		return 1
	}
	h := 1.0
	for count := ceilDiv(n, fanout); count > 1; count = ceilDiv(count, fanout) {
		h++
	}
	return h
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// --- predicted costs ---

// BuildNs predicts one build over the full snapshot for family f at
// parameter p (grid cells-per-side, or R-tree fanout).
func (m *Model) BuildNs(f Family, s Stats, p int) float64 {
	c := m.c[f]
	switch f {
	case BoxRTree:
		return c.buildObj*float64(s.N) + c.buildCell*rtreeNodes(s.N, p)
	case BoxCSR, BoxCSR2L:
		obj, cells := gridBuildShape(s, p, replication(s, p))
		return c.buildObj*obj + c.buildCell*cells
	default:
		obj, cells := gridBuildShape(s, p, 1)
		return c.buildObj*obj + c.buildCell*cells
	}
}

// QueryNs predicts one range query of side s.QuerySide through the
// BUFFERED kernel — the engines' default drain path — so the emitted
// term is priced at queryEmitBuf.
func (m *Model) QueryNs(f Family, s Stats, p int) float64 {
	c := m.c[f]
	switch f {
	case BoxRTree:
		nodes, cands := rtreeQueryShape(s, p)
		return c.queryCell*nodes + c.queryCand*cands
	case BoxCSR, BoxCSR2L:
		cells, tested, emitted := gridQueryShape(s, p, replication(s, p))
		return c.queryCell*cells + c.queryCand*tested + c.queryEmitBuf*emitted
	default:
		cells, tested, emitted := gridQueryShape(s, p, 1)
		return c.queryCell*cells + c.queryCand*tested + c.queryEmitBuf*emitted
	}
}

// UpdateNs predicts one in-place move. For the R-tree it includes the
// amortized cost of the dirtiness-threshold rebuild (one rebuild per N
// refits — see rtree.BoxTree), which is what prices it out of
// update-dominated ticks. The CSR point grids take a tick's moves as one
// batch and, once many of them cross a cell, re-scatter the arena instead
// of relocating them one by one (grid.csrStore.updateBatch): a move then
// costs the cheaper of the calibrated relocation and its share of one
// build's worth of scatter — a share that grows with the directory, so a
// churn-heavy mix is never promised cheaper updates from finer cells.
func (m *Model) UpdateNs(f Family, s Stats, p int) float64 {
	c := m.c[f]
	switch f {
	case BoxRTree:
		amortized := 0.0
		if s.N > 0 {
			amortized = m.BuildNs(f, s, p) / float64(s.N)
		}
		return c.update*rtreeHeight(s.N, p) + amortized
	case BoxCSR, BoxCSR2L:
		return c.update * replication(s, p)
	case PointCSR, PointCSRXY:
		if movers := s.Updaters * float64(s.N); movers > 0 {
			return math.Min(c.update, m.BuildNs(f, s, p)/movers)
		}
		return c.update
	default:
		return c.update
	}
}

// TickNs predicts one full tick of the iterated join: one build, the
// tick's queries, and the tick's updates, at the sampled mix.
func (m *Model) TickNs(f Family, s Stats, p int) float64 {
	queries := s.Queriers * float64(s.N)
	updates := s.Updaters * float64(s.N)
	return m.BuildNs(f, s, p) + queries*m.QueryNs(f, s, p) + updates*m.UpdateNs(f, s, p)
}

// Coeffs exposes one family's fitted constants (for tests and the
// README's worked example).
func (m *Model) Coeffs(f Family) (buildObj, buildCell, queryCell, queryCand, queryEmit, queryEmitBuf, update float64) {
	c := m.c[f]
	return c.buildObj, c.buildCell, c.queryCell, c.queryCand, c.queryEmit, c.queryEmitBuf, c.update
}

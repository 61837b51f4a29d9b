// Package core implements the iterated spatial join framework of Sowell et
// al. (PVLDB 2013) that the paper's experiments run inside: discrete
// ticks, each with a build phase, a query phase, and an update phase,
// timed separately.
//
// The techniques under study belong to the framework's "static index
// nested loop join" category: a static index over the current positions is
// built at the start of every tick, the join is computed by probing that
// index once per querier, and updates are batched and applied at the end
// of the tick so all queries observe the state as of the previous tick.
//
// The sequential contract is declared once below, generically over the
// object geometry P (IndexOf, ParallelBuilderOf, FactoryOf); Index /
// BoxIndex and the other per-geometry names are aliases of its point and
// box instantiations, so a wrapper or driver written over P serves both.
//
// Queries run through one of two kernels (querykernel.go): the classic
// per-result callback (IndexOf.Query) and the buffered append
// (QueryAppender.QueryAppend, zero allocations per query at steady
// state). Each family implements its query once: the grids, the R-trees
// and the shard engines natively as QueryAppend, with Query derived from
// it (package callback), and the paper's baseline contenders (binsearch,
// crtree, kdtrie) and the BruteForce oracles natively as Query. The
// buffered kernel is an optional capability detected via QueryAppendOf,
// so wrappers (epoch, shard, tune) forward it and an index without one
// falls back to a callback adapter; Options.Kernel selects the kernel a
// driver run uses. Both must report identical result sets — only speed
// may differ.
package core

import "repro/internal/geom"

// IndexOf is the contract every spatial join technique implements,
// stated once over the object geometry P: geom.Point for the paper's
// point workloads (Index), geom.Rect for the MBR workloads of the
// non-point extension (BoxIndex). A point is the degenerate, one-cell
// rectangle of the same contract; what the geometry widens is only what
// "matches" means in Query.
//
// The framework follows the secondary-index assumption of the original
// study: indexes store object IDs (or pointers to ID-holding entries) and
// read coordinates from the base snapshot passed to Build; they never own
// or update the base data.
//
// Input contract: every position (every MBR corner) handed to Build and
// Update is finite and lies inside the Params.Bounds the index was
// constructed for. Outside it no call panics, and beyond that:
//
//   - An object out of bounds, or at an infinite coordinate, gets
//     unspecified results itself (the space-partitioning families clamp it
//     into an edge cell and report it wholesale when the cell is
//     contained, where BruteForce would not), but CheckInvariants stays
//     nil and the in-contract objects of the same build are still
//     reported exactly.
//   - An inverted MBR (MinX > MaxX or MinY > MaxY) gets unspecified
//     results itself and, like an out-of-bounds one, leaves the audit and
//     the in-contract objects intact. The grids hold it in no cell: an
//     inverted cell span has none. Only where the inverted edges fall in
//     one cell is the span upright, and then it is held in those cells,
//     the cells of its normalised span.
//   - A NaN coordinate makes the whole build unspecified: it poisons the
//     MBRs of the tree families, which then miss in-contract neighbours;
//     the audits of the layouts that inline coordinates compare their
//     copies with != and report the NaN itself; and two indexes may
//     disagree on whether it matches (the sign-bit filters of the append
//     kernels admit NaN, Point.In does not).
//
// internal/bench's TestInputContractPoints / TestInputContractBoxes
// assert exactly this over both lineups.
type IndexOf[P any] interface {
	// Name identifies the technique in reports.
	Name() string

	// Build (re)constructs the index over the snapshot, where object i
	// has geometry snap[i] (its position, or its MBR). The slice remains
	// valid and unchanged until the next Build call, so implementations
	// may retain it.
	Build(snap []P)

	// Query reports the ID of every object whose geometry matches r — a
	// point lying in r, an MBR intersecting r (closed rectangles, so
	// touching edges match) — in unspecified order, by calling emit
	// EXACTLY ONCE per matching object. Duplicate-free emission is part
	// of the contract: techniques that replicate objects across
	// partitions must deduplicate internally (e.g. by the reference-point
	// method) rather than leave it to the caller.
	Query(r geom.Rect, emit func(id uint32))

	// Update informs the index that object id moved from old to new.
	// Techniques that are rebuilt from the snapshot may simply ignore
	// this; the in-place families, the paper's bucket grids (grid's
	// linked, inline, inline+xy and intrusive layouts), relocate the
	// entry. The static families ignore it: binsearch, both point R-trees
	// (rtree.Tree, crtree), kdtrie, the CSR point grids (grid's csr and
	// csr+xy layouts), the box grids (grid.BoxGrid, grid.BoxGrid2L), the
	// box R-tree (rtree.BoxTree), the shard routers and the brute-force
	// oracles. No driver calls it — the next Build,
	// the epoch wrapper's included, rebuilds the index before any query
	// could see the move. Its callers are internal/bench's paper
	// protocol (MaintainInPlace), which charges it to Table 2's update
	// column, and two examples; each builds before it queries.
	Update(id uint32, old, new P)
}

// Index is the point contract, BoxIndex the contract over extended
// objects (rectangles/MBRs): the two instantiations of IndexOf.
type (
	Index    = IndexOf[geom.Point]
	BoxIndex = IndexOf[geom.Rect]
)

// ParallelBuilderOf is an optional interface for indexes whose Build can
// shard the snapshot across worker goroutines. RunParallel and
// RunBoxesParallel use it when present; the result must be
// indistinguishable from Build(snap) to every subsequent Query/Update
// call. workers <= 0 selects GOMAXPROCS.
type ParallelBuilderOf[P any] interface {
	BuildParallel(snap []P, workers int)
}

// ParallelBuilder and BoxParallelBuilder are ParallelBuilderOf for point
// and box indexes.
type (
	ParallelBuilder    = ParallelBuilderOf[geom.Point]
	BoxParallelBuilder = ParallelBuilderOf[geom.Rect]
)

// BatchUpdaterOf is a batch form of Update over the move record M
// (geom.Move, geom.BoxMove): the result must equal one Update per move in
// order. It is implemented by no index in the tree; it is kept until a
// benchmark issue removes the traced decorator's forwarding.
type BatchUpdaterOf[M any] interface {
	UpdateBatch(moves []M, workers int)
	CanBatchUpdates(n int) bool
}

// BatchUpdater and BoxBatchUpdater are BatchUpdaterOf for points and
// boxes, kept for the same reason.
type (
	BatchUpdater    = BatchUpdaterOf[geom.Move]
	BoxBatchUpdater = BatchUpdaterOf[geom.BoxMove]
)

// Counter is an optional interface for indexes that can report their
// cardinality, used by invariant checks in tests.
type Counter interface {
	// Len returns the number of entries currently indexed.
	Len() int
}

// MemoryReporter is an optional interface for indexes that can estimate
// their memory footprint in bytes. The paper's Section 3.1 derives
// per-point footprints analytically; this hook lets benches confirm them.
type MemoryReporter interface {
	// MemoryBytes estimates the index-owned heap footprint.
	MemoryBytes() int64
}

// InvariantChecker is an optional interface for indexes that can audit
// their own structural invariants (CSR offset monotonicity, column
// labels, class sub-span partitioning, STR packing, ...).
// The epoch publisher calls it before publishing a shadow buffer, and the
// fault-injection harness calls it after every injected fault to prove
// containment. A nil return means the structure is internally consistent;
// the error describes the first violation found. Implementations may be
// O(n) — callers treat this as a validation pass, not a fast path.
type InvariantChecker interface {
	CheckInvariants() error
}

// WorkloadHints describes the observable per-tick workload mix, for
// factories that tune or select an index from it (the `auto` technique
// in internal/tune). All fields are hints: zero values mean "unknown"
// and consumers must fall back to sensible defaults. Static factories
// ignore them entirely.
type WorkloadHints struct {
	// QuerySize is the side length of the square range-query windows.
	QuerySize float32
	// Queriers and Updaters are the fractions of objects querying and
	// updating per tick.
	Queriers, Updaters float64
	// Ticks is how many ticks the index will live through (the build
	// cost is paid once per tick regardless, but a hint of 1 marks a
	// one-shot join where update costs never materialize).
	Ticks int
}

// Params carries the information factories need to size an index for a
// workload. Space bounds matter for the grids and the KD-trie; NumPoints
// lets implementations pre-size arenas (for box workloads it is the
// number of objects, i.e. MBRs).
type Params struct {
	Bounds    geom.Rect
	NumPoints int
	// Hints optionally describes the workload mix for adaptive
	// factories; the zero value means "unknown".
	Hints WorkloadHints
	// Shards requests a region-sharded engine's grid side (Shards x
	// Shards regions, internal/shard). 0 lets the selector's shard-count
	// ladder choose; 1 is a single region (unsharded behavior behind the
	// sharded API). Non-sharded factories ignore it.
	Shards int
}

// FactoryOf constructs a fresh index instance over geometry P for the
// given parameters.
type FactoryOf[P any] func(p Params) IndexOf[P]

// Factory and BoxFactory are FactoryOf for point and box indexes.
type (
	Factory    = FactoryOf[geom.Point]
	BoxFactory = FactoryOf[geom.Rect]
)

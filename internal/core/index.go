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
// Queries run through one of three kernels (querykernel.go): the classic
// per-result callback (Index.Query), the buffered append
// (QueryAppender.QueryAppend, zero allocations per query at steady
// state), and the CSR-shaped batch (BatchQuerier.QueryBatch). The
// buffered kernels are optional capabilities detected via QueryAppendOf
// / QueryBatchOf, so wrappers (epoch, shard, tune) forward them and
// out-of-tree indexes fall back to a callback adapter; Options.Kernel
// selects the kernel a driver run uses. All kernels must report
// identical result sets — only speed may differ.
package core

import "repro/internal/geom"

// Index is the contract every spatial join technique implements.
//
// The framework follows the secondary-index assumption of the original
// study: indexes store object IDs (or pointers to ID-holding entries) and
// read coordinates from the base snapshot passed to Build; they never own
// or update the base data.
type Index interface {
	// Name identifies the technique in reports.
	Name() string

	// Build (re)constructs the index over the snapshot pts, where object
	// i is at pts[i]. The slice remains valid and unchanged until the next
	// Build call, so implementations may retain it.
	Build(pts []geom.Point)

	// Query reports the ID of every object whose position lies in r, in
	// unspecified order, by calling emit once per match.
	Query(r geom.Rect, emit func(id uint32))

	// Update informs the index that object id moved from old to new
	// during the update phase. Techniques that are rebuilt from the
	// snapshot every tick may simply buffer or ignore this; in-place
	// structures (the grids) relocate the entry. Coordinates visible
	// through the snapshot are refreshed by the driver before the next
	// Build.
	Update(id uint32, old, new geom.Point)
}

// ParallelBuilder is an optional interface for indexes whose Build can
// shard the snapshot across worker goroutines. RunParallel uses it when
// present; the result must be indistinguishable from Build(pts) to every
// subsequent Query/Update call. workers <= 0 selects GOMAXPROCS.
type ParallelBuilder interface {
	BuildParallel(pts []geom.Point, workers int)
}

// BatchUpdater is an optional interface for indexes that can apply a whole
// tick's update batch at once. It is a bulk path first and a fan-out
// second: every driver, the sequential ones included, hands the batch
// over in one call whenever CanBatchUpdates says so, and an index that
// sees all of a tick's moves together can do less work than one Update
// per move (the CSR grids validate against their per-object cell labels
// and re-scatter once many movers cross a cell); workers is how many
// goroutines it may use on top of that, 1 from a sequential driver. The
// batch contains at most one move per object ID. The result must be
// indistinguishable from calling Update(m.ID, m.Old, m.New) for each
// move in order.
type BatchUpdater interface {
	UpdateBatch(moves []geom.Move, workers int)
	// CanBatchUpdates reports whether UpdateBatch would take a path
	// that actually differs from per-move Update calls for a batch of n
	// moves at some worker count; drivers skip batch assembly when it
	// returns false.
	CanBatchUpdates(n int) bool
}

// BoxIndex is the contract spatial join techniques over extended objects
// (rectangles/MBRs) implement. It mirrors Index with the object geometry
// widened from a point to an axis-aligned rectangle: the snapshot is one
// MBR per object, and a range query reports every object whose MBR
// intersects the query rectangle.
//
// The same secondary-index assumption applies: implementations store
// object IDs and read extents from the snapshot passed to Build.
type BoxIndex interface {
	// Name identifies the technique in reports.
	Name() string

	// Build (re)constructs the index over the snapshot rects, where
	// object i has MBR rects[i]. The slice remains valid and unchanged
	// until the next Build call, so implementations may retain it.
	Build(rects []geom.Rect)

	// Query reports the ID of every object whose MBR intersects r
	// (closed rectangles, so touching edges match), in unspecified
	// order, by calling emit EXACTLY ONCE per matching object.
	// Duplicate-free emission is part of the contract: techniques that
	// replicate objects across partitions must deduplicate internally
	// (e.g. by the reference-point method) rather than leave it to the
	// caller.
	Query(r geom.Rect, emit func(id uint32))

	// Update informs the index that object id's MBR moved from old to
	// new during the update phase.
	Update(id uint32, old, new geom.Rect)
}

// BoxParallelBuilder is ParallelBuilder for box indexes: an optional
// sharded Build whose result must be indistinguishable from Build(rects)
// to every subsequent Query/Update call. workers <= 0 selects GOMAXPROCS.
type BoxParallelBuilder interface {
	BuildParallel(rects []geom.Rect, workers int)
}

// BoxBatchUpdater is BatchUpdater for box indexes: an optional bulk path
// applying a whole tick's MBR moves at once. The batch contains at most
// one move per object ID and the result must be indistinguishable from
// calling Update(m.ID, m.Old, m.New) for each move in order.
type BoxBatchUpdater interface {
	UpdateBatch(moves []geom.BoxMove, workers int)
	// CanBatchUpdates reports whether UpdateBatch would take a path that
	// actually differs from per-move Update calls for a batch of n
	// moves; drivers skip batch assembly when it returns false.
	CanBatchUpdates(n int) bool
}

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
// their own structural invariants (CSR offset monotonicity, class
// sub-span partitioning, slack/overflow accounting, STR packing, ...).
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

// Factory constructs a fresh index instance for the given parameters.
type Factory func(p Params) Index

// BoxFactory constructs a fresh box index instance for the given
// parameters.
type BoxFactory func(p Params) BoxIndex

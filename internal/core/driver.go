package core

import (
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Options tunes a Run.
type Options struct {
	// Ticks caps the number of ticks executed; 0 means the workload's
	// configured tick count.
	Ticks int
	// KeepPerTick retains per-tick phase timings in the result (used by
	// convergence analyses; costs O(ticks) memory).
	KeepPerTick bool
	// CollectPairs, when non-nil, receives every join pair. Used by
	// correctness tests; leave nil in benchmarks (emission then only
	// counts and checksums). Forces the emit kernel.
	CollectPairs func(querier, found uint32)
	// Kernel selects the query kernel: the zero value (KernelAuto)
	// drains queries through the index's buffered QueryAppend when it
	// has one and through the per-result callback otherwise; KernelEmit
	// and KernelAppend force one or the other, and KernelBatch drains
	// each tick (each claimed block, under several workers) through
	// QueryBatchOf. The result digest is identical across kernels.
	Kernel QueryKernel
	// Obs, when non-nil, receives per-tick phase histograms and driver
	// counters, and is offered to the index under test (obs.Instrument)
	// before Build. Nil disables instrumentation at nil-check cost; the
	// result digest is identical either way.
	Obs *obs.Registry
}

// PhaseTimes is a build/query/update wall-time triple.
type PhaseTimes struct {
	Build, Query, Update time.Duration
}

// Total returns the sum of the three phases.
func (p PhaseTimes) Total() time.Duration { return p.Build + p.Query + p.Update }

func (p *PhaseTimes) add(q PhaseTimes) {
	p.Build += q.Build
	p.Query += q.Query
	p.Update += q.Update
}

// Result aggregates a Run: totals, counts, and a result checksum that is
// independent of emission order, so two techniques agree on the join
// result iff (Pairs, Hash) match.
type Result struct {
	Technique string
	Ticks     int
	Totals    PhaseTimes
	PerTick   []PhaseTimes

	Pairs   int64  // join result cardinality over all ticks
	Hash    uint64 // Σ MixPair(0, q, id) over every result pair, mod 2^64, on either tier
	Queries int64  // number of range queries issued
	Updates int64  // number of updates applied
}

// AvgTick returns the average wall time per tick (all phases), the
// paper's headline metric ("Avg. Time per Tick").
func (r *Result) AvgTick() time.Duration {
	if r.Ticks == 0 {
		return 0
	}
	return r.Totals.Total() / time.Duration(r.Ticks)
}

// AvgBuild returns average build time per tick.
func (r *Result) AvgBuild() time.Duration { return r.avg(r.Totals.Build) }

// AvgQuery returns average query time per tick.
func (r *Result) AvgQuery() time.Duration { return r.avg(r.Totals.Query) }

// AvgUpdate returns average update time per tick.
func (r *Result) AvgUpdate() time.Duration { return r.avg(r.Totals.Update) }

func (r *Result) avg(d time.Duration) time.Duration {
	if r.Ticks == 0 {
		return 0
	}
	return d / time.Duration(r.Ticks)
}

// String summarizes the result on one line.
func (r *Result) String() string {
	return fmt.Sprintf("%s: %d ticks, avg %.4fs/tick (build %.4f query %.4f update %.4f), %d pairs",
		r.Technique, r.Ticks, r.AvgTick().Seconds(),
		r.AvgBuild().Seconds(), r.AvgQuery().Seconds(), r.AvgUpdate().Seconds(), r.Pairs)
}

// MixPair folds one (querier, found) pair into an order-independent
// checksum: each pair is hashed individually (murmur3's 64-bit finalizer
// over querier<<32 | found) and combined by addition, a commutative
// monoid, so emission order cannot affect the digest. It is the digest's
// definition. The callback kernel's emit folds through it; the buffered
// drains fold a query's whole result with foldIDs, which computes the same
// sum eight pairs an instruction on the AVX-512 tier. Exported so the
// digest tests of the packages above core (bench, epoch, grid, rtree,
// shard, tune) share the exact digest construction rather than
// re-deriving it.
func MixPair(h uint64, querier, found uint32) uint64 {
	v := uint64(querier)<<32 | uint64(found)
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return h + v
}

// ParamsFor derives the factory parameters — space bounds, population,
// and workload hints — from a workload configuration. All the command-
// line tools construct their Params through it so adaptive factories
// see the same view of the workload everywhere.
func ParamsFor(cfg workload.Config) Params {
	return Params{
		Bounds:    cfg.Bounds(),
		NumPoints: cfg.NumPoints,
		Hints: WorkloadHints{
			QuerySize: cfg.QuerySize,
			Queriers:  cfg.Queriers,
			Updaters:  cfg.Updaters,
			Ticks:     cfg.Ticks,
		},
	}
}

// Run executes the iterated spatial join of idx over src and returns the
// timing breakdown and result digest.
//
// Per tick it performs exactly the framework's three phases:
//
//  1. build: refresh the position snapshot from the base table and call
//     idx.Build over it;
//  2. query: for every querier q, probe idx with the square query centred
//     on q and fold all reported IDs into the result;
//  3. update: fetch the tick's update batch and apply it to the base
//     table at the very end, so queries only ever saw the previous tick's
//     state. The index is not told of the moves: the next Build is its
//     one maintenance a tick. The paper's protocol, which also moves
//     every entry in place, is internal/bench's.
func Run(idx Index, src workload.Source, opts Options) *Result {
	obs.Instrument(idx, opts.Obs)
	return runTicks(pointEngine(idx, src), opts, 1)
}

// RunParallel executes the iterated join like Run but fans the snapshot
// refresh, the build and the query phase out over the given number of
// worker goroutines (0 selects GOMAXPROCS); see runTicks for the
// schedule. Indexes implementing ParallelBuilder (the shard router) build
// by it; every other index, the grids among them, builds by Build.
func RunParallel(idx Index, src workload.Source, opts Options, workers int) *Result {
	obs.Instrument(idx, opts.Obs)
	return runTicks(pointEngine(idx, src), opts, workers)
}

// pointEngine binds a point index and a point workload into the generic
// tick engine: newEngine's index half plus the source half below.
func pointEngine(idx Index, src workload.Source) *engine[geom.Point] {
	e := newEngine(idx, src, len(src.Objects()))
	e.refresh = func(dst []geom.Point, lo, hi int) {
		refreshSnapshot(dst[lo:hi], src.Objects()[lo:hi])
	}
	e.center = func(p geom.Point) geom.Point { return p }
	e.updatePhase = updatePhaseOf(src.Updates, src.ApplyUpdates)
	return e
}

func refreshSnapshot(dst []geom.Point, objs []workload.Object) {
	for i := range objs {
		dst[i] = objs[i].Pos
	}
}

package core

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/parutil"
	"repro/internal/sortutil"
)

// This file holds the tick engine: the framework's three-phase loop,
// generic over the object class P — geom.Point for the paper's point
// workloads, geom.Rect for the MBR workloads of the non-point extension.
// Run/RunParallel and RunBoxes/RunBoxesParallel are thin adapters that
// bind an (index, source) pair into an engine; the phase structure,
// timing, digesting, and the parallel schedule live here exactly once.

// mortonBits is the per-axis resolution of the querier scheduling codes.
// 16 bits is far finer than any grid the study uses, so queriers that
// sort together share cells at every granularity.
const mortonBits = 16

// queryBlock is the unit of the work-stealing querier schedule: workers
// claim contiguous blocks of the Morton-sorted querier order, so each
// block's queries touch neighbouring cells while the atomic cursor keeps
// the load balanced under spatial skew.
const queryBlock = 64

// parallelRefreshMin gates the parallel snapshot refresh; below this the
// copy is memory-bandwidth-trivial and goroutine fork/join dominates.
const parallelRefreshMin = 1 << 14

// padded keeps each worker's accumulator on its own cache line. Workers
// accumulate into locals and write here once per tick, but without the
// padding those final writes (and the main goroutine's reads) still
// false-share 16-byte neighbours.
type padded struct {
	pairs int64
	hash  uint64
	_     [48]byte
}

// engine adapts one object class to the tick loop. Every hook is
// mandatory except buildParallel (nil when the index has no sharded
// build).
type engine[P any] struct {
	name   string
	ticks  int       // the workload's configured tick count
	n      int       // number of objects (snapshot length)
	bounds geom.Rect // data space, for the Morton querier schedule

	// refresh copies the current base-table geometry of objects
	// [lo, hi) into dst[lo:hi]; the parallel driver calls it per shard.
	refresh func(dst []P, lo, hi int)
	// build / buildParallel (re)construct the index over the snapshot.
	build         func(snap []P)
	buildParallel func(snap []P, workers int)
	// query probes the index once via the callback kernel; queryAppend
	// and queryBatch are the buffered kernels (bound through
	// QueryAppendOf/QueryBatchOf, so they are never nil — native when
	// the index implements the capability, adapted otherwise).
	query       func(r geom.Rect, emit func(id uint32))
	queryAppend func(r geom.Rect, buf []uint32) []uint32
	queryBatch  func(rects []geom.Rect, offsets, buf []uint32) ([]uint32, []uint32)
	// queriers / queryRect expose the tick's query stream.
	queriers  func() []uint32
	queryRect func(q uint32) geom.Rect
	// center maps an object's geometry to the point its queries are
	// scheduled by (identity for points, MBR centre for boxes).
	center func(p P) geom.Point
	// updatePhase runs the whole update phase (see updatePhaseOf) and
	// returns the number of updates.
	updatePhase func(snap []P, workers int) int
}

// updatePhaseOf builds an engine's update phase: fetch the tick's batch,
// tell the index of every move — in one UpdateBatch call when it has a
// bulk path for a batch this size (batcher is nil when it has none), one
// Update per move otherwise — and apply the batch to the base table at
// the very end. The two loops over the batch are the geometry's own, so
// neither pays a call per move: moveAll appends the batch's moves (each
// update paired with the object's geometry in the snapshot), updateEach
// calls Update for each.
func updatePhaseOf[P, U, M any](
	updates func() []U, apply func([]U),
	moveAll func(moves []M, batch []U, snap []P) []M,
	updateEach func(batch []U, snap []P),
	batcher interface {
		UpdateBatch(moves []M, workers int)
		CanBatchUpdates(n int) bool
	},
) func(snap []P, workers int) int {
	var moves []M
	return func(snap []P, workers int) int {
		batch := updates()
		if batcher != nil && batcher.CanBatchUpdates(len(batch)) {
			moves = moveAll(moves[:0], batch, snap)
			batcher.UpdateBatch(moves, workers)
		} else {
			updateEach(batch, snap)
		}
		apply(batch)
		return len(batch)
	}
}

// clampTicks resolves the Options tick cap against the workload's count.
func (e *engine[P]) clampTicks(opts Options) int {
	ticks := opts.Ticks
	if ticks <= 0 || ticks > e.ticks {
		ticks = e.ticks
	}
	return ticks
}

// runTicks is the sequential driver: per tick one build, one probe per
// querier, one update phase, timed separately (the framework of Sowell et
// al. that the paper's experiments run inside).
func runTicks[P any](e *engine[P], opts Options) *Result {
	ticks := e.clampTicks(opts)
	res := &Result{Technique: e.name, Ticks: ticks}
	if opts.KeepPerTick {
		res.PerTick = make([]PhaseTimes, 0, ticks)
	}
	to := newTickObs(opts.Obs)

	snapshot := make([]P, e.n)

	pairs := int64(0)
	hash := uint64(0)
	kernel := opts.Kernel
	if opts.CollectPairs != nil {
		// Pair collection observes individual emissions in order; it
		// stays on the callback route regardless of the requested kernel.
		kernel = KernelEmit
	}
	var emitQ uint32
	emit := func(id uint32) {
		pairs++
		hash = MixPair(hash, emitQ, id)
	}
	if opts.CollectPairs != nil {
		collect := opts.CollectPairs
		emit = func(id uint32) {
			pairs++
			hash = MixPair(hash, emitQ, id)
			collect(emitQ, id)
		}
	}
	var buf, offsets []uint32
	var rects []geom.Rect

	for t := 0; t < ticks; t++ {
		var pt PhaseTimes

		start := time.Now()
		e.refresh(snapshot, 0, len(snapshot))
		e.build(snapshot)
		pt.Build = time.Since(start)

		start = time.Now()
		queriers := e.queriers()
		switch kernel {
		case KernelEmit:
			for _, q := range queriers {
				emitQ = q
				e.query(e.queryRect(q), emit)
			}
		case KernelBatch:
			rects = rects[:0]
			for _, q := range queriers {
				rects = append(rects, e.queryRect(q))
			}
			offsets, buf = e.queryBatch(rects, offsets, buf)
			for i, q := range queriers {
				for _, id := range buf[offsets[i]:offsets[i+1]] {
					pairs++
					hash = MixPair(hash, q, id)
				}
			}
		default: // KernelAuto, KernelAppend: the buffered drain
			for _, q := range queriers {
				buf = e.queryAppend(e.queryRect(q), buf[:0])
				for _, id := range buf {
					pairs++
					hash = MixPair(hash, q, id)
				}
			}
		}
		pt.Query = time.Since(start)
		res.Queries += int64(len(queriers))

		start = time.Now()
		updates := int64(e.updatePhase(snapshot, 1))
		res.Updates += updates
		pt.Update = time.Since(start)

		to.tick(pt, int64(len(queriers)), updates)
		res.Totals.add(pt)
		if opts.KeepPerTick {
			res.PerTick = append(res.PerTick, pt)
		}
	}
	res.Pairs = pairs
	res.Hash = hash
	to.pairs.Add(pairs)
	return res
}

// runTicksParallel fans every phase of the tick out over worker
// goroutines. This is an extension beyond the paper, whose study is
// single-threaded.
//
//   - build: the snapshot refresh is copied in parallel shards, and
//     indexes with a parallel build hook (the CSR grids) build by sharded
//     counting sort; others build sequentially as in runTicks.
//   - query: the static index is immutable between build and the first
//     update, so queriers partition trivially. Queriers are sorted by the
//     Morton code of their scheduling position and workers claim
//     contiguous blocks of that order through an atomic cursor: each
//     worker sweeps the grid in cache-friendly Z-order while skew cannot
//     idle anyone.
//   - update: the update phase hands the worker count to the index's
//     bulk path, when it has one.
//
// The order-independent result digest makes the outcome comparable with
// sequential runs bit for bit.
func runTicksParallel[P any](e *engine[P], opts Options, workers int) *Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return runTicks(e, opts)
	}
	if opts.CollectPairs != nil {
		// Pair collection is inherently ordered; fall back to the
		// sequential driver rather than interleave callbacks.
		return runTicks(e, opts)
	}
	ticks := e.clampTicks(opts)
	res := &Result{Technique: e.name, Ticks: ticks}
	if opts.KeepPerTick {
		res.PerTick = make([]PhaseTimes, 0, ticks)
	}
	to := newTickObs(opts.Obs)
	snapshot := make([]P, e.n)

	quant := geom.NewQuantizer(e.bounds, mortonBits)
	// At 16 bits per axis a Morton code fits in 32 bits, so the cheaper
	// 4-pass radix sort applies.
	codes := make([]uint32, e.n)
	order := make([]uint32, 0, e.n)
	scratch := make([]uint32, e.n)

	parts := make([]padded, workers)

	for t := 0; t < ticks; t++ {
		var pt PhaseTimes

		start := time.Now()
		parallelRefresh(e, snapshot, workers)
		if e.buildParallel != nil {
			e.buildParallel(snapshot, workers)
		} else {
			e.build(snapshot)
		}
		pt.Build = time.Since(start)

		start = time.Now()
		queriers := e.queriers()
		order = append(order[:0], queriers...)
		for _, q := range queriers {
			codes[q] = uint32(quant.Code(e.center(snapshot[q])))
		}
		sortutil.ByKey32(order, codes, scratch)

		var cursor atomic.Int64
		var g parutil.Group
		for w := 0; w < workers; w++ {
			w := w
			g.Go(func() {
				var pairs int64
				var hash uint64
				// Per-worker result buffers: each claimed block drains
				// through the buffered kernel with no shared state, and
				// the buffers reach steady-state capacity within a tick.
				var buf, offsets []uint32
				var rects []geom.Rect
				for {
					lo := int(cursor.Add(queryBlock)) - queryBlock
					if lo >= len(order) {
						break
					}
					hi := lo + queryBlock
					if hi > len(order) {
						hi = len(order)
					}
					block := order[lo:hi]
					switch opts.Kernel {
					case KernelEmit:
						for _, q := range block {
							r := e.queryRect(q)
							e.query(r, func(id uint32) {
								pairs++
								hash = MixPair(hash, q, id)
							})
						}
					case KernelBatch:
						// A claimed block is a contiguous run of the
						// Morton order — exactly the batch shape the
						// kernel wants.
						rects = rects[:0]
						for _, q := range block {
							rects = append(rects, e.queryRect(q))
						}
						offsets, buf = e.queryBatch(rects, offsets, buf)
						for i, q := range block {
							for _, id := range buf[offsets[i]:offsets[i+1]] {
								pairs++
								hash = MixPair(hash, q, id)
							}
						}
					default: // KernelAuto, KernelAppend
						for _, q := range block {
							buf = e.queryAppend(e.queryRect(q), buf[:0])
							for _, id := range buf {
								pairs++
								hash = MixPair(hash, q, id)
							}
						}
					}
				}
				parts[w].pairs = pairs
				parts[w].hash = hash
			})
		}
		g.Wait()
		pt.Query = time.Since(start)
		res.Queries += int64(len(queriers))
		for w := range parts {
			res.Pairs += parts[w].pairs
			res.Hash += parts[w].hash
		}

		start = time.Now()
		updates := int64(e.updatePhase(snapshot, workers))
		res.Updates += updates
		pt.Update = time.Since(start)

		to.tick(pt, int64(len(queriers)), updates)
		res.Totals.add(pt)
		if opts.KeepPerTick {
			res.PerTick = append(res.PerTick, pt)
		}
	}
	to.pairs.Add(res.Pairs)
	return res
}

// parallelRefresh is the snapshot refresh fanned out over contiguous
// shards.
func parallelRefresh[P any](e *engine[P], dst []P, workers int) {
	if len(dst) < parallelRefreshMin || workers <= 1 {
		e.refresh(dst, 0, len(dst))
		return
	}
	parutil.ForEachShard(len(dst), workers, func(_, lo, hi int) {
		e.refresh(dst, lo, hi)
	})
}

package core

import (
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/parutil"
	"repro/internal/sortutil"
	"repro/internal/workload"
)

// This file holds the tick engine: the framework's three-phase loop,
// generic over the object class P — geom.Point for the paper's point
// workloads, geom.Rect for the MBR workloads of the non-point extension.
// Run/RunParallel and RunBoxes/RunBoxesParallel are thin adapters that
// bind an (index, source) pair into an engine; the phase structure,
// timing, digesting, and the parallel schedule live here exactly once.

// mortonBits is the per-axis resolution of the querier scheduling codes:
// 256 x 256 is finer than the grids of cells the study's workloads tune to
// (cps 64 to 192), so queriers that sort together share cells, and a code
// fits 16 bits, so the radix sort runs two of its four passes. It is not
// finer than the CSR layouts' column directory (256 columns to the row at
// cps=64) and need not be: the order is for the rows and segments
// consecutive queries revisit, which the columns subdivide without moving.
const mortonBits = 8

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
	// nativeAppend says which of the two queryAppend is.
	query        func(r geom.Rect, emit func(id uint32))
	queryAppend  func(r geom.Rect, buf []uint32) []uint32
	queryBatch   func(rects []geom.Rect, offsets, buf []uint32) ([]uint32, []uint32)
	nativeAppend bool
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

// tickFeed is the part of a tick's workload that workload.Source and
// workload.BoxSource spell the same way.
type tickFeed interface {
	Config() workload.Config
	Queriers() []uint32
	QueryRect(id uint32) geom.Rect
}

// newEngine binds the index half of an engine — everything the tick
// loop asks of an IndexOf[P], resolved once — and the shared part of the
// feed over n objects. pointEngine and boxEngine add what the two source
// shapes spell differently: the snapshot refresh, the scheduling centre
// and the update phase.
func newEngine[P any](idx IndexOf[P], src tickFeed, n int) *engine[P] {
	cfg := src.Config()
	e := &engine[P]{
		name:        idx.Name(),
		ticks:       cfg.Ticks,
		n:           n,
		bounds:      cfg.Bounds(),
		build:       idx.Build,
		query:       idx.Query,
		queryAppend: QueryAppendOf(idx, idx.Query),
		queryBatch:  QueryBatchOf(idx, idx.Query),
		queriers:    src.Queriers,
		queryRect:   src.QueryRect,
	}
	_, e.nativeAppend = idx.(QueryAppender)
	if builder, ok := idx.(ParallelBuilderOf[P]); ok {
		e.buildParallel = builder.BuildParallel
	}
	return e
}

// kernel resolves the query kernel both tick loops drain through. Pair
// collection observes individual emissions in order, so it takes the
// callback whatever was asked for; KernelAuto is the buffered append
// when the index has a native one and the callback otherwise (the
// adapter QueryAppendOf would bind allocates per query).
func (e *engine[P]) kernel(opts Options) QueryKernel {
	switch {
	case opts.CollectPairs != nil:
		return KernelEmit
	case opts.Kernel != KernelAuto:
		return opts.Kernel
	case e.nativeAppend:
		return KernelAppend
	}
	return KernelEmit
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
	batcher BatchUpdaterOf[M],
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

// cellSchedule is the drivers' query schedule: a tick's queriers sorted
// by the Morton code of their scheduling position, so consecutive probes
// touch neighbouring cells while those are cache-resident. The buffers
// are sized to the population once, so ordering a tick allocates nothing.
type cellSchedule[P any] struct {
	quant                  *geom.Quantizer
	center                 func(p P) geom.Point
	codes, sorted, scratch []uint32
}

func newCellSchedule[P any](e *engine[P]) *cellSchedule[P] {
	return &cellSchedule[P]{
		quant:   geom.NewQuantizer(e.bounds, mortonBits),
		center:  e.center,
		codes:   make([]uint32, e.n),
		sorted:  make([]uint32, 0, e.n),
		scratch: make([]uint32, e.n),
	}
}

// order returns the tick's queriers in cell order; the result is valid
// until the next call.
func (s *cellSchedule[P]) order(snapshot []P, queriers []uint32) []uint32 {
	s.sorted = append(s.sorted[:0], queriers...)
	for _, q := range queriers {
		s.codes[q] = uint32(s.quant.Code(s.center(snapshot[q])))
	}
	sortutil.ByKey32(s.sorted, s.codes, s.scratch)
	return s.sorted
}

// trialTicks is the length of runTicks' opening trial of the query
// schedule: tick 0 is plain and ignored (arenas and result buffers are
// still growing), then trialPairs pairs of adjacent ticks, the first of
// each pair cell-ordered and the second plain.
const (
	trialPairs = 4
	trialTicks = 1 + 2*trialPairs
)

// scheduleMode says how runTicks picks its query order. The zero value,
// the measured choice, is the only one the drivers ever run with; tests
// pin the other two (export_test.go) to hold the digest under either
// order.
type scheduleMode int

const (
	scheduleMeasured scheduleMode = iota
	scheduleAlways
	scheduleNever
)

var querySchedule = scheduleMeasured

// cellOrderPays is the measured choice: given the query-phase cost per
// querier of the run's first ticks, in tick order, probing in cell order
// pays iff the cell-ordered tick was the cheaper one in all but at most
// one of the trial's pairs. Comparing a tick with its neighbour, not
// with every other sample, is what makes the choice hold on a shared
// host: what slows a tick there (another tenant, a collection's assists)
// lasts longer than a tick and slows the neighbour too, and the one pair
// it does split is forgiven. A trial that is not decisive, or a run too
// short to finish it, keeps the plain order — which costs little when it
// is wrong by little.
func cellOrderPays(nsPerQuerier []float64) bool {
	if len(nsPerQuerier) < trialTicks {
		return false
	}
	wins := 0
	for t := 1; t < trialTicks; t += 2 {
		if nsPerQuerier[t] < nsPerQuerier[t+1] {
			wins++
		}
	}
	return wins >= trialPairs-1
}

// runTicks is the sequential driver: per tick one build, one probe per
// querier, one update phase, timed separately (the framework of Sowell et
// al. that the paper's experiments run inside).
//
// The probes of a tick run in querier-ID order — at random over the space
// — or in cell order (cellSchedule; the sort is timed inside the query
// phase). Which is cheaper depends on whether the index outgrows the
// cache, and the result digest is order-independent, so the driver
// measures instead of asking: over the first trialTicks ticks it
// alternates the two and records the query phase's time per querier, and
// from then on the run is cell-ordered iff cellOrderPays says so. Nothing
// but those timings enters the choice. Under CollectPairs, whose callers
// observe emission order, every tick stays in querier order.
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
	kernel := e.kernel(opts)
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

	var sched *cellSchedule[P]
	if opts.CollectPairs == nil && querySchedule != scheduleNever {
		sched = newCellSchedule(e)
	}
	var trial [trialTicks]float64
	cellOrdered := false

	for t := 0; t < ticks; t++ {
		var pt PhaseTimes

		start := time.Now()
		e.refresh(snapshot, 0, len(snapshot))
		e.build(snapshot)
		pt.Build = time.Since(start)

		if sched != nil {
			switch {
			case querySchedule == scheduleAlways:
				cellOrdered = true
			case t < trialTicks:
				cellOrdered = t%2 == 1
			case t == trialTicks:
				if cellOrdered = cellOrderPays(trial[:]); !cellOrdered {
					sched = nil // the plain order needs no scratch
				}
			}
		}

		start = time.Now()
		queriers := e.queriers()
		if cellOrdered {
			queriers = sched.order(snapshot, queriers)
		}
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
		default: // KernelAppend: the buffered drain
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
		if t < trialTicks {
			trial[t] = float64(pt.Query) / float64(max(len(queriers), 1))
		}

		start = time.Now()
		updates := int64(e.updatePhase(snapshot, 1))
		res.Updates += updates
		pt.Update = time.Since(start)

		to.tick(pt, int64(len(queriers)), updates, cellOrdered)
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

	kernel := e.kernel(opts)
	sched := newCellSchedule(e)

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
		order := sched.order(snapshot, queriers)

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
				var emitQ uint32
				emit := func(id uint32) {
					pairs++
					hash = MixPair(hash, emitQ, id)
				}
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
					switch kernel {
					case KernelEmit:
						for _, q := range block {
							emitQ = q
							e.query(e.queryRect(q), emit)
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
					default: // KernelAppend
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

		to.tick(pt, int64(len(queriers)), updates, true)
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

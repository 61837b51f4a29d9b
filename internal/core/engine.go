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

// forEachBlock serves [0, n) to the given number of worker goroutines in
// blocks of queryBlock claimed through one atomic cursor: fn(w, lo, hi)
// runs on worker w for each block it claims, a contiguous run of the
// caller's order, and skew cannot idle anyone. It returns once every
// block is served; a panicking fn surfaces as a *parutil.WorkerPanic
// after the other workers have returned.
func forEachBlock(n, workers int, fn func(w, lo, hi int)) {
	var cursor atomic.Int64
	var g parutil.Group
	for w := 0; w < workers; w++ {
		g.Go(func() {
			for {
				lo := int(cursor.Add(queryBlock)) - queryBlock
				if lo >= n {
					return
				}
				fn(w, lo, min(lo+queryBlock, n))
			}
		})
	}
	g.Wait()
}

// parallelRefreshMin gates the sharded snapshot refresh; below this the
// copy is memory-bandwidth-trivial and goroutine fork/join dominates.
const parallelRefreshMin = 1 << 14

// engine adapts one object class to the tick loop. Every hook is
// mandatory except buildSharded (nil when the index has no sharded
// build).
type engine[P any] struct {
	name   string
	ticks  int       // the workload's configured tick count
	n      int       // number of objects (snapshot length)
	bounds geom.Rect // data space, for the Morton querier schedule

	// refresh copies the current base-table geometry of objects
	// [lo, hi) into dst[lo:hi]; several workers call it per shard.
	refresh func(dst []P, lo, hi int)
	// build / buildSharded (re)construct the index over the snapshot.
	build        func(snap []P)
	buildSharded func(snap []P, workers int)
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
	updatePhase func() int
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
		e.buildSharded = builder.BuildParallel
	}
	return e
}

// kernel resolves the query kernel the tick loop drains through. Pair
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
// apply it to the base table and return its length. The index is not
// told: the next tick's build reads the refreshed snapshot, and no query
// runs between this phase and that build, so keeping the index current
// in place would be work no query can observe.
func updatePhaseOf[U any](updates func() []U, apply func([]U)) func() int {
	return func() int {
		batch := updates()
		apply(batch)
		return len(batch)
	}
}

// clampTicks resolves a driver's tick cap against the workload's count:
// 0, or more than the workload has, runs them all.
func clampTicks(asked, configured int) int {
	if asked <= 0 || asked > configured {
		return configured
	}
	return asked
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

// trialTicks is the length of a one-worker run's opening trial of the
// query schedule: tick 0 is plain and ignored (arenas and result buffers
// are still growing), then trialPairs pairs of adjacent ticks, the first
// of each pair cell-ordered and the second plain.
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

// runTicks is the framework's three-phase loop (Sowell et al., the loop
// the paper's experiments run inside), written once over the object class
// P — geom.Point for the paper's point workloads, geom.Rect for the MBR
// workloads of the non-point extension — and once over a worker count:
// Run / RunBoxes bind an engine and pass one worker, RunParallel /
// RunBoxesParallel pass theirs (0 selects GOMAXPROCS; CollectPairs, whose
// callers observe emission order, forces one). Per tick, each phase timed
// separately:
//
//   - build: refresh the snapshot from the base table — in parallel shards
//     when there are several workers and the snapshot is large enough to
//     pay for the fork — and build the index over it, by the index's
//     BuildParallel when there are several workers and it has one (the
//     shard router's region-parallel build; no grid family has one, their
//     sequential counting sorts beat the sharded ones at two workers);
//   - query: one probe per querier through the kernel engine.kernel
//     resolves, folded by a drainer per worker. One worker drains the tick
//     inline. Several claim blocks of it through forEachBlock: the index is
//     immutable until the next build, so queriers partition trivially;
//   - update: fetch the tick's batch and apply it to the base table. The
//     index is maintained once a tick, by the next build; see
//     updatePhaseOf.
//
// The probes of a tick run in querier-ID order — at random over the space
// — or in cell order (cellSchedule; the sort is timed inside the query
// phase). Several workers always order: they claim contiguous blocks of
// the order, so the schedule is also what keeps a worker on one part of
// the index. One worker measures instead of asking, because which order
// is cheaper depends on whether the index outgrows the cache: over the
// first trialTicks ticks it alternates the two and records the query
// phase's time per querier, and from then on the run is cell-ordered iff
// cellOrderPays says so. Nothing but those timings enters the choice.
// Under CollectPairs every tick stays in querier order.
//
// The result digest is order-independent, so every worker count and
// either order report the same (Pairs, Hash) bit for bit. More than one
// worker is an extension beyond the paper, whose study is single-threaded.
func runTicks[P any](e *engine[P], opts Options, workers int) *Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opts.CollectPairs != nil {
		workers = 1
	}
	ticks := clampTicks(opts.Ticks, e.ticks)
	res := &Result{Technique: e.name, Ticks: ticks}
	if opts.KeepPerTick {
		res.PerTick = make([]PhaseTimes, 0, ticks)
	}
	to := newTickObs(opts.Obs)
	snapshot := make([]P, e.n)
	drainers := make([]*drainer[P], workers)
	for w := range drainers {
		drainers[w] = newDrainer(e, opts)
	}

	var sched *cellSchedule[P]
	if opts.CollectPairs == nil && querySchedule != scheduleNever {
		sched = newCellSchedule(e)
	}
	var trial [trialTicks]float64
	cellOrdered := false

	for t := 0; t < ticks; t++ {
		var pt PhaseTimes

		start := time.Now()
		if workers > 1 && len(snapshot) >= parallelRefreshMin {
			parutil.ForEachShard(len(snapshot), workers, func(_, lo, hi int) { e.refresh(snapshot, lo, hi) })
		} else {
			e.refresh(snapshot, 0, len(snapshot))
		}
		if workers > 1 && e.buildSharded != nil {
			e.buildSharded(snapshot, workers)
		} else {
			e.build(snapshot)
		}
		pt.Build = time.Since(start)

		if sched != nil {
			switch {
			case workers > 1, querySchedule == scheduleAlways:
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
		if workers == 1 {
			drainers[0].drain(queriers)
		} else {
			forEachBlock(len(queriers), workers, func(w, lo, hi int) { drainers[w].drain(queriers[lo:hi]) })
		}
		pt.Query = time.Since(start)
		res.Queries += int64(len(queriers))
		if t < trialTicks {
			trial[t] = float64(pt.Query) / float64(max(len(queriers), 1))
		}

		start = time.Now()
		updates := int64(e.updatePhase())
		res.Updates += updates
		pt.Update = time.Since(start)

		to.tick(pt, int64(len(queriers)), updates, cellOrdered)
		res.Totals.add(pt)
		if opts.KeepPerTick {
			res.PerTick = append(res.PerTick, pt)
		}
	}
	for _, d := range drainers {
		res.Pairs += d.pairs
		res.Hash += d.hash
	}
	to.pairs.Add(res.Pairs)
	return res
}

// drainer is one query worker's state across a run: the kernel it drains
// through, the buffers every query reuses (they reach steady-state
// capacity within a tick, so a drain allocates nothing), the callback
// kernel's emit, bound once, and the worker's tally. Everything in it is
// written by its worker alone — the tally per result under the callback —
// and a multi-worker run's drainers are neighbours in memory, so a cache
// line of padding ends it: no two workers write the same line.
type drainer[P any] struct {
	e            *engine[P]
	kernel       QueryKernel
	emit         func(id uint32)
	buf, offsets []uint32
	rects        []geom.Rect
	tally
	_ [64]byte
}

// tally is a worker's running digest, and q the querier whose results
// the callback is reporting. fold is the callback kernel's emit, bound as
// a method value: the compiler inlines MixPair into the bound method of
// a plain type, and not into a closure that a generic function builds
// inside another it is inlined into. It folds one pair at a time through
// MixPair itself, never foldIDs: the kernels that keep native callbacks
// (binsearch, crtree, kdtrie) and pair collection digest on the scalar
// definition, so a digest race between them and a buffered family
// cross-checks the vector tier.
type tally struct {
	q     uint32
	pairs int64
	hash  uint64
}

func (t *tally) fold(id uint32) {
	t.pairs++
	t.hash = MixPair(t.hash, t.q, id)
}

func newDrainer[P any](e *engine[P], opts Options) *drainer[P] {
	d := &drainer[P]{e: e, kernel: e.kernel(opts)}
	d.emit = d.fold
	if collect := opts.CollectPairs; collect != nil {
		d.emit = func(id uint32) {
			d.fold(id)
			collect(d.q, id)
		}
	}
	return d
}

// drain probes the index once per querier and folds every match into the
// drainer's digest. The callback arm folds through emit; the buffered
// arms fold each query's result with one foldIDs call into locals and
// write them back once per call.
//
//joinlint:hotpath
func (d *drainer[P]) drain(queriers []uint32) {
	e := d.e
	switch d.kernel {
	case KernelEmit:
		for _, q := range queriers {
			d.q = q
			e.query(e.queryRect(q), d.emit)
		}
	case KernelBatch:
		// The call is one batch: a whole tick on one worker, a claimed
		// block — a contiguous run of the Morton order — on several.
		rects := d.rects[:0]
		for _, q := range queriers {
			rects = append(rects, e.queryRect(q))
		}
		d.rects = rects
		d.offsets, d.buf = e.queryBatch(rects, d.offsets, d.buf)
		pairs, hash := d.pairs, d.hash
		for i, q := range queriers {
			ids := d.buf[d.offsets[i]:d.offsets[i+1]]
			hash = foldIDs(hash, q, ids)
			pairs += int64(len(ids))
		}
		d.pairs, d.hash = pairs, hash
	default: // KernelAppend
		buf, pairs, hash := d.buf, d.pairs, d.hash
		for _, q := range queriers {
			buf = e.queryAppend(e.queryRect(q), buf[:0])
			hash = foldIDs(hash, q, buf)
			pairs += int64(len(buf))
		}
		d.buf, d.pairs, d.hash = buf, pairs, hash
	}
}

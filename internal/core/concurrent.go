package core

import (
	"runtime"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/parutil"
	"repro/internal/workload"
)

// This file holds the concurrent tick driver: queries drain against an
// epoch-published index while the tick's update batch applies in the
// background, measuring per-query latency under update load. It is the
// service-mode counterpart of the stop-the-world loop in engine.go,
// where each tick's phases run strictly one after another.

// EpochStats counts an epoch-published wrapper's lifecycle events (see
// internal/epoch, whose Stats type aliases this one). All fields are
// monotonic.
type EpochStats struct {
	// Epochs is the number of successfully published epochs (swaps),
	// not counting the initial build (epoch 0).
	Epochs uint64
	// Degraded counts ticks that entered degradation (at least one
	// failed apply/validate/swap attempt).
	Degraded uint64
	// Retries counts publish retry attempts across all ticks.
	Retries uint64
	// PanicsContained counts panics recovered at the containment
	// barrier.
	PanicsContained uint64
}

// epochIndex is the epoch-published index contract the concurrent driver
// runs against, over objects P moved by M. Queries are safe to call
// concurrently with ApplyBatch; ApplyBatch itself is single-writer.
type epochIndex[P, M any] interface {
	Name() string
	// Build initializes the wrapper over the snapshot and publishes
	// epoch 0.
	Build(snap []P)
	// ApplyBatch applies one tick of moves and publishes the next
	// epoch. On error the batch was NOT applied: the previous epoch
	// stays live and the caller may merge the batch into the next tick.
	ApplyBatch(moves []M) (uint64, error)
	// Query probes the live epoch, returning the epoch number and
	// consistency digest the query observed.
	Query(r geom.Rect, emit func(id uint32)) (epoch, digest uint64)
	// Epoch returns the live epoch number and digest.
	Epoch() (uint64, uint64)
	Stats() EpochStats
}

// EpochIndex is the point contract (implemented by epoch.Index).
type EpochIndex epochIndex[geom.Point, geom.Move]

// EpochBoxIndex is EpochIndex over rectangles (implemented by
// epoch.BoxIndex).
type EpochBoxIndex epochIndex[geom.Rect, geom.BoxMove]

// shardedEpochIndex is the contract of an engine composed of
// independently published per-region epochs (internal/shard): a query
// observes one (epoch, digest) pair PER SHARD it touches. Forcing such
// an engine through the single-epoch contract would flag false
// violations — shards legitimately publish at different times, including
// ticks where only some shards had routed moves or one shard's publish
// failed while the rest advanced.
type shardedEpochIndex[P, M any] interface {
	Name() string
	// Build initializes every shard's wrapper over the snapshot and
	// publishes each shard's epoch 0.
	Build(snap []P)
	// ApplyBatch routes one tick of moves to the affected shards and
	// publishes them in parallel. A non-nil error means at least one
	// shard failed to publish; the others may have advanced, and the
	// caller merges the whole batch into the next tick (replay-safe).
	ApplyBatch(moves []M) error
	// Query fans out to the shards overlapping r, calling observe once
	// per touched shard with the (epoch, digest) pair that shard's probe
	// saw. The emitted id stream is duplicate-free across shards.
	Query(r geom.Rect, emit func(id uint32), observe func(shard int, epoch, digest uint64))
	// NumShards reports the shard count (valid after Build).
	NumShards() int
	// ShardEpoch returns shard i's live epoch number and digest.
	ShardEpoch(i int) (uint64, uint64)
	Stats() EpochStats
}

// ShardedEpochIndex is the region-sharded point engine contract
// (implemented by shard.Concurrent).
type ShardedEpochIndex shardedEpochIndex[geom.Point, geom.Move]

// ShardedEpochBoxIndex is ShardedEpochIndex over rectangles (implemented
// by shard.BoxConcurrent).
type ShardedEpochBoxIndex shardedEpochIndex[geom.Rect, geom.BoxMove]

// ConcurrentOptions tunes a RunConcurrent.
type ConcurrentOptions struct {
	// Ticks caps the number of ticks executed; 0 means the workload's
	// configured tick count.
	Ticks int
	// Readers is the number of query worker goroutines draining each
	// tick's queriers; 0 selects GOMAXPROCS-1 (one core is left for the
	// updater), minimum 1.
	Readers int
	// Obs, when non-nil, receives the concurrent driver's instruments
	// (per-query latency, apply/tick spans, violation gauge) and is
	// offered to the epoch wrapper before Build, which adds the
	// epoch/shard/tune series. Nil disables instrumentation; per-query
	// latency percentiles are then still bounded-memory via a private
	// histogram.
	Obs *obs.Registry
}

// ConcurrentResult aggregates a concurrent run. Join pairs and the hash
// are reported for sanity but are NOT comparable across runs: a query
// legitimately answers from either of the two epochs adjacent to its
// block's execution window, so the result depends on scheduling. The
// epoch consistency contract is what is checked instead (Violations).
type ConcurrentResult struct {
	Technique string
	Ticks     int
	Readers   int
	Elapsed   time.Duration

	Queries int64
	Updates int64
	Pairs   int64
	Hash    uint64

	// QueryP50/P95/P99 are per-query latency percentiles measured while
	// the update stream applies concurrently, over a sample fixed by
	// position: a run of latSample consecutive queries in every block of
	// queryBlock queriers a reader claims (one query in eight on a long
	// stream; sampleWindow places the run), QuerySamples of them in all.
	// A sampled query's latency is the interval between consecutive
	// completion stamps on its reader (one monotonic clock read per
	// stamp), so it covers the probe and folding its results; the run's
	// first is measured from a stamp taken just before it. Claiming the
	// block and leasing the epoch, paid once per block, are in no sample.
	QueryP50, QueryP95, QueryP99 time.Duration
	QuerySamples                 int64

	// FailedTicks counts ticks whose batch exhausted the wrapper's
	// retries and carried over into the next tick.
	FailedTicks int
	// Violations counts queries whose (epoch, digest) pair did not
	// match a published epoch. Any non-zero value is a bug.
	Violations int64

	Stats EpochStats
}

// AvgTick returns the average wall time per tick.
func (r *ConcurrentResult) AvgTick() time.Duration {
	if r.Ticks == 0 {
		return 0
	}
	return r.Elapsed / time.Duration(r.Ticks)
}

// concurrentEngine is what the concurrent tick loop runs: one object
// class's workload feed (pointFeed / boxFeed) bound to an engine of
// N >= 1 independently published epochs (onePublication / perShard). A
// single-epoch index is the one-publication case.
type concurrentEngine[M any] struct {
	name      string
	ticks     int
	queriers  func() []uint32
	queryRect func(q uint32) geom.Rect
	// fetchBatch advances the workload one tick and converts its update
	// batch to index moves WITHOUT applying it to the base table.
	fetchBatch func() []M
	// commitBatch installs the fetched batch into the base table; called
	// after the tick's queries have drained, preserving the framework's
	// "queries read the previous tick's state" contract.
	commitBatch func()

	apply func(moves []M) error
	// publications is how many epochs the engine publishes independently
	// and epochOf returns publication i's live (epoch, digest).
	publications int
	epochOf      func(i int) (uint64, uint64)
	// leaser binds one reader worker's source of block leases, once per
	// run: the queries under a lease it hands out go into the caller's
	// reused buffer, and the (epoch, digest) each touched publication
	// showed them is in logs[i] by the time the lease is released.
	leaser func(logs []epochLog) EpochLeaser
	stats  func() EpochStats
}

// onePublication binds a single-epoch index: every query observes
// publication 0. An index that can lease its live epoch is leased once
// per block; any other goes through the one-query adapter.
func onePublication[P, M any](e *concurrentEngine[M], x epochIndex[P, M]) {
	e.apply = func(moves []M) error { _, err := x.ApplyBatch(moves); return err }
	e.publications = 1
	e.epochOf = func(int) (uint64, uint64) { return x.Epoch() }
	e.stats = x.Stats
	if src, ok := x.(EpochLeaser); ok {
		e.leaser = func(logs []epochLog) EpochLeaser { return &loggedLeaser{src: src, log: &logs[0]} }
		return
	}
	qa, ok := x.(EpochQueryAppender)
	if !ok {
		qa = emitAppender(x.Query)
	}
	e.leaser = func(logs []epochLog) EpochLeaser {
		log := &logs[0]
		return queryLease(func(r geom.Rect, buf []uint32) []uint32 {
			buf, ep, dg := qa.QueryAppend(r, buf)
			log.observe(ep, dg)
			return buf
		})
	}
}

// loggedLeaser is one reader's view of a leasing index: each lease it
// takes is observed into the reader's log, once. Every query under the
// lease reads the same buffer, so one observation a block loses nothing.
type loggedLeaser struct {
	src EpochLeaser
	log *epochLog
}

func (o *loggedLeaser) Lease() EpochLease {
	l := o.src.Lease()
	o.log.observe(l.Epoch())
	return l
}

// queryLease adapts an engine that cannot lease a block — a sharded
// engine, whose query fans out over N publications, or a decorator that
// forwards EpochQueryAppender and no more — to the block drain: a lease
// that pins nothing, under which every query pins, observes and unpins
// for itself. The function is one reader's bound query.
type queryLease func(r geom.Rect, buf []uint32) []uint32

func (q queryLease) Lease() EpochLease { return q }

func (q queryLease) QueryAppend(r geom.Rect, buf []uint32) []uint32 { return q(r, buf) }

// Epoch is not read: the bound query has made the observations.
func (q queryLease) Epoch() (uint64, uint64) { return 0, 0 }

func (q queryLease) Release() {}

// emitAppender adapts an epoch index's callback Query to
// EpochQueryAppender, for wrappers without the native capability.
type emitAppender func(r geom.Rect, emit func(id uint32)) (uint64, uint64)

func (q emitAppender) QueryAppend(r geom.Rect, buf []uint32) ([]uint32, uint64, uint64) {
	ep, dg := q(r, func(id uint32) { buf = append(buf, id) })
	return buf, ep, dg
}

// perShard binds a sharded engine: one publication per shard, each
// query observing the shards it touches.
func perShard[P, M any](e *concurrentEngine[M], x shardedEpochIndex[P, M]) {
	e.apply = x.ApplyBatch
	e.publications = x.NumShards()
	e.epochOf = x.ShardEpoch
	e.stats = x.Stats
	qa, ok := x.(ShardedEpochQueryAppender)
	if !ok {
		qa = shardedEmitAppender(x.Query)
	}
	e.leaser = func(logs []epochLog) EpochLeaser {
		observe := func(shard int, ep, dg uint64) { logs[shard].observe(ep, dg) }
		return queryLease(func(r geom.Rect, buf []uint32) []uint32 { return qa.QueryAppend(r, buf, observe) })
	}
}

// shardedEmitAppender is emitAppender for ShardedEpochQueryAppender.
type shardedEmitAppender func(r geom.Rect, emit func(id uint32), observe func(shard int, ep, dg uint64))

func (q shardedEmitAppender) QueryAppend(r geom.Rect, buf []uint32, observe func(shard int, ep, dg uint64)) []uint32 {
	q(r, func(id uint32) { buf = append(buf, id) }, observe)
	return buf
}

// epochLog is one reader's record of the distinct (epoch, digest)
// observations it made on one publication: seen keeps the first digest
// observed per epoch for the post-run check against the publish oracle,
// and a same-epoch observation with a different digest is a violation
// counted immediately. Nearly every query observes the epoch the
// previous one did, so the last observation is checked before the map.
type epochLog struct {
	seen           map[uint64]uint64
	lastEp, lastDg uint64
	some           bool
	bad            int64
}

func (l *epochLog) observe(ep, dg uint64) {
	if !l.some || ep != l.lastEp {
		first, ok := l.seen[ep]
		if !ok {
			first = dg
			l.seen[ep] = dg
		}
		l.lastEp, l.lastDg, l.some = ep, first, true
	}
	if dg != l.lastDg {
		l.bad++
	}
}

// latSample is how many queries of a claimed block are stamped for the
// latency series: latSample consecutive ones, so a block costs
// latSample+1 clock reads and not queryBlock. Where the run sits in the
// block rotates with the reader's block count (sampleWindow), because a
// query's place in its block is not neutral — the first few after the
// claim run measurably slower — and a sample that always took them read
// a p99 a fifth above the stream's (TestConcurrentLatSampleTracksEveryQuery).
// A var, not a const, only so a test can stamp every query.
var latSample = 8

// sampleWindow places the stamped run [from, from+n) of a reader's k-th
// block of the given length: k steps it through the block latSample at a
// time, so over queryBlock/latSample blocks every place is stamped once;
// a short last block stamps its tail.
func sampleWindow(k, length int) (from, n int) {
	n = min(latSample, length)
	return min(k*latSample%queryBlock, length-n), n
}

// readerState is one query worker's state across the whole run, merged
// by finishReaders. src is where it takes each block's lease, bound when
// the reader is made; lat keeps exact latency samples up to
// maxExactLatSamples and feeds the shared histogram beyond that (bounded
// memory on long runs); logs holds one epochLog per publication the
// engine has; buf is the result buffer every query of every tick reuses,
// so the steady state allocates nothing.
type readerState struct {
	src    EpochLeaser
	lat    latRecorder
	logs   []epochLog
	buf    []uint32
	blocks int // served so far
	pairs  int64
	hash   uint64
}

func newReaderStates(readers, publications, ticks int, latHist *obs.Histogram, leaser func(logs []epochLog) EpochLeaser) []*readerState {
	states := make([]*readerState, readers)
	for w := range states {
		st := &readerState{lat: latRecorder{hist: latHist}, logs: make([]epochLog, publications)}
		for i := range st.logs {
			st.logs[i].seen = make(map[uint64]uint64, ticks+1)
		}
		st.src = leaser(st.logs)
		states[w] = st
	}
	return states
}

// serveBlock answers one claimed block of queriers under one lease,
// released on the way out of a panicking query too: a reader that died
// holding it would leave the writer spinning in quiesce.
func (st *readerState) serveBlock(queryRect func(q uint32) geom.Rect, block []uint32) {
	l := st.src.Lease()
	defer l.Release()
	st.drainBlock(l, queryRect, block)
}

// drainBlock is the join under a held lease: probe and fold every query,
// stamp the completions of the block's sample window.
//
//joinlint:hotpath
func (st *readerState) drainBlock(l EpochLease, queryRect func(q uint32) geom.Rect, block []uint32) {
	from, n := sampleWindow(st.blocks, len(block))
	st.blocks++
	buf, hash := st.buf, st.hash
	var pairs int
	for i, q := range block {
		if i == from {
			st.lat.start()
		}
		buf = l.QueryAppend(queryRect(q), buf[:0])
		for _, id := range buf {
			hash = MixPair(hash, q, id)
		}
		pairs += len(buf)
		if uint(i-from) < uint(n) {
			st.lat.lap()
		}
	}
	st.buf, st.hash = buf, hash
	st.pairs += int64(pairs)
}

// drainTick runs the readers over one tick's querier stream. The block
// is the unit of everything but the join: a reader claims queryBlock
// queriers (forEachBlock), leases the epoch once for them, observes it
// once, and stamps a fixed sample of them (serveBlock).
func drainTick(states []*readerState, queryRect func(q uint32) geom.Rect, queriers []uint32) {
	forEachBlock(len(queriers), len(states), func(w, lo, hi int) {
		states[w].serveBlock(queryRect, queriers[lo:hi])
	})
}

// finishReaders merges the readers into res and verifies every
// observation against oracle, which holds per publication the digest of
// every epoch it published (recorded by the single-threaded driver after
// each tick, so publish/observe ordering cannot race).
func finishReaders(res *ConcurrentResult, states []*readerState, oracle []map[uint64]uint64, latHist *obs.Histogram) {
	recs := make([]*latRecorder, 0, len(states))
	for _, st := range states {
		res.Pairs += st.pairs
		res.Hash += st.hash
		for i := range st.logs {
			res.Violations += st.logs[i].bad
			for e, d := range st.logs[i].seen {
				if want, ok := oracle[i][e]; !ok || want != d {
					res.Violations++
				}
			}
		}
		recs = append(recs, &st.lat)
		res.QuerySamples += st.lat.count()
	}
	res.QueryP50, res.QueryP95, res.QueryP99 = latPercentiles(recs, latHist)
}

// runConcurrent overlaps each tick's query drain with its update batch:
// one updater goroutine calls ApplyBatch while reader workers claim
// blocks of the querier stream through an atomic cursor (drainTick). A
// sample of per-query latencies is collected for the percentile series,
// and the (epoch, digest) every query answered from is checked, per
// publication, against the publish oracle. The oracle records EVERY
// publication's live epoch after EVERY tick — including failed ones,
// because a tick where shard A published and shard B exhausted retries
// is a valid engine state: A's new epoch must be accepted, B's old epoch
// keeps serving.
func runConcurrent[M any](e *concurrentEngine[M], opts ConcurrentOptions) *ConcurrentResult {
	readers := opts.Readers
	if readers <= 0 {
		readers = runtime.GOMAXPROCS(0) - 1
	}
	if readers < 1 {
		readers = 1
	}
	ticks := clampTicks(opts.Ticks, e.ticks)
	res := &ConcurrentResult{Technique: e.name, Ticks: ticks, Readers: readers}
	co := newConcObs(opts.Obs)
	latHist := co.latHist()
	states := newReaderStates(readers, e.publications, ticks, latHist, e.leaser)

	oracle := make([]map[uint64]uint64, e.publications)
	for i := range oracle {
		oracle[i] = map[uint64]uint64{}
	}
	recordOracle := func() {
		for i := range oracle {
			ep, dg := e.epochOf(i)
			oracle[i][ep] = dg
		}
	}
	recordOracle()

	var pending []M
	start := time.Now()
	for t := 0; t < ticks; t++ {
		ts := co.reg.Enter(co.tick)
		queriers := e.queriers()
		batch := e.fetchBatch()
		moves := batch
		if len(pending) > 0 {
			moves = append(pending, batch...)
		}

		// parutil.GoErr contains an updater panic as a failed tick (the
		// readers must drain and the loop must carry the batch) instead of
		// letting a raw goroutine kill the process.
		mv := moves
		updDone := parutil.GoErr(func() error {
			sp := co.reg.Enter(co.apply)
			err := e.apply(mv)
			co.reg.Exit(sp)
			return err
		})

		drainTick(states, e.queryRect, queriers)
		err := <-updDone
		e.commitBatch()
		if err != nil {
			res.FailedTicks++
			co.failed.Inc()
			// Copy: moves may alias fetchBatch's reused buffer, which the
			// next tick overwrites.
			pending = append([]M(nil), moves...)
		} else {
			pending = nil
		}
		recordOracle()
		res.Queries += int64(len(queriers))
		res.Updates += int64(len(batch))
		co.ticks.Inc()
		co.queries.Add(int64(len(queriers)))
		co.updates.Add(int64(len(batch)))
		co.reg.Exit(ts)
	}
	res.Elapsed = time.Since(start)

	finishReaders(res, states, oracle, latHist)
	co.violations.Set(res.Violations)
	res.Stats = e.stats()
	return res
}

// pointFeed binds a point workload to the loop: the snapshot the index
// is built over, and an engine whose feed half is filled in.
func pointFeed(src workload.Source) ([]geom.Point, *concurrentEngine[geom.Move]) {
	snap := make([]geom.Point, len(src.Objects()))
	refreshSnapshot(snap, src.Objects())
	var batch []workload.Update
	var moves []geom.Move
	return snap, &concurrentEngine[geom.Move]{
		ticks:     src.Config().Ticks,
		queriers:  src.Queriers,
		queryRect: src.QueryRect,
		fetchBatch: func() []geom.Move {
			batch = src.Updates()
			moves = moves[:0]
			for _, u := range batch {
				moves = append(moves, geom.Move{ID: u.ID, Old: snap[u.ID], New: u.Pos})
			}
			return moves
		},
		commitBatch: func() {
			src.ApplyUpdates(batch)
			for _, u := range batch {
				snap[u.ID] = u.Pos
			}
		},
	}
}

// boxFeed is pointFeed for box workloads.
func boxFeed(src workload.BoxSource) ([]geom.Rect, *concurrentEngine[geom.BoxMove]) {
	snap := make([]geom.Rect, src.NumBoxes())
	src.RefreshRects(snap, 0, len(snap))
	var batch []workload.BoxUpdate
	var moves []geom.BoxMove
	return snap, &concurrentEngine[geom.BoxMove]{
		ticks:     src.Config().Ticks,
		queriers:  src.Queriers,
		queryRect: src.QueryRect,
		fetchBatch: func() []geom.BoxMove {
			batch = src.Updates()
			moves = moves[:0]
			for _, u := range batch {
				moves = append(moves, geom.BoxMove{ID: u.ID, Old: snap[u.ID], New: u.Rect})
			}
			return moves
		},
		commitBatch: func() {
			src.ApplyUpdates(batch)
			for _, u := range batch {
				snap[u.ID] = u.Rect
			}
		},
	}
}

// runEpoch builds a single-epoch index from its initial snapshot
// (epoch 0) and runs the loop over it: the index is then maintained
// incrementally — the service-mode regime the epoch wrapper exists for —
// rather than rebuilt per tick.
func runEpoch[P, M any](x epochIndex[P, M], snap []P, e *concurrentEngine[M], opts ConcurrentOptions) *ConcurrentResult {
	obs.Instrument(x, opts.Obs)
	x.Build(snap)
	e.name = x.Name()
	onePublication(e, x)
	return runConcurrent(e, opts)
}

// runSharded is runEpoch for a per-region-epoch engine.
func runSharded[P, M any](x shardedEpochIndex[P, M], snap []P, e *concurrentEngine[M], opts ConcurrentOptions) *ConcurrentResult {
	obs.Instrument(x, opts.Obs)
	x.Build(snap)
	e.name = x.Name()
	perShard(e, x)
	return runConcurrent(e, opts)
}

// RunConcurrent executes the iterated spatial join of an epoch-published
// point index over src with queries and updates overlapped per tick.
func RunConcurrent(x EpochIndex, src workload.Source, opts ConcurrentOptions) *ConcurrentResult {
	snap, e := pointFeed(src)
	return runEpoch(x, snap, e, opts)
}

// RunBoxesConcurrent is RunConcurrent for epoch-published box indexes.
func RunBoxesConcurrent(x EpochBoxIndex, src workload.BoxSource, opts ConcurrentOptions) *ConcurrentResult {
	snap, e := boxFeed(src)
	return runEpoch(x, snap, e, opts)
}

// RunConcurrentSharded is RunConcurrent for a region-sharded
// epoch-published point engine, validating each query's per-shard
// (epoch, digest) observations against per-shard publish oracles.
func RunConcurrentSharded(x ShardedEpochIndex, src workload.Source, opts ConcurrentOptions) *ConcurrentResult {
	snap, e := pointFeed(src)
	return runSharded(x, snap, e, opts)
}

// RunBoxesConcurrentSharded is RunConcurrentSharded for region-sharded
// epoch-published box engines.
func RunBoxesConcurrentSharded(x ShardedEpochBoxIndex, src workload.BoxSource, opts ConcurrentOptions) *ConcurrentResult {
	snap, e := boxFeed(src)
	return runSharded(x, snap, e, opts)
}

package core

import (
	"runtime"
	"sync/atomic"
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
// legitimately observes either of the two epochs adjacent to its
// execution window, so the result depends on scheduling. The epoch
// consistency contract is what is checked instead (Violations).
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
	// the update stream applies concurrently. A query's latency is the
	// interval between consecutive completion stamps on its reader
	// worker (one monotonic clock read per query), so it covers claiming
	// the querier, the probe, folding its results and the consistency
	// bookkeeping; a worker's first query of a tick is measured from the
	// worker's start.
	QueryP50, QueryP95, QueryP99 time.Duration

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
	// reader binds one reader worker's buffered query kernel: it drains
	// one query into the caller's reused buffer and records the
	// (epoch, digest) each touched publication showed in logs[i].
	reader func(logs []epochLog) func(r geom.Rect, buf []uint32) []uint32
	stats  func() EpochStats
}

// onePublication binds a single-epoch index: every query observes
// publication 0, straight into its log.
func onePublication[P, M any](e *concurrentEngine[M], x epochIndex[P, M]) {
	e.apply = func(moves []M) error { _, err := x.ApplyBatch(moves); return err }
	e.publications = 1
	e.epochOf = func(int) (uint64, uint64) { return x.Epoch() }
	qa, ok := x.(EpochQueryAppender)
	if !ok {
		qa = emitAppender(x.Query)
	}
	e.reader = func(logs []epochLog) func(r geom.Rect, buf []uint32) []uint32 {
		log := &logs[0]
		return func(r geom.Rect, buf []uint32) []uint32 {
			buf, ep, dg := qa.QueryAppend(r, buf)
			log.observe(ep, dg)
			return buf
		}
	}
	e.stats = x.Stats
}

// emitAppender adapts an epoch index's callback Query to
// EpochQueryAppender, for wrappers without the native capability.
type emitAppender func(r geom.Rect, emit func(id uint32)) (uint64, uint64)

func (q emitAppender) QueryAppend(r geom.Rect, buf []uint32) ([]uint32, uint64, uint64) {
	ep, dg := q(r, func(id uint32) { buf = append(buf, id) })
	return buf, ep, dg
}

// perShard binds a sharded engine: one publication per shard.
func perShard[P, M any](e *concurrentEngine[M], x shardedEpochIndex[P, M]) {
	e.apply = x.ApplyBatch
	e.publications = x.NumShards()
	e.epochOf = x.ShardEpoch
	qa, ok := x.(ShardedEpochQueryAppender)
	if !ok {
		qa = shardedEmitAppender(x.Query)
	}
	e.reader = func(logs []epochLog) func(r geom.Rect, buf []uint32) []uint32 {
		observe := func(shard int, ep, dg uint64) { logs[shard].observe(ep, dg) }
		return func(r geom.Rect, buf []uint32) []uint32 { return qa.QueryAppend(r, buf, observe) }
	}
	e.stats = x.Stats
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

// readerState is one query worker's state across the whole run, merged
// by finishReaders. lat keeps exact latency samples up to
// maxExactLatSamples and feeds the shared histogram beyond that
// (bounded memory on long runs); logs holds one epochLog per
// publication the engine has; buf is the result buffer every query of
// every tick reuses, so the steady state allocates nothing.
type readerState struct {
	lat   latRecorder
	logs  []epochLog
	buf   []uint32
	pairs int64
	hash  uint64
}

func newReaderStates(readers, publications, ticks int, latHist *obs.Histogram) []*readerState {
	states := make([]*readerState, readers)
	for w := range states {
		st := &readerState{lat: latRecorder{hist: latHist}, logs: make([]epochLog, publications)}
		for i := range st.logs {
			st.logs[i].seen = make(map[uint64]uint64, ticks+1)
		}
		states[w] = st
	}
	return states
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
	}
	res.QueryP50, res.QueryP95, res.QueryP99 = latPercentiles(recs, latHist)
}

// runConcurrent overlaps each tick's query drain with its update batch:
// one updater goroutine calls ApplyBatch while reader workers claim
// blocks of the querier stream through an atomic cursor. Per-query
// latencies are collected for the percentile series, and every query's
// per-publication (epoch, digest) observations are checked against the
// publish oracle. The oracle records EVERY publication's live epoch
// after EVERY tick — including failed ones, because a tick where shard A
// published and shard B exhausted retries is a valid engine state: A's
// new epoch must be accepted, B's old epoch keeps serving.
func runConcurrent[M any](e *concurrentEngine[M], opts ConcurrentOptions) *ConcurrentResult {
	readers := opts.Readers
	if readers <= 0 {
		readers = runtime.GOMAXPROCS(0) - 1
	}
	if readers < 1 {
		readers = 1
	}
	ticks := e.ticks
	if opts.Ticks > 0 && opts.Ticks < ticks {
		ticks = opts.Ticks
	}
	res := &ConcurrentResult{Technique: e.name, Ticks: ticks, Readers: readers}
	co := newConcObs(opts.Obs)
	latHist := co.latHist()
	states := newReaderStates(readers, e.publications, ticks, latHist)

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

		var cursor atomic.Int64
		var g parutil.Group
		for w := 0; w < readers; w++ {
			st := states[w]
			g.Go(func() {
				queryAppend := e.reader(st.logs)
				st.lat.start()
				for {
					lo := int(cursor.Add(queryBlock)) - queryBlock
					if lo >= len(queriers) {
						break
					}
					hi := lo + queryBlock
					if hi > len(queriers) {
						hi = len(queriers)
					}
					for _, q := range queriers[lo:hi] {
						st.buf = queryAppend(e.queryRect(q), st.buf[:0])
						for _, id := range st.buf {
							st.pairs++
							st.hash = MixPair(st.hash, q, id)
						}
						st.lat.lap()
					}
				}
			})
		}
		g.Wait()
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

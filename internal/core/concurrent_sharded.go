package core

import (
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/parutil"
	"repro/internal/workload"
)

// This file holds the sharded variant of the concurrent tick driver:
// the engine under test is a composition of independently published
// per-region epochs (internal/shard), so a query observes one
// (epoch, digest) pair PER SHARD it touches and the consistency oracle
// is kept per shard. Forcing such an engine through the single-epoch
// driver would flag false violations — shards legitimately publish at
// different times, including ticks where only some shards had routed
// moves or one shard's publish failed while the rest advanced.

// ShardedEpochIndex is the region-sharded epoch-published point engine
// contract (implemented by shard.Concurrent). Queries are safe to call
// concurrently with ApplyBatch; ApplyBatch is single-writer.
type ShardedEpochIndex interface {
	Name() string
	// Build initializes every shard's wrapper over the snapshot and
	// publishes each shard's epoch 0.
	Build(pts []geom.Point)
	// ApplyBatch routes one tick of moves to the affected shards and
	// publishes them in parallel. A non-nil error means at least one
	// shard failed to publish; the others may have advanced, and the
	// caller merges the whole batch into the next tick (replay-safe).
	ApplyBatch(moves []geom.Move) error
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

// ShardedEpochBoxIndex is ShardedEpochIndex over rectangles
// (implemented by shard.BoxConcurrent).
type ShardedEpochBoxIndex interface {
	Name() string
	Build(rects []geom.Rect)
	ApplyBatch(moves []geom.BoxMove) error
	Query(r geom.Rect, emit func(id uint32), observe func(shard int, epoch, digest uint64))
	NumShards() int
	ShardEpoch(i int) (uint64, uint64)
	Stats() EpochStats
}

// shardedConcurrentEngine adapts one object class to the sharded
// concurrent loop, mirroring concurrentEngine[M].
type shardedConcurrentEngine[M any] struct {
	name        string
	ticks       int
	queriers    func() []uint32
	queryRect   func(q uint32) geom.Rect
	fetchBatch  func() []M
	commitBatch func()
	apply       func(moves []M) error
	// queryAppend drains one query into the caller's reused buffer,
	// reporting each touched shard's (epoch, digest) through observe —
	// the buffered kernel every reader worker runs (native via
	// ShardedEpochQueryAppender, else the adapter built by
	// shardedEpochAppendOf).
	queryAppend func(r geom.Rect, buf []uint32, observe func(shard int, ep, dg uint64)) []uint32
	numShards   func() int
	shardEpoch  func(i int) (uint64, uint64)
	stats       func() EpochStats
}

// shardedEpochAppendOf returns the buffered fan-out kernel of a sharded
// epoch engine: the native QueryAppend when the engine implements
// ShardedEpochQueryAppender, else an adapter over the callback Query.
func shardedEpochAppendOf(x any, query func(r geom.Rect, emit func(id uint32), observe func(shard int, ep, dg uint64))) func(r geom.Rect, buf []uint32, observe func(shard int, ep, dg uint64)) []uint32 {
	if qa, ok := x.(ShardedEpochQueryAppender); ok {
		return qa.QueryAppend
	}
	return func(r geom.Rect, buf []uint32, observe func(shard int, ep, dg uint64)) []uint32 {
		query(r, func(id uint32) { buf = append(buf, id) }, observe)
		return buf
	}
}

// runConcurrentSharded is runConcurrent with per-shard consistency
// accounting. The oracle records EVERY shard's live (epoch, digest)
// after EVERY tick — including failed ones, because a tick where shard
// A published and shard B exhausted retries is a valid engine state:
// A's new epoch must be accepted, B's old epoch keeps serving.
func runConcurrentSharded[M any](e *shardedConcurrentEngine[M], opts ConcurrentOptions) *ConcurrentResult {
	res := concurrentSetup(e.name, e.ticks, opts)
	ticks, readers := res.Ticks, res.Readers
	co := newConcObs(opts.Obs)
	latHist := co.latHist()
	shards := e.numShards()
	states := newReaderStates(readers, shards, ticks, latHist)

	oracle := make([]map[uint64]uint64, shards)
	for i := range oracle {
		oracle[i] = map[uint64]uint64{}
	}
	recordOracle := func() {
		for i := range oracle {
			ep, dg := e.shardEpoch(i)
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
				observe := func(shard int, ep, dg uint64) { st.logs[shard].observe(ep, dg) }
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
						st.buf = e.queryAppend(e.queryRect(q), st.buf[:0], observe)
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
			pending = append([]M(nil), moves...)
		} else {
			pending = nil
		}
		// Shards publish independently; some advanced even on a failed
		// tick, so the oracle snapshot happens unconditionally.
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

// RunConcurrentSharded executes the iterated spatial join of a
// region-sharded epoch-published point engine over src with queries and
// updates overlapped per tick, validating each query's per-shard
// (epoch, digest) observations against per-shard publish oracles.
func RunConcurrentSharded(x ShardedEpochIndex, src workload.Source, opts ConcurrentOptions) *ConcurrentResult {
	obs.Instrument(x, opts.Obs)
	cfg := src.Config()
	snap := make([]geom.Point, len(src.Objects()))
	refreshSnapshot(snap, src.Objects())
	x.Build(snap)

	var batch []workload.Update
	var moves []geom.Move
	e := &shardedConcurrentEngine[geom.Move]{
		name:      x.Name(),
		ticks:     cfg.Ticks,
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
		apply:       x.ApplyBatch,
		queryAppend: shardedEpochAppendOf(x, x.Query),
		numShards:   x.NumShards,
		shardEpoch:  x.ShardEpoch,
		stats:       x.Stats,
	}
	return runConcurrentSharded(e, opts)
}

// RunBoxesConcurrentSharded is RunConcurrentSharded for region-sharded
// epoch-published box engines.
func RunBoxesConcurrentSharded(x ShardedEpochBoxIndex, src workload.BoxSource, opts ConcurrentOptions) *ConcurrentResult {
	obs.Instrument(x, opts.Obs)
	cfg := src.Config()
	snap := make([]geom.Rect, src.NumBoxes())
	src.RefreshRects(snap, 0, len(snap))
	x.Build(snap)

	var batch []workload.BoxUpdate
	var moves []geom.BoxMove
	e := &shardedConcurrentEngine[geom.BoxMove]{
		name:      x.Name(),
		ticks:     cfg.Ticks,
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
		apply:       x.ApplyBatch,
		queryAppend: shardedEpochAppendOf(x, x.Query),
		numShards:   x.NumShards,
		shardEpoch:  x.ShardEpoch,
		stats:       x.Stats,
	}
	return runConcurrentSharded(e, opts)
}

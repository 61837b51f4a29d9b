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

// EpochIndex is the epoch-published point index contract the concurrent
// driver runs against (implemented by epoch.Index). Queries are safe to
// call concurrently with ApplyBatch; ApplyBatch itself is single-writer.
type EpochIndex interface {
	Name() string
	// Build initializes the wrapper over the snapshot and publishes
	// epoch 0.
	Build(pts []geom.Point)
	// ApplyBatch applies one tick of moves and publishes the next
	// epoch. On error the batch was NOT applied: the previous epoch
	// stays live and the caller may merge the batch into the next tick.
	ApplyBatch(moves []geom.Move) (uint64, error)
	// Query probes the live epoch, returning the epoch number and
	// consistency digest the query observed.
	Query(r geom.Rect, emit func(id uint32)) (epoch, digest uint64)
	// Epoch returns the live epoch number and digest.
	Epoch() (uint64, uint64)
	Stats() EpochStats
}

// EpochBoxIndex is EpochIndex over rectangles (implemented by
// epoch.BoxIndex).
type EpochBoxIndex interface {
	Name() string
	Build(rects []geom.Rect)
	ApplyBatch(moves []geom.BoxMove) (uint64, error)
	Query(r geom.Rect, emit func(id uint32)) (epoch, digest uint64)
	Epoch() (uint64, uint64)
	Stats() EpochStats
}

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

// concurrentEngine adapts one object class to the concurrent tick loop,
// mirroring engine[P] for the stop-the-world drivers.
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
	apply       func(moves []M) (uint64, error)
	// queryAppend drains one query into the caller's reused buffer,
	// returning the (epoch, digest) observation — the buffered kernel
	// every reader worker runs (native via EpochQueryAppender, else the
	// callback adapter built by epochAppendOf).
	queryAppend func(r geom.Rect, buf []uint32) ([]uint32, uint64, uint64)
	epochNow    func() (uint64, uint64)
	stats       func() EpochStats
}

// epochAppendOf returns the buffered query kernel of an epoch-published
// index: the native QueryAppend when the wrapper implements
// EpochQueryAppender, else an adapter over the callback Query.
func epochAppendOf(x any, query func(r geom.Rect, emit func(id uint32)) (uint64, uint64)) func(r geom.Rect, buf []uint32) ([]uint32, uint64, uint64) {
	if qa, ok := x.(EpochQueryAppender); ok {
		return qa.QueryAppend
	}
	return func(r geom.Rect, buf []uint32) ([]uint32, uint64, uint64) {
		ep, dg := query(r, func(id uint32) { buf = append(buf, id) })
		return buf, ep, dg
	}
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
// publication the engine has (one for a single-epoch index, one per
// shard for a sharded engine); buf is the result buffer every query of
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

// concurrentSetup resolves the reader and tick counts shared by the two
// concurrent drivers.
func concurrentSetup(name string, ticks int, opts ConcurrentOptions) *ConcurrentResult {
	readers := opts.Readers
	if readers <= 0 {
		readers = runtime.GOMAXPROCS(0) - 1
	}
	if readers < 1 {
		readers = 1
	}
	if opts.Ticks > 0 && opts.Ticks < ticks {
		ticks = opts.Ticks
	}
	return &ConcurrentResult{Technique: name, Ticks: ticks, Readers: readers}
}

// runConcurrent overlaps each tick's query drain with its update batch:
// one updater goroutine calls ApplyBatch while reader workers claim
// blocks of the querier stream through an atomic cursor. Per-query
// latencies are collected for the percentile series, and every query's
// (epoch, digest) observation is checked against the published oracle.
func runConcurrent[M any](e *concurrentEngine[M], opts ConcurrentOptions) *ConcurrentResult {
	res := concurrentSetup(e.name, e.ticks, opts)
	ticks, readers := res.Ticks, res.Readers
	co := newConcObs(opts.Obs)
	latHist := co.latHist()
	states := newReaderStates(readers, 1, ticks, latHist)

	oracle := map[uint64]uint64{}
	ep, dg := e.epochNow()
	oracle[ep] = dg

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
			_, err := e.apply(mv)
			co.reg.Exit(sp)
			return err
		})

		var cursor atomic.Int64
		var g parutil.Group
		for w := 0; w < readers; w++ {
			st := states[w]
			g.Go(func() {
				epochs := &st.logs[0]
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
						var qe, qd uint64
						st.buf, qe, qd = e.queryAppend(e.queryRect(q), st.buf[:0])
						for _, id := range st.buf {
							st.pairs++
							st.hash = MixPair(st.hash, q, id)
						}
						epochs.observe(qe, qd)
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
			ep, dg := e.epochNow()
			oracle[ep] = dg
		}
		res.Queries += int64(len(queriers))
		res.Updates += int64(len(batch))
		co.ticks.Inc()
		co.queries.Add(int64(len(queriers)))
		co.updates.Add(int64(len(batch)))
		co.reg.Exit(ts)
	}
	res.Elapsed = time.Since(start)

	finishReaders(res, states, []map[uint64]uint64{oracle}, latHist)
	co.violations.Set(res.Violations)
	res.Stats = e.stats()
	return res
}

// RunConcurrent executes the iterated spatial join of an epoch-published
// point index over src with queries and updates overlapped per tick.
// The index is built once from the initial snapshot (epoch 0) and then
// maintained incrementally — the service-mode regime the epoch wrapper
// exists for — rather than rebuilt per tick.
func RunConcurrent(x EpochIndex, src workload.Source, opts ConcurrentOptions) *ConcurrentResult {
	obs.Instrument(x, opts.Obs)
	cfg := src.Config()
	snap := make([]geom.Point, len(src.Objects()))
	refreshSnapshot(snap, src.Objects())
	x.Build(snap)

	var batch []workload.Update
	var moves []geom.Move
	e := &concurrentEngine[geom.Move]{
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
		queryAppend: epochAppendOf(x, x.Query),
		epochNow:    x.Epoch,
		stats:       x.Stats,
	}
	return runConcurrent(e, opts)
}

// RunBoxesConcurrent is RunConcurrent for epoch-published box indexes.
func RunBoxesConcurrent(x EpochBoxIndex, src workload.BoxSource, opts ConcurrentOptions) *ConcurrentResult {
	obs.Instrument(x, opts.Obs)
	cfg := src.Config()
	snap := make([]geom.Rect, src.NumBoxes())
	src.RefreshRects(snap, 0, len(snap))
	x.Build(snap)

	var batch []workload.BoxUpdate
	var moves []geom.BoxMove
	e := &concurrentEngine[geom.BoxMove]{
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
		queryAppend: epochAppendOf(x, x.Query),
		epochNow:    x.Epoch,
		stats:       x.Stats,
	}
	return runConcurrent(e, opts)
}

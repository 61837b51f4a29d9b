// Package epoch wraps any core.Index/core.BoxIndex in an epoch-published
// double buffer so queries drain lock-free on an immutable live copy
// while the tick's update batch applies to a shadow copy, which is then
// atomically swapped in behind a quiesce barrier.
//
// # Publication protocol
//
// The wrapper owns two buffers, each holding an independent inner index
// plus a private base-table snapshot the index filters against. An
// atomic pointer names the live buffer. Readers pin it:
//
//	b := live.Load(); b.active++            // announce
//	if live.Load() != b { b.active--; retry } // confirm
//
// The writer applies the batch to the shadow, validates it, publishes
// with live.Store(shadow), and then quiesces — spins until the old
// buffer's active count drains to zero — before the old buffer may be
// touched again as the next shadow. Under Go's sequentially consistent
// atomics a reader either confirms its pin before the store (the writer
// waits for it) or re-checks after it (and retries onto the new live
// buffer), so no query ever observes a buffer under mutation: exactly
// one epoch is visible per query.
//
// A pin is a lease (Lease, core.EpochLease): it is held for one query by
// Query, QueryAppend and Len, and for a run of queries by a caller that
// has one — the concurrent driver leases once per block of 64 queriers.
// Every query under a lease answers from the leased epoch, so a late one
// may answer from the epoch before the live one — never an older one:
// quiesce waits out every lease on the retired buffer, one block long in
// that driver, before ApplyBatch returns. README.md, "Publication
// protocol", has the numbers.
//
// Because publishing leaves the new shadow one batch behind the new
// live, the writer carries the published batch and lands it in the
// shadow ahead of the next tick's batch (the catch-up protocol). There
// are two equally validated ways to land carry and batch. Replay feeds
// them to the inner index move by move. Bulk assigns them into the
// shadow's snapshot and runs one inner build — the paper's per-tick
// rebuild, which at its default half-the-population batches is several
// times cheaper than the replay and leaves the readers a freshly packed
// layout. bulkPays picks between them from the pending move count and
// the population alone; see README.md, "Replay vs bulk apply".
//
// # Consistency digests
//
// Every epoch carries a digest folded from the stream of published
// state: epoch 0 digests the build snapshot, and epoch n+1 folds epoch
// n's digest with the tick's batch (see Fold*). Queries return their
// epoch's digest, so a test oracle that folds the same batches can
// assert any query observed exactly one published epoch — never a blend.
//
// # Validation, failure, and degradation
//
// Before publishing, the wrapper validates the shadow: the inner
// index's own CheckInvariants (when implemented), a cardinality check,
// and sampled membership probes across the batch (always including the
// last move, so a torn prefix-only apply is caught). A validation
// failure or a contained panic (the apply/build/swap stages recover
// panics, including parutil.WorkerPanic from parallel inner paths) puts
// the tick into degradation: queries keep draining on the last good
// epoch, the shadow is rebuilt from the live snapshot plus the pending
// batches, and the publish is retried under exponential backoff capped
// at Options.MaxBackoff for up to Options.MaxRetries attempts. Every
// degraded tick, retry, and contained panic is counted in Stats. If all
// retries fail, ApplyBatch returns the error, the live epoch stays
// valid and served, and the shadow is marked dirty so the next tick
// starts from a full rebuild.
package epoch

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultutil"
	"repro/internal/geom"
)

// Default degradation policy: up to 4 publish attempts with 1ms, 2ms,
// 4ms backoff between them, capped at 20ms.
const (
	defaultMaxRetries = 3
	defaultBackoff    = time.Millisecond
	defaultMaxBackoff = 20 * time.Millisecond
	// maxProbes bounds the sampled membership probes per validation.
	maxProbes = 16
	// bulkShare decides how the shadow catches up (see bulkPays): once
	// the pending moves (carry + batch) exceed 1/bulkShare of the
	// population, landing them in the snapshot and running one inner
	// build is cheaper than replaying them. Derived from the measured
	// build-per-object and update-per-move costs; the crossover table is
	// in README.md ("Replay vs bulk apply").
	bulkShare = 6
)

// bulkPays is the whole apply-path policy: it sees the number of
// pending moves and the population, nothing else.
func bulkPays(pending, population int) bool {
	return pending*bulkShare > population
}

// Options configures a wrapper. The zero value is production-ready:
// no fault injection and the default retry/backoff policy.
type Options struct {
	// Injector, when non-nil, fires configured faults at the "apply",
	// "build", and "swap" sites of the maintenance pipeline.
	Injector *faultutil.Injector
	// MaxRetries is the number of publish retries after a failed
	// attempt (default 3, so 4 attempts total).
	MaxRetries int
	// Backoff is the sleep before the first retry; it doubles per
	// retry (default 1ms).
	Backoff time.Duration
	// MaxBackoff caps the doubling (default 20ms).
	MaxBackoff time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxRetries <= 0 {
		o.MaxRetries = defaultMaxRetries
	}
	if o.Backoff <= 0 {
		o.Backoff = defaultBackoff
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = defaultMaxBackoff
	}
	return o
}

// Stats counts the wrapper's lifecycle events: published epochs,
// degraded ticks, publish retries, and contained panics. It aliases
// core.EpochStats so the wrappers satisfy core.EpochIndex /
// core.EpochBoxIndex without core importing this package.
type Stats = core.EpochStats

// buffer is one of the two publication targets: an inner index plus the
// private snapshot it filters against, stamped with its epoch.
type buffer[P any] struct {
	idx core.IndexOf[P]
	// queryAppend is the inner's buffered query kernel, resolved once
	// when the buffer is made (core.QueryAppendOf: native when the inner
	// supports it), so a reader's query is one indirect call and never a
	// capability probe.
	queryAppend func(r geom.Rect, buf []uint32) []uint32
	snap        []P
	epoch       uint64
	digest      uint64
	// active counts pinned readers; the writer quiesces on it after a
	// swap before reusing the buffer as shadow.
	active atomic.Int64
	// probe is the writer's result scratch for the membership probes
	// (holds), touched only while the buffer is the shadow.
	probe []uint32
}

// newBuffer wraps a fresh inner index around a private copy of snap, so
// the caller's slice is never aliased by a published epoch.
func newBuffer[P any](idx core.IndexOf[P], snap []P) *buffer[P] {
	b := &buffer[P]{idx: idx, queryAppend: core.QueryAppendOf(idx, idx.Query), snap: make([]P, len(snap))}
	copy(b.snap, snap)
	return b
}

// length is the inner's cardinality (the snapshot's, for an inner that
// cannot count).
func (b *buffer[P]) length() int {
	if c, ok := b.idx.(core.Counter); ok {
		return c.Len()
	}
	return len(b.snap)
}

// owns reports whether the inner reports an object with geometry p:
// always, unless it is a region shard (Owner).
func (b *buffer[P]) owns(p P) bool {
	o, ok := b.idx.(Owner[P])
	return !ok || o.Owns(p)
}

// holds reports whether a query of r on the buffer's index returns id.
func (b *buffer[P]) holds(r geom.Rect, id uint32) bool {
	b.probe = b.queryAppend(r, b.probe[:0])
	for _, got := range b.probe {
		if got == id {
			return true
		}
	}
	return false
}

// pub is the generic epoch publisher. P is the object geometry, M the
// move record.
type pub[P any, M any] struct {
	// mu serializes writers (Build/ApplyBatch); queries never take it.
	mu     sync.Mutex
	live   atomic.Pointer[buffer[P]]
	shadow *buffer[P]
	// carry is the batch published in live but not yet replayed into
	// shadow (the catch-up protocol).
	carry []M
	// dirty marks the shadow unusable for incremental catch-up (a
	// failed tick left it in an unknown state): the next apply rebuilds.
	dirty bool
	opts  Options
	// lastOf is validate's scratch, kept across ticks so a steady-state
	// ApplyBatch allocates nothing. lastOf[id] is the index of id's
	// final move in the batch under validation: written for every move,
	// read only for probed ids (which the same batch wrote), so stale
	// entries are never seen and it is never cleared.
	lastOf []int32

	// ins holds the lifecycle counters (always present, backing Stats)
	// and the optional registry-shared series and phase spans (obs.go).
	ins ins

	// geo is the object geometry's hooks and newInner the wrapped
	// family's factory, both bound by the concrete constructors.
	geo      *geo[P, M]
	newInner func() core.IndexOf[P]
}

// init binds a zero publisher to its geometry and inner factory.
func (x *pub[P, M]) init(g *geo[P, M], newInner func() core.IndexOf[P], opts Options) {
	x.geo = g
	x.newInner = newInner
	x.opts = opts.withDefaults()
	x.ins = newIns()
}

// Name reports the wrapped family ("epoch(...)" around the inner name,
// once a Build has instantiated it).
func (x *pub[P, M]) Name() string {
	if b := x.live.Load(); b != nil {
		return "epoch(" + b.idx.Name() + ")"
	}
	return "epoch"
}

// Build initializes both buffers from the snapshot — each a fresh inner
// index over its own private copy — and publishes epoch 0.
func (x *pub[P, M]) Build(snap []P) {
	a, b := newBuffer(x.newInner(), snap), newBuffer(x.newInner(), snap)
	digest := x.geo.digest(snap)
	x.mu.Lock()
	defer x.mu.Unlock()
	a.idx.Build(a.snap)
	b.idx.Build(b.snap)
	a.digest, b.digest = digest, digest
	x.shadow = b
	x.carry = nil
	x.dirty = false
	x.live.Store(a)
}

// lease pins the live buffer — announce on its active count, confirm it
// is still live, retry onto the new one otherwise — and returns it, nil
// before Build. It is the package's one pin: every read below, the
// exported Lease included, is this followed by Release.
func (x *pub[P, M]) lease() *buffer[P] {
	for {
		b := x.live.Load()
		if b == nil {
			return nil
		}
		b.active.Add(1)
		if x.live.Load() == b {
			return b
		}
		b.active.Add(-1)
	}
}

// Lease implements core.EpochLeaser: a read lease on the live epoch, for
// a caller with a run of queries to answer (the concurrent driver's
// block of 64). The buffer itself is the lease, so taking one allocates
// nothing. Until Release the writer's quiesce waits on it and the lease
// keeps answering from its epoch while newer ones publish: hold it for
// a bounded run, not across anything that blocks. Nil before Build.
func (x *pub[P, M]) Lease() core.EpochLease {
	if b := x.lease(); b != nil {
		return b
	}
	return nil
}

// QueryAppend implements core.EpochLease: one probe of the leased
// epoch, straight onto the inner's resolved kernel.
//
//joinlint:hotpath
func (b *buffer[P]) QueryAppend(r geom.Rect, buf []uint32) []uint32 {
	return b.queryAppend(r, buf)
}

// Epoch implements core.EpochLease.
func (b *buffer[P]) Epoch() (uint64, uint64) { return b.epoch, b.digest }

// Release implements core.EpochLease. A release nothing is pinned for —
// a second Release of the same lease, once the other readers have gone —
// panics and puts the count back instead of leaving it negative, where
// the writer's quiesce would spin on it for ever.
func (b *buffer[P]) Release() {
	if b.active.Add(-1) < 0 {
		b.active.Add(1)
		panic("epoch: Release of a lease that is not held")
	}
}

// Query implements core.EpochIndex / core.EpochBoxIndex: one lock-free
// probe on the live epoch — a one-query lease — returning the epoch
// number and consistency digest it observed.
func (x *pub[P, M]) Query(r geom.Rect, emit func(id uint32)) (uint64, uint64) {
	b := x.lease()
	if b == nil {
		return 0, 0
	}
	defer b.Release()
	b.idx.Query(r, emit)
	return b.epoch, b.digest
}

// QueryAppend implements core.EpochQueryAppender: the buffered variant
// of Query. The entire inner scan runs under one lease, so buf holds a
// consistent single-epoch result set.
func (x *pub[P, M]) QueryAppend(r geom.Rect, buf []uint32) ([]uint32, uint64, uint64) {
	b := x.lease()
	if b == nil {
		return buf, 0, 0
	}
	defer b.Release()
	buf = b.queryAppend(r, buf)
	return buf, b.epoch, b.digest
}

// Len implements core.Counter for the live epoch.
func (x *pub[P, M]) Len() int {
	b := x.lease()
	if b == nil {
		return 0
	}
	defer b.Release()
	return b.length()
}

// contained runs fn, converting a panic (including re-panicked worker
// panics) into an error and counting it.
func (x *pub[P, M]) contained(fn func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			x.ins.containedPanic()
			if e, ok := v.(error); ok {
				err = fmt.Errorf("epoch: contained panic: %w", e)
			} else {
				err = fmt.Errorf("epoch: contained panic: %v", v)
			}
		}
	}()
	fn()
	return nil
}

// fire visits a fault-injection site, honouring a torn-write request by
// reporting the truncated batch length to apply.
func (x *pub[P, M]) fire(site string, n int) int {
	if x.opts.Injector.Fire(site) == faultutil.FaultTorn {
		return n / 2
	}
	return n
}

// applyReplay replays carry and applies the batch move by move, keeping
// the buffer's index and snapshot coherent at every step. The "apply"
// fault site fires once per batch; a torn fault truncates the applied
// suffix (both index and snapshot, so the tear is only detectable by
// validation — exactly the failure it simulates).
func (x *pub[P, M]) applyReplay(sh *buffer[P], moves []M) error {
	replay := func(ms []M) {
		for _, m := range ms {
			id, _, to := x.geo.move(m)
			sh.idx.Update(id, sh.snap[id], to)
			sh.snap[id] = to
		}
	}
	return x.contained(func() {
		replay(x.carry)
		replay(moves[:x.fire("apply", len(moves))])
	})
}

// landAndBuild folds carry and the batch into the shadow snapshot by
// plain assignment and runs one full inner build, firing the given
// fault site once per batch with applyReplay's torn semantics: the
// truncated suffix never reaches the snapshot, the build is coherent
// with what did, and only the validation probes can see the tear.
func (x *pub[P, M]) landAndBuild(sh *buffer[P], site string, moves []M) {
	land := func(ms []M) {
		for _, m := range ms {
			id, _, to := x.geo.move(m)
			sh.snap[id] = to
		}
	}
	land(x.carry)
	land(moves[:x.fire(site, len(moves))])
	sh.idx.Build(sh.snap)
}

// applyBulk is applyReplay's alternative for batches that are a large
// share of the population (bulkPays): the shadow snapshot is already one
// carry behind live, so landing carry and batch in it and rebuilding
// reaches the same state without a per-move update. Same "apply" fault
// site, same validation afterwards.
func (x *pub[P, M]) applyBulk(sh *buffer[P], moves []M) error {
	return x.contained(func() { x.landAndBuild(sh, "apply", moves) })
}

// applyRebuild recovers a shadow in an unknown state: the live snapshot
// is copied over it first, then the pending batches land as in
// applyBulk. The "build" fault site fires here.
func (x *pub[P, M]) applyRebuild(sh, live *buffer[P], moves []M) error {
	return x.contained(func() {
		copy(sh.snap, live.snap)
		x.landAndBuild(sh, "build", moves)
	})
}

// validate audits the shadow before publication: cardinality, the inner
// structure's own invariants, and sampled membership probes over the
// batch (first, last, and a stride through the middle).
func (x *pub[P, M]) validate(sh *buffer[P], moves []M) error {
	if got, want := sh.length(), len(sh.snap); got != want {
		return fmt.Errorf("epoch: shadow holds %d entries, snapshot has %d", got, want)
	}
	if ic, ok := sh.idx.(core.InvariantChecker); ok {
		if err := ic.CheckInvariants(); err != nil {
			return fmt.Errorf("epoch: shadow invariants: %w", err)
		}
	}
	if len(moves) == 0 {
		return nil
	}
	// A merged or replayed batch may move the same id twice; only its
	// final move describes the published position, so probes skip
	// superseded moves.
	if len(x.lastOf) < len(sh.snap) {
		x.lastOf = make([]int32, len(sh.snap))
	}
	lastOf := x.lastOf
	for i, m := range moves {
		id, _, _ := x.geo.move(m)
		if int(id) >= len(lastOf) {
			// Only reachable past a torn apply, which never touched it.
			return fmt.Errorf("epoch: move %d/%d names id %d, snapshot has %d", i, len(moves), id, len(sh.snap))
		}
		lastOf[id] = int32(i)
	}
	stride := 1
	if len(moves) > maxProbes {
		stride = len(moves) / maxProbes
	}
	probe := func(i int) error {
		id, old, to := x.geo.move(moves[i])
		if int(lastOf[id]) != i {
			return nil
		}
		was, now := x.geo.window(old), x.geo.window(to)
		// Presence is conditioned on ownership: a region shard that does
		// not own the new geometry sees an emigration (a point left its
		// region; the reference point of an MBR's self-query is another
		// shard's), and the id must be GONE from its results there.
		if sh.holds(now, id) != sh.owns(to) {
			return fmt.Errorf("epoch: move %d/%d (id %d) not found at its new position", i, len(moves), id)
		}
		// Absence at the old geometry is only assertable when old and new
		// are disjoint (for a point: differ): an intersecting query cannot
		// distinguish "still stored at old" from "stored at new, which
		// also intersects old".
		if !was.Intersects(now) && sh.holds(was, id) {
			return fmt.Errorf("epoch: move %d/%d (id %d) still present at its old position", i, len(moves), id)
		}
		return nil
	}
	// The last move first: it is the one a torn prefix-only apply loses.
	if err := probe(len(moves) - 1); err != nil {
		return err
	}
	for i := 0; i < len(moves)-1; i += stride {
		if err := probe(i); err != nil {
			return err
		}
	}
	return nil
}

// ApplyBatch is the writer tick: catch up the shadow, apply the batch,
// validate, publish, quiesce, returning the published epoch. On failure
// it degrades per the package comment, and on error the batch is NOT
// applied: the last good epoch keeps serving, and the caller may merge
// the batch into the next tick's ApplyBatch (the wrapper sources each
// move's old geometry from its own snapshot, so merged batches replay
// safely).
func (x *pub[P, M]) ApplyBatch(moves []M) (uint64, error) {
	return x.applyBatchVia(moves, bulkPays)
}

// applyBatchVia is ApplyBatch with the apply-path policy as an argument,
// so the package's differential tests and crossover benchmark can hold
// the two paths against each other on one move stream.
func (x *pub[P, M]) applyBatchVia(moves []M, bulk func(pending, population int) bool) (uint64, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	live := x.live.Load()
	if live == nil {
		return 0, fmt.Errorf("epoch: ApplyBatch before Build")
	}
	sh := x.shadow

	applied := false
	failed := false
	var lastErr error
	for attempt := 0; ; attempt++ {
		if !applied {
			var err error
			as := x.ins.reg.Enter(x.ins.apply)
			switch {
			case x.dirty:
				err = x.applyRebuild(sh, live, moves)
			case bulk(len(x.carry)+len(moves), len(sh.snap)):
				x.ins.rBulk.Inc()
				err = x.applyBulk(sh, moves)
			default:
				x.ins.rReplay.Inc()
				err = x.applyReplay(sh, moves)
			}
			// Whatever happens next, the shadow can no longer be caught
			// up from carry except by this tick's success.
			x.dirty = true
			x.ins.reg.Exit(as)
			if err == nil {
				vs := x.ins.reg.Enter(x.ins.validate)
				err = x.validate(sh, moves)
				x.ins.reg.Exit(vs)
			}
			if err == nil {
				applied = true
			} else {
				lastErr = err
			}
		}
		if applied {
			ps := x.ins.reg.Enter(x.ins.publish)
			err := x.contained(func() { x.fire("swap", 0) })
			if err == nil {
				sh.epoch = live.epoch + 1
				sh.digest = x.geo.fold(live.digest, moves)
				x.live.Store(sh)
			}
			x.ins.reg.Exit(ps)
			if err == nil {
				// Quiesce: wait out readers still pinned to the old
				// buffer before it may be mutated as the next shadow.
				qs := x.ins.reg.Enter(x.ins.quiesce)
				for live.active.Load() != 0 {
					runtime.Gosched()
				}
				x.ins.reg.Exit(qs)
				x.shadow = live
				x.carry = append(x.carry[:0], moves...)
				x.dirty = false
				x.ins.publishedEpoch(failed)
				return sh.epoch, nil
			}
			lastErr = err
		}
		failed = true
		if attempt >= x.opts.MaxRetries {
			x.ins.exhaustedRetries()
			return live.epoch, fmt.Errorf("epoch: publish failed after %d attempts, serving epoch %d: %w",
				attempt+1, live.epoch, lastErr)
		}
		x.ins.retried()
		backoff := x.opts.Backoff << uint(attempt)
		if backoff > x.opts.MaxBackoff {
			backoff = x.opts.MaxBackoff
		}
		time.Sleep(backoff)
	}
}

// Stats returns a snapshot of the lifecycle counters.
func (x *pub[P, M]) Stats() Stats {
	return Stats{
		Epochs:          uint64(x.ins.epochs.Value()),
		Degraded:        uint64(x.ins.degraded.Value()),
		Retries:         uint64(x.ins.retries.Value()),
		PanicsContained: uint64(x.ins.panics.Value()),
	}
}

// Epoch returns the live epoch number and digest.
func (x *pub[P, M]) Epoch() (uint64, uint64) {
	b := x.live.Load()
	if b == nil {
		return 0, 0
	}
	return b.epoch, b.digest
}

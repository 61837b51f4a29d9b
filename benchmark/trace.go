package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
)

// This file is the traced pass: forwarding decorators around the index
// handed to the driver time every call the driver makes into it, and
// the tracer turns them, the driver's own phase times and the tick log
// into spans. Spans are recorded here, in benchmark code, around the
// calls into each layer; nothing inside the program is touched.

// op classes the calls a driver makes into an index.
type op int

const (
	opBuild  op = iota // Build, BuildParallel
	opQuery            // Query, QueryAppend, QueryBatch
	opUpdate           // Update, UpdateBatch, ApplyBatch
	numOps
)

var opNames = [numOps]string{"index.build", "index.query", "index.update"}

// opStat accumulates one op class over one tick. The service driver's
// readers and updater call in concurrently, so every field is atomic.
type opStat struct {
	calls, results, busy atomic.Int64
	first, last          atomic.Int64 // ns since the tracer's base; first is 0 until a call lands
}

func (o *opStat) record(start, end int64, results int) {
	o.calls.Add(1)
	o.results.Add(int64(results))
	o.busy.Add(end - start)
	o.first.CompareAndSwap(0, start)
	for {
		old := o.last.Load()
		if end <= old || o.last.CompareAndSwap(old, end) {
			return
		}
	}
}

// opTick is an opStat frozen at a tick's end.
type opTick struct{ calls, results, busy, first, last int64 }

func (o *opStat) freeze() opTick {
	t := opTick{o.calls.Load(), o.results.Load(), o.busy.Load(), o.first.Load(), o.last.Load()}
	o.calls.Store(0)
	o.results.Store(0)
	o.busy.Store(0)
	o.first.Store(0)
	o.last.Store(0)
	return t
}

// span is one record of trace.json. A tick's root span has the id
// workload/round/tick; the driver's phases are its children and the
// per-op aggregates of the decorator their children in turn. Aggregated
// spans run from the first call's start to the last call's end and carry
// the call count, the result count and the time actually spent inside
// the index (busy_ns).
type span struct {
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Calls   int64  `json:"calls,omitempty"`
	Results int64  `json:"results,omitempty"`
	BusyNs  int64  `json:"busy_ns,omitempty"`
}

// tickTrace is what the tracer keeps per tick until the round ends and
// the driver's phase times are known.
type tickTrace struct {
	start, end int64
	ops        [numOps]opTick
}

// tracer collects one process's traced rounds.
type tracer struct {
	base time.Time
	// Every decorated call pays for two clock readings and the
	// bookkeeping. pairNs is that whole cost per call; spanNs is the part
	// of it that falls between the two readings and so inside the call's
	// own span. The rest lands in the driver's phase time, and is taken
	// out of core's self time again.
	pairNs, spanNs float64

	ops   [numOps]opStat
	spans []span

	// current round
	workload  string
	round     int
	tickStart int64
	ticks     []tickTrace

	// selfMs collects, over every measured tick of every traced round,
	// the driver time not covered by index calls; opMs the per-tick busy
	// time per op class.
	selfMs []float64
	opMs   [numOps][]float64
	warm   int
}

func newTracer() *tracer {
	tr := &tracer{base: time.Now()}
	tr.pairNs, tr.spanNs = tr.clockCost()
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

// clockCost times the decorator's own overhead around an empty call, as
// the minimum over a few batches: per call in all, and the part a span
// sees of it.
func (tr *tracer) clockCost() (pairNs, spanNs float64) {
	var scratch opStat
	for rep := 0; rep < 5; rep++ {
		const n = 20000
		scratch.freeze()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			s := tr.now()
			scratch.record(s, tr.now(), 1)
		}
		pair := float64(time.Since(t0).Nanoseconds()) / n
		span := float64(scratch.busy.Load()) / n
		if rep == 0 || pair < pairNs {
			pairNs, spanNs = pair, span
		}
	}
	return pairNs, spanNs
}

func (tr *tracer) beginRound(workload string, round int, log *tickLog) {
	tr.workload, tr.round, tr.warm = workload, round, log.warm
	tr.ticks = tr.ticks[:0]
	for i := range tr.ops {
		tr.ops[i].freeze()
	}
	tr.tickStart = tr.now()
	log.onTickEnd = func(end, next time.Time) {
		t := tickTrace{start: tr.tickStart, end: int64(end.Sub(tr.base))}
		for i := range tr.ops {
			t.ops[i] = tr.ops[i].freeze()
		}
		tr.ticks = append(tr.ticks, t)
		tr.tickStart = int64(next.Sub(tr.base))
	}
}

// endRound turns the round's ticks into spans. res carries the driver's
// phase times for the sequential drivers and is nil for the service
// driver, whose tick has no phases: its op spans hang off the tick.
func (tr *tracer) endRound(res *core.Result) {
	for t, tt := range tr.ticks {
		root := fmt.Sprintf("%s/%d/%d", tr.workload, tr.round, t)
		tr.spans = append(tr.spans, span{ID: root, Name: "tick", StartNs: tt.start, EndNs: tt.end})
		parents := [numOps]string{root, root, root}
		covered := int64(0)
		if res != nil {
			p := res.PerTick[t]
			at := tt.start
			for i, ph := range []struct {
				name string
				d    time.Duration
			}{{"core.build", p.Build}, {"core.query", p.Query}, {"core.update", p.Update}} {
				id := root + "/" + ph.name
				tr.spans = append(tr.spans, span{ID: id, Parent: root, Name: ph.name, StartNs: at, EndNs: at + int64(ph.d)})
				at += int64(ph.d)
				parents[i] = id
			}
			covered = int64(p.Total())
		} else {
			covered = tt.end - tt.start
		}
		var busy, calls int64
		for i, o := range tt.ops {
			if o.calls == 0 {
				continue
			}
			tr.spans = append(tr.spans, span{
				ID: parents[i] + "/" + opNames[i], Parent: parents[i], Name: opNames[i],
				StartNs: o.first, EndNs: o.last, Calls: o.calls, Results: o.results, BusyNs: o.busy,
			})
			busy += o.busy
			calls += o.calls
		}
		if t < tr.warm {
			continue
		}
		self := float64(covered-busy) - float64(calls)*(tr.pairNs-tr.spanNs)
		if res == nil {
			// The service tick overlaps its two arms; what the index
			// covers is the union of their extents, not their sum, and
			// the extents already hold the decorator's own cost.
			self = float64(covered - unionNs(tt.ops[opQuery], tt.ops[opUpdate]))
		}
		tr.selfMs = append(tr.selfMs, max(self, 0)/1e6)
		for i, o := range tt.ops {
			tr.opMs[i] = append(tr.opMs[i], max(float64(o.busy)-float64(o.calls)*tr.spanNs, 0)/1e6)
		}
	}
}

// unionNs is the length of the union of two ops' [first, last] extents.
func unionNs(a, b opTick) int64 {
	la, lb := a.last-a.first, b.last-b.first
	if a.calls == 0 {
		return lb
	}
	if b.calls == 0 {
		return la
	}
	lo, hi := max(a.first, b.first), min(a.last, b.last)
	if hi > lo {
		return la + lb - (hi - lo)
	}
	return la + lb
}

// write stores the spans with the run's provenance.
func (tr *tracer) write(path string, prov provenance) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Provenance provenance `json:"provenance"`
		PairNs     float64    `json:"clock_pair_ns"`
		SpanNs     float64    `json:"clock_in_span_ns"`
		Spans      []span     `json:"spans"`
	}{prov, tr.pairNs, tr.spanNs, tr.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// index is what core.Index and core.BoxIndex have in common, over the
// object geometry P.
type index[P any] interface {
	Name() string
	Build(snap []P)
	Query(r geom.Rect, emit func(id uint32))
	Update(id uint32, old, new P)
}

// traced decorates a point index (P = geom.Point, M = geom.Move) or a box
// index (geom.Rect, geom.BoxMove). It implements every optional
// capability the drivers probe for, each resolved against the inner
// index exactly as the driver would have resolved it, so the traced run
// executes the same kernel as the untraced one (the traced and untraced
// digests are compared to prove it).
type traced[P, M any] struct {
	tr          *tracer
	inner       index[P]
	queryAppend func(r geom.Rect, buf []uint32) []uint32
	queryBatch  func(rects []geom.Rect, offsets, buf []uint32) ([]uint32, []uint32)
	// nil when the inner index lacks the capability
	parBuild interface{ BuildParallel(snap []P, workers int) }
	batcher  interface {
		UpdateBatch(moves []M, workers int)
		CanBatchUpdates(n int) bool
	}
}

var (
	_ core.Index              = (*traced[geom.Point, geom.Move])(nil)
	_ core.ParallelBuilder    = (*traced[geom.Point, geom.Move])(nil)
	_ core.BatchUpdater       = (*traced[geom.Point, geom.Move])(nil)
	_ core.BoxIndex           = (*traced[geom.Rect, geom.BoxMove])(nil)
	_ core.BoxParallelBuilder = (*traced[geom.Rect, geom.BoxMove])(nil)
	_ core.BoxBatchUpdater    = (*traced[geom.Rect, geom.BoxMove])(nil)
	_ core.QueryAppender      = (*traced[geom.Rect, geom.BoxMove])(nil)
	_ core.BatchQuerier       = (*traced[geom.Rect, geom.BoxMove])(nil)
)

func wrap[P, M any](tr *tracer, inner index[P]) *traced[P, M] {
	d := &traced[P, M]{
		tr:          tr,
		inner:       inner,
		queryAppend: core.QueryAppendOf(inner, inner.Query),
		queryBatch:  core.QueryBatchOf(inner, inner.Query),
	}
	d.parBuild, _ = inner.(interface{ BuildParallel([]P, int) })
	d.batcher, _ = inner.(interface {
		UpdateBatch([]M, int)
		CanBatchUpdates(int) bool
	})
	return d
}

func (tr *tracer) wrapPoint(inner core.Index) *traced[geom.Point, geom.Move] {
	return wrap[geom.Point, geom.Move](tr, inner)
}

func (tr *tracer) wrapBox(inner core.BoxIndex) *traced[geom.Rect, geom.BoxMove] {
	return wrap[geom.Rect, geom.BoxMove](tr, inner)
}

func (d *traced[P, M]) Name() string { return d.inner.Name() }

func (d *traced[P, M]) Build(snap []P) {
	s := d.tr.now()
	d.inner.Build(snap)
	d.tr.ops[opBuild].record(s, d.tr.now(), len(snap))
}

func (d *traced[P, M]) BuildParallel(snap []P, workers int) {
	s := d.tr.now()
	if d.parBuild != nil {
		d.parBuild.BuildParallel(snap, workers)
	} else {
		d.inner.Build(snap)
	}
	d.tr.ops[opBuild].record(s, d.tr.now(), len(snap))
}

func (d *traced[P, M]) Query(r geom.Rect, emit func(id uint32)) {
	n := 0
	s := d.tr.now()
	d.inner.Query(r, func(id uint32) { n++; emit(id) })
	d.tr.ops[opQuery].record(s, d.tr.now(), n)
}

func (d *traced[P, M]) QueryAppend(r geom.Rect, buf []uint32) []uint32 {
	before := len(buf)
	s := d.tr.now()
	buf = d.queryAppend(r, buf)
	d.tr.ops[opQuery].record(s, d.tr.now(), len(buf)-before)
	return buf
}

func (d *traced[P, M]) QueryBatch(rects []geom.Rect, offsets, buf []uint32) ([]uint32, []uint32) {
	s := d.tr.now()
	offsets, buf = d.queryBatch(rects, offsets, buf)
	d.tr.ops[opQuery].record(s, d.tr.now(), len(buf))
	return offsets, buf
}

func (d *traced[P, M]) Update(id uint32, old, new P) {
	s := d.tr.now()
	d.inner.Update(id, old, new)
	d.tr.ops[opUpdate].record(s, d.tr.now(), 1)
}

func (d *traced[P, M]) CanBatchUpdates(n int) bool {
	return d.batcher != nil && d.batcher.CanBatchUpdates(n)
}

func (d *traced[P, M]) UpdateBatch(moves []M, workers int) {
	s := d.tr.now()
	d.batcher.UpdateBatch(moves, workers)
	d.tr.ops[opUpdate].record(s, d.tr.now(), len(moves))
}

// tracedEpoch decorates the epoch-published index the service driver
// runs against, buffered query capability included.
type tracedEpoch struct {
	tr          *tracer
	inner       core.EpochIndex
	queryAppend core.EpochQueryAppender // nil when the inner has none
}

var (
	_ core.EpochIndex         = (*tracedEpoch)(nil)
	_ core.EpochQueryAppender = (*tracedEpoch)(nil)
)

func (tr *tracer) wrapEpoch(inner core.EpochIndex) *tracedEpoch {
	d := &tracedEpoch{tr: tr, inner: inner}
	d.queryAppend, _ = inner.(core.EpochQueryAppender)
	return d
}

func (d *tracedEpoch) Name() string            { return d.inner.Name() }
func (d *tracedEpoch) Epoch() (uint64, uint64) { return d.inner.Epoch() }
func (d *tracedEpoch) Stats() core.EpochStats  { return d.inner.Stats() }

func (d *tracedEpoch) Build(pts []geom.Point) {
	s := d.tr.now()
	d.inner.Build(pts)
	d.tr.ops[opBuild].record(s, d.tr.now(), len(pts))
}

func (d *tracedEpoch) ApplyBatch(moves []geom.Move) (uint64, error) {
	s := d.tr.now()
	ep, err := d.inner.ApplyBatch(moves)
	d.tr.ops[opUpdate].record(s, d.tr.now(), len(moves))
	return ep, err
}

func (d *tracedEpoch) Query(r geom.Rect, emit func(id uint32)) (uint64, uint64) {
	n := 0
	s := d.tr.now()
	ep, dg := d.inner.Query(r, func(id uint32) { n++; emit(id) })
	d.tr.ops[opQuery].record(s, d.tr.now(), n)
	return ep, dg
}

func (d *tracedEpoch) QueryAppend(r geom.Rect, buf []uint32) ([]uint32, uint64, uint64) {
	before := len(buf)
	s := d.tr.now()
	var ep, dg uint64
	if d.queryAppend != nil {
		buf, ep, dg = d.queryAppend.QueryAppend(r, buf)
	} else {
		ep, dg = d.inner.Query(r, func(id uint32) { buf = append(buf, id) })
	}
	d.tr.ops[opQuery].record(s, d.tr.now(), len(buf)-before)
	return buf, ep, dg
}

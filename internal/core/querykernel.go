package core

import (
	"fmt"

	"repro/internal/geom"
)

// This file defines the two query kernels: the paper's callback
// (IndexOf.Query, one indirect call per result) and the buffered append
// (QueryAppender, an optional capability: result IDs go into a
// caller-reused buffer). A family implements one of them: every family
// with a native QueryAppend derives its Query from it through
// callback.Query, so its two kernels cannot disagree, and the paper's
// baseline contenders and the oracles implement the callback alone.
// QueryAppendOf lets drivers and wrappers bind the buffered kernel of an
// index and fall back to an adapter over the callback otherwise, so
// layering (epoch, shard, tune) never silently changes results — only
// speed.
//
// A third, the batch kernel, was measured to tie or lose to the append
// kernel in every family since it was written and has no implementation
// left in this module: what remains of it — BatchQuerier, QueryBatchOf,
// KernelBatch and the KernelBatch arm of drainer.drain — is only what
// benchmark/ compiles against (its two *.query_batch_ns
// series and its traced wrapper, the one BatchQuerier there is).
// ROADMAP item 1(b) drops those series and deletes all of it in the
// same diff.

// QueryAppender is the buffered query capability, shared by point and
// box indexes (the geometry difference lives in Build/Update, not in
// result reporting).
type QueryAppender interface {
	// QueryAppend appends the ID of every match of r to buf and returns
	// the extended buffer, exactly as Query would have emitted them
	// (same set, unspecified order, duplicate-free for box indexes).
	// The result aliases buf's backing array when capacity suffices:
	// steady-state callers reuse one buffer across queries and see zero
	// allocations. buf may be nil.
	QueryAppend(r geom.Rect, buf []uint32) []uint32
}

// BatchQuerier answers a whole batch of range queries, in the caller's
// order, into a single CSR-shaped result (see the file comment: honoured
// for out-of-tree indexes, implemented by none in this module).
type BatchQuerier interface {
	// QueryBatch answers rects[i] for every i, reusing offsets and buf
	// as scratch. It returns (offsets, buf) with len(offsets) ==
	// len(rects)+1 and the matches of rects[i] in
	// buf[offsets[i]:offsets[i+1]].
	QueryBatch(rects []geom.Rect, offsets []uint32, buf []uint32) ([]uint32, []uint32)
}

// QueryAppendOf returns the buffered query kernel of idx: the native
// QueryAppend when idx implements QueryAppender, else a fallback
// adapter over the given callback query. The adapter is correct but
// slow: it pays the indirect call per result and allocates its closure
// and the buffer it captures on every query. The paper's baseline
// contenders (binsearch, crtree, kdtrie) have no native kernel, which
// is why the drivers resolve KernelAuto to the callback for them
// (engine.kernel) instead of timing them through this.
func QueryAppendOf(idx any, query func(r geom.Rect, emit func(id uint32))) func(r geom.Rect, buf []uint32) []uint32 {
	if qa, ok := idx.(QueryAppender); ok {
		return qa.QueryAppend
	}
	return func(r geom.Rect, buf []uint32) []uint32 {
		query(r, func(id uint32) { buf = append(buf, id) })
		return buf
	}
}

// QueryBatchOf returns the batch query kernel of idx: its QueryBatch
// when it is a BatchQuerier, else the buffered kernel from
// QueryAppendOf answered in the caller's order, one offset per rect.
func QueryBatchOf(idx any, query func(r geom.Rect, emit func(id uint32))) func(rects []geom.Rect, offsets, buf []uint32) ([]uint32, []uint32) {
	if bq, ok := idx.(BatchQuerier); ok {
		return bq.QueryBatch
	}
	qa := QueryAppendOf(idx, query)
	return func(rects []geom.Rect, offsets, buf []uint32) ([]uint32, []uint32) {
		offsets = append(offsets[:0], 0)
		buf = buf[:0]
		for _, r := range rects {
			buf = qa(r, buf)
			offsets = append(offsets, uint32(len(buf)))
		}
		return offsets, buf
	}
}

// QueryKernel selects which query kernel a driver uses.
type QueryKernel int

const (
	// KernelAuto picks the fastest kernel the index offers: the
	// buffered append path when it is a QueryAppender, the callback
	// otherwise. The default.
	KernelAuto QueryKernel = iota
	// KernelEmit forces the classic per-result callback path.
	KernelEmit
	// KernelAppend forces the buffered QueryAppend path (adapted over
	// the callback when the index has no native one).
	KernelAppend
	// KernelBatch forces the QueryBatchOf path.
	KernelBatch
)

// String returns the flag spelling of the kernel.
func (k QueryKernel) String() string {
	switch k {
	case KernelEmit:
		return "emit"
	case KernelAppend:
		return "append"
	case KernelBatch:
		return "batch"
	default:
		return "auto"
	}
}

// QueryKernelKeys lists the -querykernel spellings ParseQueryKernel
// accepts, for flag help texts.
const QueryKernelKeys = "auto, emit, append, batch"

// ParseQueryKernel parses a -querykernel flag value.
func ParseQueryKernel(s string) (QueryKernel, error) {
	switch s {
	case "", "auto":
		return KernelAuto, nil
	case "emit":
		return KernelEmit, nil
	case "append":
		return KernelAppend, nil
	case "batch":
		return KernelBatch, nil
	}
	return KernelAuto, fmt.Errorf("unknown query kernel %q (have %s)", s, QueryKernelKeys)
}

// EpochQueryAppender is QueryAppender for epoch-published indexes, whose
// queries additionally report the (epoch, digest) they observed.
type EpochQueryAppender interface {
	QueryAppend(r geom.Rect, buf []uint32) ([]uint32, uint64, uint64)
}

// EpochLease is a read lease on one published epoch: every QueryAppend
// under it answers from the same immutable buffer, the one Epoch names,
// whatever the writer publishes meanwhile. The writer cannot reuse that
// buffer until Release, so a lease is held for a bounded run of queries
// (the concurrent driver's block), never parked; each goroutine takes
// its own.
type EpochLease interface {
	QueryAppender
	// Epoch returns the leased epoch's number and consistency digest.
	Epoch() (epoch, digest uint64)
	// Release ends the lease. Exactly once: the lease is dead afterwards.
	Release()
}

// EpochLeaser is the lease capability of an epoch-published index: the
// pin that EpochQueryAppender pays per query, paid once per run of
// queries. Lease returns nil before Build.
type EpochLeaser interface {
	Lease() EpochLease
}

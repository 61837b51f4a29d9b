package core

import (
	"fmt"

	"repro/internal/geom"
)

// This file defines the buffered query capabilities: optional interfaces
// every index family implements natively so the hot query path appends
// result IDs into a caller-reused buffer instead of paying a
// non-inlinable indirect call per result (the emit closure of
// IndexOf.Query). The capability-detection helpers below
// let drivers and wrappers bind the fastest kernel an index offers and
// fall back to a callback adapter otherwise, so layering (epoch, shard,
// tune) never silently changes results — only speed.

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

// BatchQuerier is the multi-query capability: one call answers a whole
// batch of range queries, in the caller's order, into a single CSR-shaped
// result. The order is where a batch can pay: when consecutive queries
// touch neighbouring cells those are still cache-resident. Both tick
// loops hand over cell-ordered batches while their query schedule is on
// (runTicksParallel always; runTicks when it measures that the order
// pays, see its comment); the RunConcurrent* readers do not order theirs.
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
// slow (it pays the indirect call per result and a closure allocation
// per query); every in-tree family implements the capability natively,
// so the fallback only covers out-of-tree indexes.
func QueryAppendOf(idx any, query func(r geom.Rect, emit func(id uint32))) func(r geom.Rect, buf []uint32) []uint32 {
	if qa, ok := idx.(QueryAppender); ok {
		return qa.QueryAppend
	}
	return func(r geom.Rect, buf []uint32) []uint32 {
		query(r, func(id uint32) { buf = append(buf, id) })
		return buf
	}
}

// QueryBatchOf returns the batch query kernel of idx: the native
// QueryBatch when implemented, else the generic loop over the buffered
// kernel from QueryAppendOf.
func QueryBatchOf(idx any, query func(r geom.Rect, emit func(id uint32))) func(rects []geom.Rect, offsets, buf []uint32) ([]uint32, []uint32) {
	if bq, ok := idx.(BatchQuerier); ok {
		return bq.QueryBatch
	}
	qa := QueryAppendOf(idx, query)
	return func(rects []geom.Rect, offsets, buf []uint32) ([]uint32, []uint32) {
		return AppendBatch(qa, rects, offsets, buf)
	}
}

// AppendBatch is the canonical QueryBatch construction from a buffered
// kernel: answer the rects in order, recording a CSR offset after each.
// Families whose batch kernel is "the append kernel, in the caller's
// order" implement QueryBatch with this.
func AppendBatch(qa func(r geom.Rect, buf []uint32) []uint32, rects []geom.Rect, offsets, buf []uint32) ([]uint32, []uint32) {
	offsets = append(offsets[:0], 0)
	buf = buf[:0]
	for _, r := range rects {
		buf = qa(r, buf)
		offsets = append(offsets, uint32(len(buf)))
	}
	return offsets, buf
}

// QueryKernel selects which query kernel a driver uses.
type QueryKernel int

const (
	// KernelAuto picks the fastest kernel the index offers: the
	// buffered append path (native or adapted). The default.
	KernelAuto QueryKernel = iota
	// KernelEmit forces the classic per-result callback path.
	KernelEmit
	// KernelAppend forces the buffered QueryAppend path.
	KernelAppend
	// KernelBatch forces the multi-query QueryBatch path.
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

// ShardedEpochQueryAppender is QueryAppender for the per-shard
// epoch-published engines: the buffered analogue of
// ShardedEpochIndex.Query, reporting each touched shard's observation
// through observe.
type ShardedEpochQueryAppender interface {
	QueryAppend(r geom.Rect, buf []uint32, observe func(shard int, epoch, digest uint64)) []uint32
}

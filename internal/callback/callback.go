// Package callback derives the per-result callback query, Query(r, emit),
// from an index's buffered kernel, QueryAppend(r, buf). Every family whose
// buffered kernel is native (the point and box grids, both R-trees, the
// shard engines and their regions) implements its Query with Query below,
// so each family has one query implementation: the callback reports what
// the kernel the drivers run reports, in the same order, by construction.
//
// It is a package of its own because the families cannot import core,
// whose package-internal tests import them.
package callback

import (
	"sync/atomic"

	"repro/internal/geom"
)

// appender is the buffered kernel Query derives from.
type appender interface {
	QueryAppend(r geom.Rect, buf []uint32) []uint32
}

// rack holds the result buffers Query answers into, shared by every index
// and goroutine. A query takes a buffer from any occupied slot and returns
// it to any empty one, so with at most len(rack) queries in flight none of
// them allocates once its buffer has grown to the largest result it held.
// A query beyond that (or one whose emit panics) costs a buffer of its
// own, dropped when the rack is full. A sync.Pool would serve as well,
// except that under the race detector it drops a quarter of what is put
// back, and the allocation-free pins run under -race too.
var rack [8]atomic.Pointer[[]uint32]

// Query answers r through idx.QueryAppend and calls emit once per result.
// It is as safe for concurrent use as idx.QueryAppend is, and emit may
// itself query.
func Query(idx appender, r geom.Rect, emit func(id uint32)) {
	buf := take()
	*buf = idx.QueryAppend(r, (*buf)[:0])
	for _, id := range *buf {
		emit(id)
	}
	give(buf)
}

func take() *[]uint32 {
	for i := range rack {
		if b := rack[i].Load(); b != nil && rack[i].CompareAndSwap(b, nil) {
			return b
		}
	}
	return new([]uint32)
}

func give(b *[]uint32) {
	for i := range rack {
		if rack[i].CompareAndSwap(nil, b) {
			return
		}
	}
}

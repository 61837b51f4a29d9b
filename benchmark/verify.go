package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/rtree"
)

// The brute-force oracle scans every object for every query: a full
// tick of it costs five seconds where the technique's costs ten
// milliseconds. It is replayed over oracleTicks ticks (so one update
// phase lies between its two joins) with every oracleEvery-th querier.
const (
	oracleTicks = 2
	oracleEvery = 8
)

// verify establishes the workload's reference digest before anything is
// timed. The technique must agree with the brute-force oracle over the
// first oracleTicks ticks and with an index family that shares no code
// with it (the STR R-tree for points, the single-layer CSR rectangle
// grid for boxes) over the whole stream; the latter digest becomes the
// reference every measured round is held to. The service workload's
// join result legitimately depends on scheduling, so it is held to the
// sequential run's query and update counts and to its own epoch
// consistency instead, and its technique is checked sequentially here.
func (r *run) verify() {
	if r.verified {
		return
	}
	r.verified = true
	ticks := r.spec.ticks()
	start := time.Now()
	defer func() {
		fmt.Printf("%s: stream recorded in %.2f s (%.0f MB), verified in %.2f s\n",
			r.spec.name, r.recordS, r.traceMB, time.Since(start).Seconds())
	}()
	// The verification runs are not timed, so they use every CPU: the
	// parallel drivers' digests equal the sequential ones bit for bit.
	seq := func(ticks, every int, point func() core.Index, box func() core.BoxIndex) (d digest) {
		r.attempted += ticks
		defer func() {
			if p := recover(); p != nil {
				r.fail(ticks, fmt.Sprintf("verification run panicked: %v", p))
			}
		}()
		log := newTickLog(1, ticks)
		opts := core.Options{Ticks: ticks}
		if r.spec.kind == seqBox {
			src := newBoxReplay(r.boxes, log)
			src.every = every
			return digestOf(core.RunBoxesParallel(box(), src, opts, 0))
		}
		src := newPointReplay(r.points, log)
		src.every = every
		return digestOf(core.RunParallel(point(), src, opts, 0))
	}

	oracle := seq(oracleTicks, oracleEvery,
		func() core.Index { return core.NewBruteForce() },
		func() core.BoxIndex { return core.NewBruteForceBoxes() })
	technique := seq(oracleTicks, oracleEvery,
		func() core.Index { return r.spec.point(r.params) },
		func() core.BoxIndex { return r.spec.box(r.params) })
	if technique != oracle {
		r.fail(oracleTicks, fmt.Sprintf("technique %+v differs from the brute-force oracle %+v", technique, oracle))
	}

	r.ref = seq(ticks, 1,
		func() core.Index { return rtree.MustNew(rtree.DefaultFanout) },
		func() core.BoxIndex {
			return grid.MustNewBoxGrid(grid.DefaultBoxCPS, r.params.Bounds, r.params.NumPoints)
		})
	if r.spec.kind == service {
		// No measured round produces a comparable join digest, so the
		// technique's full-length sequential run is checked here.
		full := seq(ticks, 1, func() core.Index { return r.spec.point(r.params) }, nil)
		if full != r.ref {
			r.fail(ticks, fmt.Sprintf("technique %+v differs from the independent family %+v", full, r.ref))
		}
	}
}

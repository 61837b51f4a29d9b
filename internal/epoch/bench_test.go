package epoch

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// The two apply-path policies the package's tests and benchmark force
// through applyBatchVia; production only ever passes bulkPays.
func alwaysReplay(int, int) bool { return false }
func alwaysBulk(int, int) bool   { return true }

// BenchmarkApplyCrossover is the evidence behind bulkShare: the cost of
// one whole ApplyBatch tick (catch-up, apply, validate, publish) per
// move of the batch, with the apply path forced to replay or to bulk,
// at each updater fraction of the paper's default kinematics (50 000
// objects, speed 200 in a 22 000 space) over the three inner families
// the tuner picks. The pending share the policy sees is twice the
// updater fraction (carry + batch). README.md records the table.
func BenchmarkApplyCrossover(b *testing.B) {
	cfg := workload.DefaultUniform()
	bounds := cfg.Bounds()
	n := cfg.NumPoints
	inners := []struct {
		name  string
		point func() core.Index
		box   func() core.BoxIndex
	}{
		{name: "csr", point: func() core.Index { return grid.MustNew(grid.CSR(), bounds, n) }},
		{name: "boxcsr2l", box: func() core.BoxIndex { return grid.MustNewBoxGrid2L(64, bounds, n) }},
		{name: "boxrtree", box: func() core.BoxIndex { return rtree.MustNewBoxTree(16) }},
	}
	paths := []struct {
		name string
		bulk func(int, int) bool
	}{{"replay", alwaysReplay}, {"bulk", alwaysBulk}}
	for _, in := range inners {
		for _, pct := range []int{1, 5, 10, 25, 50, 100} {
			for _, path := range paths {
				b.Run(fmt.Sprintf("%s/updaters=%d%%/%s", in.name, pct, path.name), func(b *testing.B) {
					c := cfg
					c.Updaters = float64(pct) / 100
					var tick func() int
					if in.point != nil {
						tick = pointTicker(b, c, in.point, path.bulk)
					} else {
						bc := workload.DefaultUniformBoxes()
						bc.Config = c
						tick = boxTicker(b, bc, in.box, path.bulk)
					}
					for i := 0; i < 3; i++ { // carry filled, arenas grown
						tick()
					}
					moves := 0
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						moves += tick()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(moves), "ns/move")
				})
			}
		}
	}
}

// pointTicker returns a closure that generates the next tick's batch
// with the benchmark timer stopped, applies it through the forced path
// with the timer running, and returns the batch size.
func pointTicker(b *testing.B, cfg workload.Config, mk func() core.Index, bulk func(int, int) bool) func() int {
	gen := workload.MustNewGenerator(cfg)
	snap := gen.Positions(nil)
	x := NewIndex(mk, Options{})
	x.Build(snap)
	var moves []geom.Move
	return func() int {
		b.StopTimer()
		batch := gen.Updates()
		moves = moves[:0]
		for _, u := range batch {
			moves = append(moves, geom.Move{ID: u.ID, Old: snap[u.ID], New: u.Pos})
			snap[u.ID] = u.Pos
		}
		gen.ApplyUpdates(batch)
		b.StartTimer()
		if _, err := x.applyBatchVia(moves, bulk); err != nil {
			b.Fatal(err)
		}
		return len(moves)
	}
}

func boxTicker(b *testing.B, cfg workload.BoxConfig, mk func() core.BoxIndex, bulk func(int, int) bool) func() int {
	gen := workload.MustNewBoxGenerator(cfg)
	snap := gen.Rects(nil)
	x := NewBoxIndex(mk, Options{})
	x.Build(snap)
	var moves []geom.BoxMove
	return func() int {
		b.StopTimer()
		batch := gen.Updates()
		moves = moves[:0]
		for _, u := range batch {
			moves = append(moves, geom.BoxMove{ID: u.ID, Old: snap[u.ID], New: u.Rect})
			snap[u.ID] = u.Rect
		}
		gen.ApplyUpdates(batch)
		b.StartTimer()
		if _, err := x.applyBatchVia(moves, bulk); err != nil {
			b.Fatal(err)
		}
		return len(moves)
	}
}

// BenchmarkReaderOverhead is the wrapper's per-query tax as an in-tree
// number: ns per query of the paper's default stream (50 000 points, one
// tick's queriers in ID order, csr inner) answered by the bare inner
// index, by pub.QueryAppend — a lease per query — and under one lease
// per block of 64, the concurrent driver's unit. Each is timed plain and
// with a completion stamp per query (a monotonic clock read and a
// histogram record, what core's latRecorder.lap does); lease64/sampled
// is the driver's own configuration, nine clock reads for eight stamps a
// block. No writer runs: this is the price of the read path alone.
// README.md records the table.
func BenchmarkReaderOverhead(b *testing.B) {
	const block = 64
	cfg := workload.DefaultUniform()
	gen := workload.MustNewGenerator(cfg)
	pts := gen.Positions(nil)
	var rects []geom.Rect
	for _, q := range gen.Queriers() {
		rects = append(rects, gen.QueryRect(q))
	}
	rects = rects[:len(rects)/block*block]
	mk := func() core.Index { return grid.MustNew(grid.CSR(), cfg.Bounds(), cfg.NumPoints) }
	inner := mk()
	inner.Build(pts)
	bare := core.QueryAppendOf(inner, inner.Query)
	x := NewIndex(mk, Options{})
	x.Build(pts)

	hist := obs.NewHistogram()
	base := time.Now()
	var prev time.Duration
	start := func() { prev = time.Since(base) }
	lap := func() {
		now := time.Since(base)
		hist.Record(int64(now - prev))
		prev = now
	}
	var buf []uint32
	// Each drains one block of 64 rects, stamping the first stamps of them.
	drains := []struct {
		name  string
		drain func(rs []geom.Rect, stamps int)
	}{
		{"inner", func(rs []geom.Rect, stamps int) {
			for i, r := range rs {
				buf = bare(r, buf[:0])
				if i < stamps {
					lap()
				}
			}
		}},
		{"query", func(rs []geom.Rect, stamps int) {
			for i, r := range rs {
				buf, _, _ = x.QueryAppend(r, buf[:0])
				if i < stamps {
					lap()
				}
			}
		}},
		{"lease64", func(rs []geom.Rect, stamps int) {
			l := x.Lease()
			for i, r := range rs {
				buf = l.QueryAppend(r, buf[:0])
				if i < stamps {
					lap()
				}
			}
			l.Release()
		}},
	}
	for _, d := range drains {
		for _, st := range []struct {
			name   string
			stamps int
		}{{"plain", 0}, {"stamped", block}, {"sampled", 8}} {
			if st.name == "sampled" && d.name != "lease64" {
				continue
			}
			b.Run(d.name+"/"+st.name, func(b *testing.B) {
				for i := 0; i < len(rects); i += block { // buffers grown, caches warm
					d.drain(rects[i:i+block], st.stamps)
				}
				b.ResetTimer()
				for i, at := 0, 0; i < b.N; i++ {
					if st.stamps > 0 {
						start()
					}
					d.drain(rects[at:at+block], st.stamps)
					if at += block; at == len(rects) {
						at = 0
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*block), "ns/query")
			})
		}
	}
}

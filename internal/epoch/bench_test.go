package epoch

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/workload"
)

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

// BenchmarkApplyBatch is the writer tick alone on the paper's default
// stream: 50 000 points, csr inner, and the stream's first update batch
// (24 891 moves, half the population), applied there and back in turn so
// every tick moves its objects for real. No reader runs, so quiesce is
// free; the apply, validate and publish spans of the wrapper's own
// instruments are reported per tick beside ns/op. README.md, "Catch-up
// is one build", records the minima.
func BenchmarkApplyBatch(b *testing.B) {
	cfg := workload.DefaultUniform()
	gen := workload.MustNewGenerator(cfg)
	pts := gen.Positions(nil)
	var there, back []geom.Move
	for _, u := range gen.Updates() {
		there = append(there, geom.Move{ID: u.ID, Old: pts[u.ID], New: u.Pos})
		back = append(back, geom.Move{ID: u.ID, Old: u.Pos, New: pts[u.ID]})
	}
	x := NewIndex(func() core.Index { return grid.MustNew(grid.CSR(), cfg.Bounds(), cfg.NumPoints) }, Options{})
	reg := obs.New()
	x.Instrument(reg)
	x.Build(pts)
	tick := func(i int) {
		moves := there
		if i%2 == 1 {
			moves = back
		}
		if _, err := x.ApplyBatch(moves); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // scratch and arenas reach their size
		tick(i)
	}
	spans := []string{"apply", "validate", "publish"}
	base := make([]int64, len(spans))
	for i, s := range spans {
		base[i] = reg.Histogram("epoch." + s + "_ns").Sum()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick(i)
	}
	b.StopTimer()
	for i, s := range spans {
		b.ReportMetric(float64(reg.Histogram("epoch."+s+"_ns").Sum()-base[i])/float64(b.N), s+"-ns/op")
	}
}

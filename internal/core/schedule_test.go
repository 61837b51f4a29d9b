package core_test

// The tick loop's query schedule: the one-worker choice is a pure function
// of the trial samples, and either order leaves every digest where it was.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/rtree"
	"repro/internal/workload"
)

func TestCellOrderPays(t *testing.T) {
	// Samples are ns per querier in tick order: tick 0 ignored, then four
	// pairs of adjacent ticks (1,2) (3,4) (5,6) (7,8), cell-ordered first.
	for _, tc := range []struct {
		name    string
		samples []float64
		want    bool
	}{
		{"all win", []float64{900, 400, 500, 410, 510, 390, 480, 400, 505}, true},
		{"all win, fast tick 0", []float64{1, 400, 500, 410, 510, 390, 480, 400, 505}, true},
		{"all win under a drifting host", []float64{900, 400, 500, 600, 750, 800, 990, 500, 620}, true},
		{"one loss is forgiven", []float64{900, 400, 500, 700, 510, 390, 480, 400, 505}, true},
		{"two losses", []float64{900, 400, 500, 700, 510, 390, 480, 600, 505}, false},
		{"a tie is a loss", []float64{900, 400, 500, 510, 510, 480, 480, 400, 505}, false},
		{"all lose", []float64{900, 500, 400, 510, 410, 480, 390, 505, 400}, false},
		{"trial one tick short", []float64{900, 400, 500, 410, 510, 390, 480, 400}, false},
		{"no ticks", nil, false},
		{"later ticks are not read", []float64{900, 400, 500, 410, 510, 390, 480, 400, 505, 1e9, 1}, true},
	} {
		if got := core.CellOrderPays(tc.samples); got != tc.want {
			t.Errorf("%s: CellOrderPays(%v) = %v, want %v", tc.name, tc.samples, got, tc.want)
		}
	}
}

// TestDigestMatrixUnderEitherSchedule runs the sequential-vs-parallel
// digest matrix, every kernel, with the tick loop's query order pinned
// each way — at one worker and at three: the order-independent digest
// must not notice, and the gauge must say which order ran. One worker
// through RunParallel is Run, counters and all.
func TestDigestMatrixUnderEitherSchedule(t *testing.T) {
	cfg := obsTestConfig()
	cfg.Ticks = 12 // past the trial, so the unpinned reference runs decide too
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bcfg := workload.DefaultUniformBoxes()
	bcfg.NumPoints = 900
	bcfg.Ticks = 12
	bcfg.SpaceSize = 3000
	boxes := func() workload.BoxSource { return workload.MustNewBoxGenerator(bcfg) } // deterministic per config
	want := core.Run(core.NewBruteForce(), workload.NewPlayer(trace), core.Options{})
	bwant := core.RunBoxes(core.NewBruteForceBoxes(), boxes(), core.Options{})
	if want.Pairs == 0 || bwant.Pairs == 0 {
		t.Fatal("reference runs found no pairs")
	}
	kernels := []core.QueryKernel{core.KernelAuto, core.KernelEmit, core.KernelAppend, core.KernelBatch}
	unpinned := obs.New()
	core.RunParallel(grid.MustNew(grid.CSR(), cfg.Bounds(), cfg.NumPoints), workload.NewPlayer(trace), core.Options{Obs: unpinned}, 3)
	if got := unpinned.Snapshot().Gauges["core.tick.cell_ordered"]; got != 1 {
		t.Errorf("RunParallel with 3 workers and the order not pinned: core.tick.cell_ordered = %d, want 1", got)
	}

	for _, on := range []bool{true, false} {
		t.Run(fmt.Sprintf("cellOrdered=%v", on), func(t *testing.T) {
			defer core.SetCellOrdered(on)()
			check := func(name string, got, ref *core.Result) {
				t.Helper()
				if got.Pairs != ref.Pairs || got.Hash != ref.Hash || got.Queries != ref.Queries {
					t.Errorf("%s: (%d pairs, %#x, %d queries), want (%d, %#x, %d)",
						name, got.Pairs, got.Hash, got.Queries, ref.Pairs, ref.Hash, ref.Queries)
				}
			}
			checkOrder := func(name string, reg *obs.Registry) {
				t.Helper()
				if got := reg.Snapshot().Gauges["core.tick.cell_ordered"]; (got == 1) != on {
					t.Errorf("%s: core.tick.cell_ordered = %d with the order pinned to %v", name, got, on)
				}
			}
			for _, k := range kernels {
				for _, gc := range []grid.Config{grid.CPSTuned(), grid.CSR(), grid.CSRXY()} {
					reg := obs.New()
					opts := core.Options{Kernel: k, Obs: reg}
					idx := grid.MustNew(gc, cfg.Bounds(), cfg.NumPoints)
					name := fmt.Sprintf("%s/%s", idx.Name(), k)
					check(name+" Run", core.Run(idx, workload.NewPlayer(trace), opts), want)
					checkOrder(name+" Run", reg)
					preg := obs.New()
					check(name+" RunParallel", core.RunParallel(idx, workload.NewPlayer(trace), core.Options{Kernel: k, Obs: preg}, 3), want)
					checkOrder(name+" RunParallel", preg)
				}
				for _, idx := range []core.BoxIndex{
					grid.MustNewBoxGrid(16, bcfg.Bounds(), bcfg.NumPoints),
					grid.MustNewBoxGrid2L(16, bcfg.Bounds(), bcfg.NumPoints),
					rtree.MustNewBoxTree(rtree.DefaultFanout),
				} {
					name := fmt.Sprintf("%s/%s", idx.Name(), k)
					check(name+" RunBoxes", core.RunBoxes(idx, boxes(), core.Options{Kernel: k}), bwant)
					preg := obs.New()
					check(name+" RunBoxesParallel", core.RunBoxesParallel(idx, boxes(), core.Options{Kernel: k, Obs: preg}, 3), bwant)
					checkOrder(name+" RunBoxesParallel", preg)
				}
			}
			// One worker through RunParallel is the loop Run drives: the
			// same results, ticks kept and counters.
			seq, one := obs.New(), obs.New()
			idx := grid.MustNew(grid.CSR(), cfg.Bounds(), cfg.NumPoints)
			a := core.Run(idx, workload.NewPlayer(trace), core.Options{KeepPerTick: true, Obs: seq})
			b := core.RunParallel(idx, workload.NewPlayer(trace), core.Options{KeepPerTick: true, Obs: one}, 1)
			check("RunParallel(1)", b, a)
			if b.Updates != a.Updates || len(b.PerTick) != len(a.PerTick) {
				t.Errorf("RunParallel(1): %d updates over %d ticks kept, Run %d over %d", b.Updates, len(b.PerTick), a.Updates, len(a.PerTick))
			}
			for _, c := range []string{"core.ticks", "core.queries", "core.updates", "core.pairs"} {
				if got, want := one.Snapshot().Counters[c], seq.Snapshot().Counters[c]; got != want {
					t.Errorf("RunParallel(1): %s = %d, Run's %d", c, got, want)
				}
			}
			checkOrder("RunParallel(1)", one)
			// An out-of-tree index with a batch kernel of its own: the one
			// implementer of core.BatchQuerier left is benchmark's traced
			// wrapper, in a module these tests do not see.
			own := &ownBatch{BruteForce: core.NewBruteForce()}
			opts := core.Options{Kernel: core.KernelBatch}
			check("own batch Run", core.Run(own, workload.NewPlayer(trace), opts), want)
			if got := own.calls.Swap(0); got != int64(cfg.Ticks) {
				t.Errorf("Run under KernelBatch made %d QueryBatch calls over %d ticks, want one a tick", got, cfg.Ticks)
			}
			check("own batch RunParallel", core.RunParallel(own, workload.NewPlayer(trace), opts, 3), want)
			if got := own.calls.Load(); got < int64(cfg.Ticks) {
				t.Errorf("RunParallel under KernelBatch made %d QueryBatch calls over %d ticks, want at least one a tick", got, cfg.Ticks)
			}
		})
	}
}

// ownBatch is the oracle with a QueryBatch of its own, which counts its
// calls (from several workers under RunParallel).
type ownBatch struct {
	*core.BruteForce
	calls atomic.Int64
}

func (b *ownBatch) QueryBatch(rects []geom.Rect, offsets, buf []uint32) ([]uint32, []uint32) {
	b.calls.Add(1)
	return core.QueryBatchOf(b.BruteForce, b.Query)(rects, offsets, buf)
}

// TestCollectPairsSeesQuerierOrder: pair collection observes emission
// order, so it keeps the plain schedule even with cell order pinned on.
func TestCollectPairsSeesQuerierOrder(t *testing.T) {
	cfg := obsTestConfig()
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	collect := func() (seq []uint32, gauge int64) {
		reg := obs.New()
		idx := grid.MustNew(grid.CSR(), cfg.Bounds(), cfg.NumPoints)
		core.Run(idx, workload.NewPlayer(trace), core.Options{
			Obs: reg,
			CollectPairs: func(q, _ uint32) {
				if len(seq) == 0 || seq[len(seq)-1] != q {
					seq = append(seq, q)
				}
			},
		})
		return seq, reg.Snapshot().Gauges["core.tick.cell_ordered"]
	}
	restore := core.SetCellOrdered(false)
	plain, _ := collect()
	restore()
	defer core.SetCellOrdered(true)()
	pinned, gauge := collect()
	if gauge != 0 {
		t.Errorf("core.tick.cell_ordered = %d under CollectPairs, want 0", gauge)
	}
	if len(plain) == 0 || len(pinned) != len(plain) {
		t.Fatalf("collected %d querier runs with cell order pinned on, %d in querier order", len(pinned), len(plain))
	}
	for i := range plain {
		if pinned[i] != plain[i] {
			t.Fatalf("querier run %d is querier %d with cell order pinned on, %d in querier order", i, pinned[i], plain[i])
		}
	}
}

package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/grid"
	"repro/internal/parutil"
	"repro/internal/workload"
)

func TestRunParallelMatchesSequential(t *testing.T) {
	cfg := testConfig()
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range lineup(cfg) {
		seq := Run(idx, workload.NewPlayer(trace), Options{})
		for _, workers := range []int{1, 2, 3, 8} {
			par := RunParallel(idx, workload.NewPlayer(trace), Options{}, workers)
			if par.Pairs != seq.Pairs || par.Hash != seq.Hash {
				t.Fatalf("%s with %d workers: digest (%d, %#x) != sequential (%d, %#x)",
					idx.Name(), workers, par.Pairs, par.Hash, seq.Pairs, seq.Hash)
			}
			if par.Queries != seq.Queries || par.Updates != seq.Updates {
				t.Fatalf("%s with %d workers: phase counts diverge", idx.Name(), workers)
			}
		}
	}
}

// TestRunParallelDigestMatrix is the ISSUE's digest-equality matrix:
// Run and RunParallel must produce identical (Pairs, Hash) for every
// grid layout × scan algorithm combination, including the CSR layout
// whose build, query scheduling, and update phases all take the parallel
// paths (ParallelBuilder, Morton-ordered scheduling, BatchUpdater).
func TestRunParallelDigestMatrix(t *testing.T) {
	cfg := testConfig()
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	layouts := []grid.Layout{
		grid.LayoutLinked, grid.LayoutInline, grid.LayoutInlineXY,
		grid.LayoutIntrusive, grid.LayoutCSR,
	}
	scans := []grid.Scan{grid.ScanFull, grid.ScanRange}
	var refPairs int64
	var refHash uint64
	first := true
	for _, layout := range layouts {
		for _, scan := range scans {
			gc := grid.Config{Layout: layout, Scan: scan, BS: 8, CPS: 16}
			t.Run(gc.DisplayName(), func(t *testing.T) {
				idx := grid.MustNew(gc, cfg.Bounds(), cfg.NumPoints)
				seq := Run(idx, workload.NewPlayer(trace), Options{})
				if first {
					refPairs, refHash = seq.Pairs, seq.Hash
					first = false
				} else if seq.Pairs != refPairs || seq.Hash != refHash {
					t.Fatalf("sequential digest (%d, %#x) differs from reference (%d, %#x)",
						seq.Pairs, seq.Hash, refPairs, refHash)
				}
				for _, workers := range []int{2, 4, 8} {
					idx := grid.MustNew(gc, cfg.Bounds(), cfg.NumPoints)
					par := RunParallel(idx, workload.NewPlayer(trace), Options{}, workers)
					if par.Pairs != refPairs || par.Hash != refHash {
						t.Fatalf("workers=%d digest (%d, %#x) != sequential (%d, %#x)",
							workers, par.Pairs, par.Hash, refPairs, refHash)
					}
				}
			})
		}
	}
}

// TestRunParallelCSRFullWorkload forces the batched-update threshold: a
// workload large enough that UpdateBatch takes its sharded parallel path,
// compared against the sequential inline-layout reference — the ISSUE's
// headline acceptance pairing.
func TestRunParallelCSRFullWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("large workload")
	}
	cfg := testConfig()
	cfg.NumPoints = 12000
	cfg.Ticks = 4
	cfg.SpaceSize = 8000
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inline := grid.MustNew(grid.CPSTuned(), cfg.Bounds(), cfg.NumPoints)
	seq := Run(inline, workload.NewPlayer(trace), Options{})
	csr := grid.MustNew(grid.CSR(), cfg.Bounds(), cfg.NumPoints)
	par := RunParallel(csr, workload.NewPlayer(trace), Options{}, 4)
	if par.Pairs != seq.Pairs || par.Hash != seq.Hash {
		t.Fatalf("parallel CSR digest (%d, %#x) != sequential inline (%d, %#x)",
			par.Pairs, par.Hash, seq.Pairs, seq.Hash)
	}
	if par.Updates != seq.Updates || par.Queries != seq.Queries {
		t.Fatal("phase counts diverge")
	}
}

// TestRunEveryoneMoves holds the bulk update path against the per-move
// one where it matters most: every object moves every tick on gaussian
// hotspots, so the CSR grids re-scatter each batch while the inline grid
// removes and inserts each move. Sequential and parallel drivers, csr and
// csrxy, must all report the brute-force digest.
func TestRunEveryoneMoves(t *testing.T) {
	cfg := workload.DefaultGaussian()
	cfg.NumPoints = 6000
	cfg.Ticks = 5
	cfg.SpaceSize = 6000
	cfg.Updaters = 1
	cfg.Queriers = 0.1
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := Run(NewBruteForce(), workload.NewPlayer(trace), Options{})
	if want.Updates != int64(cfg.NumPoints*cfg.Ticks) {
		t.Fatalf("%d updates, want everyone every tick", want.Updates)
	}
	check := func(name string, res *Result) {
		t.Helper()
		if res.Pairs != want.Pairs || res.Hash != want.Hash || res.Updates != want.Updates {
			t.Errorf("%s: (%d, %#x, %d updates), brute force (%d, %#x, %d)",
				name, res.Pairs, res.Hash, res.Updates, want.Pairs, want.Hash, want.Updates)
		}
	}
	for _, gc := range []grid.Config{grid.CPSTuned(), grid.CSR(), grid.CSRXY()} {
		mk := func() Index { return grid.MustNew(gc, cfg.Bounds(), cfg.NumPoints) }
		check(gc.Name+" Run", Run(mk(), workload.NewPlayer(trace), Options{}))
		for _, workers := range []int{2, 4} {
			check(gc.Name+" RunParallel", RunParallel(mk(), workload.NewPlayer(trace), Options{}, workers))
		}
	}
}

func TestRunParallelDefaultWorkers(t *testing.T) {
	cfg := testConfig()
	cfg.Ticks = 3
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	idx := grid.MustNew(grid.CPSTuned(), cfg.Bounds(), cfg.NumPoints)
	seq := Run(idx, workload.NewPlayer(trace), Options{})
	par := RunParallel(idx, workload.NewPlayer(trace), Options{}, 0) // GOMAXPROCS
	if par.Pairs != seq.Pairs || par.Hash != seq.Hash {
		t.Fatal("default worker count diverges from sequential")
	}
}

func TestRunParallelKeepPerTick(t *testing.T) {
	cfg := testConfig()
	cfg.Ticks = 4
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	idx := grid.MustNew(grid.CPSTuned(), cfg.Bounds(), cfg.NumPoints)
	res := RunParallel(idx, workload.NewPlayer(trace), Options{KeepPerTick: true}, 4)
	if len(res.PerTick) != 4 {
		t.Fatalf("PerTick has %d entries", len(res.PerTick))
	}
	var sum PhaseTimes
	for _, pt := range res.PerTick {
		sum.add(pt)
	}
	if sum != res.Totals {
		t.Fatal("per-tick sum != totals")
	}
}

func TestRunParallelCollectPairsFallsBack(t *testing.T) {
	// Pair collection forces the sequential path; results must still be
	// complete.
	cfg := testConfig()
	cfg.Ticks = 2
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	idx := grid.MustNew(grid.CPSTuned(), cfg.Bounds(), cfg.NumPoints)
	var collected int64
	res := RunParallel(idx, workload.NewPlayer(trace), Options{
		CollectPairs: func(q, f uint32) { collected++ },
	}, 4)
	if collected != res.Pairs {
		t.Fatalf("collector saw %d of %d pairs", collected, res.Pairs)
	}
}

// TestForEachBlockClaimsEachIndexOnce holds the block claim both parallel
// query phases share: every index is served exactly once, in blocks
// aligned to queryBlock and at most that long, each by a worker in range;
// a block that panics surfaces as a *parutil.WorkerPanic, and only after
// the sibling workers have served every other block.
func TestForEachBlockClaimsEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		for _, workers := range []int{1, 2, 3, 8} {
			served := make([]atomic.Int32, n)
			forEachBlock(n, workers, func(w, lo, hi int) {
				if w < 0 || w >= workers || lo%queryBlock != 0 || hi <= lo || hi-lo > queryBlock || hi > n {
					t.Errorf("n=%d workers=%d: worker %d served [%d, %d)", n, workers, w, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					served[i].Add(1)
				}
			})
			for i := range served {
				if got := served[i].Load(); got != 1 {
					t.Fatalf("n=%d workers=%d: index %d served %d times", n, workers, i, got)
				}
			}
		}
	}

	const n, bad = 1000, 3 * queryBlock
	for _, workers := range []int{2, 3, 8} {
		served := make([]atomic.Int32, n)
		func() {
			defer func() {
				v := recover()
				if p, ok := v.(*parutil.WorkerPanic); !ok || p.Value != "bad block" {
					t.Fatalf("workers=%d: recovered %v, want a *parutil.WorkerPanic of the block's panic", workers, v)
				}
			}()
			forEachBlock(n, workers, func(w, lo, hi int) {
				if lo == bad {
					panic("bad block")
				}
				for i := lo; i < hi; i++ {
					served[i].Add(1)
				}
			})
		}()
		for i := range served {
			want := int32(1)
			if i/queryBlock == bad/queryBlock {
				want = 0
			}
			if got := served[i].Load(); got != want {
				t.Fatalf("workers=%d: index %d served %d times when the panic surfaced, want %d", workers, i, got, want)
			}
		}
	}
}

func TestRunParallelTicksOption(t *testing.T) {
	cfg := testConfig()
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	idx := grid.MustNew(grid.CPSTuned(), cfg.Bounds(), cfg.NumPoints)
	res := RunParallel(idx, workload.NewPlayer(trace), Options{Ticks: 5}, 2)
	if res.Ticks != 5 {
		t.Fatalf("Ticks = %d, want 5", res.Ticks)
	}
}

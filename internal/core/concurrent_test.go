package core_test

// External test package: the concurrent driver's contract is exercised
// through internal/epoch, which imports core — an in-package test would
// cycle.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/faultutil"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/workload"
)

func concurrentTestConfig() workload.Config {
	cfg := workload.DefaultUniform()
	cfg.NumPoints = 800
	cfg.Ticks = 10
	cfg.SpaceSize = 2000
	cfg.MaxSpeed = 40
	cfg.QuerySize = 120
	return cfg
}

func newEpochGrid(cfg workload.Config) *epoch.Index {
	return epoch.NewIndex(func() core.Index {
		return grid.MustNew(grid.CSR(), cfg.Bounds(), cfg.NumPoints)
	}, epoch.Options{})
}

// TestRunConcurrentContract checks the service-mode driver's guarantees
// on a clean run: every tick publishes, no query observes an
// unpublished epoch, and the latency series is well-formed.
func TestRunConcurrentContract(t *testing.T) {
	cfg := concurrentTestConfig()
	src, err := workload.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := newEpochGrid(cfg)
	res := core.RunConcurrent(x, src, core.ConcurrentOptions{Readers: 3})

	if res.Violations != 0 {
		t.Fatalf("%d queries observed an unpublished epoch", res.Violations)
	}
	if res.FailedTicks != 0 {
		t.Fatalf("FailedTicks = %d on a clean run", res.FailedTicks)
	}
	if res.Ticks != cfg.Ticks {
		t.Fatalf("Ticks = %d, want %d", res.Ticks, cfg.Ticks)
	}
	if res.Stats.Epochs != uint64(cfg.Ticks) {
		t.Fatalf("published %d epochs, want %d", res.Stats.Epochs, cfg.Ticks)
	}
	if res.Stats.Degraded != 0 || res.Stats.PanicsContained != 0 {
		t.Fatalf("clean run degraded: %+v", res.Stats)
	}
	if res.Queries == 0 || res.Updates == 0 || res.Pairs == 0 {
		t.Fatalf("empty run: %+v", res)
	}
	if res.QueryP50 <= 0 || res.QueryP50 > res.QueryP95 || res.QueryP95 > res.QueryP99 {
		t.Fatalf("malformed latency series: p50=%v p95=%v p99=%v",
			res.QueryP50, res.QueryP95, res.QueryP99)
	}
	if res.Readers != 3 {
		t.Fatalf("Readers = %d, want 3", res.Readers)
	}
}

// TestRunConcurrentDegraded injects a panic into the first tick's apply:
// the driver must ride through the wrapper's in-tick recovery with no
// failed ticks and no contract violations.
func TestRunConcurrentDegraded(t *testing.T) {
	cfg := concurrentTestConfig()
	src, err := workload.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := epoch.NewIndex(func() core.Index {
		return grid.MustNew(grid.CSR(), cfg.Bounds(), cfg.NumPoints)
	}, epoch.Options{Injector: faultutil.MustNew(5, "apply:panic*1")})
	res := core.RunConcurrent(x, src, core.ConcurrentOptions{Readers: 2})

	if res.Violations != 0 {
		t.Fatalf("%d queries observed an unpublished epoch", res.Violations)
	}
	if res.FailedTicks != 0 {
		t.Fatalf("in-tick recovery should not fail the tick, got %d", res.FailedTicks)
	}
	if res.Stats.Degraded == 0 || res.Stats.PanicsContained == 0 {
		t.Fatalf("fault did not register: %+v", res.Stats)
	}
	if res.Stats.Epochs != uint64(cfg.Ticks) {
		t.Fatalf("published %d epochs, want %d", res.Stats.Epochs, cfg.Ticks)
	}
}

// TestRunConcurrentCarryOver exhausts the wrapper's retries on the first
// tick; the driver must carry the failed batch into the next tick, keep
// serving valid epochs throughout, and finish one epoch short.
func TestRunConcurrentCarryOver(t *testing.T) {
	cfg := concurrentTestConfig()
	src, err := workload.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := epoch.NewIndex(func() core.Index {
		return grid.MustNew(grid.CSR(), cfg.Bounds(), cfg.NumPoints)
	}, epoch.Options{
		Injector:   faultutil.MustNew(5, "apply:panic*1, build:panic*2"),
		MaxRetries: 1,
	})
	res := core.RunConcurrent(x, src, core.ConcurrentOptions{Readers: 2})

	if res.Violations != 0 {
		t.Fatalf("%d queries observed an unpublished epoch", res.Violations)
	}
	if res.FailedTicks == 0 {
		t.Fatal("expected at least one failed tick")
	}
	if got, want := res.Stats.Epochs+uint64(res.FailedTicks), uint64(cfg.Ticks); got != want {
		t.Fatalf("epochs(%d) + failed(%d) = %d, want %d ticks",
			res.Stats.Epochs, res.FailedTicks, got, want)
	}
	if res.Stats.PanicsContained == 0 {
		t.Fatalf("faults did not register: %+v", res.Stats)
	}
}

// TestRunBoxesConcurrentContract is the box-side clean-run gate.
func TestRunBoxesConcurrentContract(t *testing.T) {
	cfg := workload.DefaultUniformBoxes()
	cfg.NumPoints = 700
	cfg.Ticks = 8
	cfg.SpaceSize = 2000
	cfg.MaxSpeed = 50
	cfg.QuerySize = 150
	cfg.MinSide = 5
	cfg.MaxSide = 120
	src, err := workload.NewBoxGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := epoch.NewBoxIndex(func() core.BoxIndex {
		return grid.MustNewBoxGrid2L(16, cfg.Bounds(), cfg.NumPoints)
	}, epoch.Options{})
	res := core.RunBoxesConcurrent(x, src, core.ConcurrentOptions{Readers: 3})

	if res.Violations != 0 {
		t.Fatalf("%d queries observed an unpublished epoch", res.Violations)
	}
	if res.FailedTicks != 0 {
		t.Fatalf("FailedTicks = %d on a clean run", res.FailedTicks)
	}
	if res.Stats.Epochs != uint64(cfg.Ticks) {
		t.Fatalf("published %d epochs, want %d", res.Stats.Epochs, cfg.Ticks)
	}
	if res.Pairs == 0 || res.Queries == 0 {
		t.Fatalf("empty run: %+v", res)
	}
}

// appendOnly is an epoch index behind a decorator that forwards the
// buffered query and not the lease — the shape of benchmark/'s traced
// wrapper — so the driver binds its one-query adapter.
type appendOnly struct{ core.EpochIndex }

func (a appendOnly) QueryAppend(r geom.Rect, buf []uint32) ([]uint32, uint64, uint64) {
	return a.EpochIndex.(core.EpochQueryAppender).QueryAppend(r, buf)
}

// TestConcurrentBlockDrainZeroAlloc pins the reader's steady state: a
// block served through a real epoch.Index — lease, observation, 64
// queries, sampled stamps, release — allocates nothing once the result
// buffer has grown and the exact-sample array is full, leased or
// adapted. (It lives here and not in zeroalloc_test.go because that file
// is in package core, which epoch imports.)
func TestConcurrentBlockDrainZeroAlloc(t *testing.T) {
	defer core.SetMaxExactLatSamples(128)()
	cfg := concurrentTestConfig()
	gen := workload.MustNewGenerator(cfg)
	queriers := make([]uint32, cfg.NumPoints)
	for i := range queriers {
		queriers[i] = uint32(i)
	}
	x := newEpochGrid(cfg)
	x.Build(gen.Positions(nil))
	if _, ok := core.EpochIndex(appendOnly{x}).(core.EpochLeaser); ok {
		t.Fatal("the decorator forwards the lease; the adapter is not under test")
	}
	for name, idx := range map[string]core.EpochIndex{"leased": x, "adapted": appendOnly{x}} {
		serve := core.NewBlockServer(idx, gen.QueryRect)
		lo := 0
		block := func() {
			serve(queriers[lo : lo+64])
			lo = (lo + 64) % (len(queriers) - 64)
		}
		for i := 0; i < 40; i++ {
			block()
		}
		if allocs := testing.AllocsPerRun(100, block); allocs != 0 {
			t.Errorf("%s: serving a block allocates %.2f times at steady state, want 0", name, allocs)
		}
	}
}

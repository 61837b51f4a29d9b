package core

import (
	"runtime/debug"
	"testing"

	"repro/internal/binsearch"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// The brute-force baselines implement the buffered kernels natively
// too, so the lineup's oracle measurements are apples-to-apples with
// the indexes: zero allocations per query once the caller's buffer has
// reached the workload's high-water mark.

func zeroAllocRects(rng *xrand.Rand, n int, space, ext float32) []geom.Rect {
	rects := make([]geom.Rect, n)
	for i := range rects {
		c := geom.Point{X: rng.Float32() * space, Y: rng.Float32() * space}
		rects[i] = geom.Square(c, ext)
	}
	return rects
}

func assertZeroAllocAppend(t *testing.T, name string, qa func(r geom.Rect, buf []uint32) []uint32, rects []geom.Rect) {
	t.Helper()
	var buf []uint32
	for _, r := range rects {
		buf = qa(r, buf[:0])
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		buf = qa(rects[i%len(rects)], buf[:0])
		i++
	})
	if allocs != 0 {
		t.Errorf("%s: QueryAppend allocates %.1f times per query at steady state, want 0", name, allocs)
	}
}

func TestBruteForceQueryAppendZeroAlloc(t *testing.T) {
	const space = 4000
	rng := xrand.New(3)
	pts := make([]geom.Point, 3000)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float32() * space, Y: rng.Float32() * space}
	}
	b := NewBruteForce()
	b.Build(pts)
	assertZeroAllocAppend(t, b.Name(), b.QueryAppend, zeroAllocRects(rng, 50, space, 200))
}

func TestBruteForceBoxesQueryAppendZeroAlloc(t *testing.T) {
	const space = 4000
	rng := xrand.New(5)
	boxes := make([]geom.Rect, 3000)
	for i := range boxes {
		c := geom.Point{X: rng.Float32() * space, Y: rng.Float32() * space}
		boxes[i] = geom.Square(c, 1+rng.Float32()*40)
	}
	b := NewBruteForceBoxes()
	b.Build(boxes)
	assertZeroAllocAppend(t, b.Name(), b.QueryAppend, zeroAllocRects(rng, 50, space, 200))
}

// A whole one-worker tick — refresh, build, query drain and update
// phase — allocates nothing at steady state: the snapshot, the drainer's
// buffers and the schedule's scratch are the run's, every Build reuses
// the CSR arena, and the update phase only applies the batch to the base
// table. So a run allocates exactly what a shorter run over the same
// trace does, once both are past the schedule's trial. The negative
// control, a CSR grid whose Build allocates once, shows the pair still
// counts a tick's allocation with the collector off.
func TestOneWorkerTickZeroAlloc(t *testing.T) {
	const warm, extra = trialTicks + 1, 4
	cfg := workload.DefaultUniform()
	cfg.NumPoints = 5000
	cfg.SpaceSize = 6000
	cfg.Updaters = 1
	cfg.Ticks = warm + extra
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With the collector on, a run long enough to span a GC cycle counts
	// the runtime's own allocations (GOGC=off and GOGC=400 read 0), so the
	// pair is taken with it off; a tick that allocates still fails.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	moreTicks := func(idx Index) float64 {
		run := func(ticks int) func() {
			return func() { Run(idx, workload.NewPlayer(trace), Options{Ticks: ticks}) }
		}
		short := testing.AllocsPerRun(3, run(warm))
		return testing.AllocsPerRun(3, run(warm+extra)) - short
	}
	for _, gc := range []grid.Config{grid.CSR(), grid.CSRXY()} {
		idx := grid.MustNew(gc, cfg.Bounds(), cfg.NumPoints)
		if d := moreTicks(idx); d != 0 {
			t.Errorf("%s: %d more ticks allocate %.1f times, want 0", idx.Name(), extra, d)
		}
	}
	leaky := &allocatingBuild{Grid: grid.MustNew(grid.CSR(), cfg.Bounds(), cfg.NumPoints)}
	if d := moreTicks(leaky); d < extra {
		t.Errorf("negative control: %d more ticks of a Build that allocates read %.1f allocations, want >= %d", extra, d, extra)
	}
}

// allocatingBuild is a CSR grid whose Build allocates once per call.
type allocatingBuild struct {
	*grid.Grid
	garbage []byte
}

func (a *allocatingBuild) Build(pts []geom.Point) {
	a.garbage = make([]byte, 64)
	a.Grid.Build(pts)
}

// The query drain of a one-worker tick — the whole query phase of the
// benchmark's three stop-the-world workloads — allocates nothing at
// steady state under every kernel the tick loop can resolve: the result
// buffers are the drainer's, and the callback kernel's emit is bound
// once per run.
func TestTickDrainZeroAlloc(t *testing.T) {
	cfg := workload.DefaultUniform()
	cfg.NumPoints = 5000
	cfg.SpaceSize = 6000
	bcfg := workload.DefaultUniformBoxes()
	bcfg.NumPoints = 3000
	bcfg.SpaceSize = 6000
	for _, k := range []QueryKernel{KernelAppend, KernelEmit, KernelBatch} {
		csr := grid.MustNew(grid.CSR(), cfg.Bounds(), cfg.NumPoints)
		assertZeroAllocDrain(t, pointEngine(csr, workload.MustNewGenerator(cfg)), Options{Kernel: k})
		box := grid.MustNewBoxGrid2L(16, bcfg.Bounds(), bcfg.NumPoints)
		assertZeroAllocDrain(t, boxEngine(box, workload.MustNewBoxGenerator(bcfg)), Options{Kernel: k})
	}
	bs := pointEngine(binsearch.New(), workload.MustNewGenerator(cfg))
	if k := bs.kernel(Options{}); k != KernelEmit {
		t.Fatalf("binsearch has no native QueryAppend, yet KernelAuto resolves to %s", k)
	}
	assertZeroAllocDrain(t, bs, Options{})
}

func assertZeroAllocDrain[P any](t *testing.T, e *engine[P], opts Options) {
	t.Helper()
	snap := make([]P, e.n)
	e.refresh(snap, 0, len(snap))
	e.build(snap)
	queriers := e.queriers()
	d := newDrainer(e, opts)
	d.drain(queriers)
	d.drain(queriers)
	if d.pairs == 0 {
		t.Fatalf("%s: a tick's drain found no pairs", e.name)
	}
	if allocs := testing.AllocsPerRun(5, func() { d.drain(queriers) }); allocs != 0 {
		t.Errorf("%s under %s: draining a tick of %d queriers allocates %.1f times at steady state, want 0",
			e.name, d.kernel, len(queriers), allocs)
	}
}

// The query schedule the tick loop uses orders a tick's queriers in
// buffers sized once per driver call: what it returns is a permutation of
// the queriers, non-decreasing in scheduling code, and producing it
// allocates nothing. The instruments the loops record into allocate
// nothing either, with a registry and without.
func TestCellScheduleZeroAlloc(t *testing.T) {
	cfg := workload.DefaultUniform()
	cfg.NumPoints = 5000
	cfg.SpaceSize = 6000
	src := workload.MustNewGenerator(cfg)
	e := pointEngine(NewBruteForce(), src)
	snap := make([]geom.Point, e.n)
	e.refresh(snap, 0, len(snap))
	queriers := e.queriers()
	if len(queriers) < cfg.NumPoints/4 {
		t.Fatalf("only %d queriers", len(queriers))
	}
	sched := newCellSchedule(e)
	order := sched.order(snap, queriers)

	seen := make(map[uint32]int, len(queriers))
	for _, q := range queriers {
		seen[q]++
	}
	for i, q := range order {
		seen[q]--
		if i > 0 && sched.codes[order[i-1]] > sched.codes[q] {
			t.Fatalf("order[%d]: code %d after %d", i, sched.codes[q], sched.codes[order[i-1]])
		}
	}
	for q, n := range seen {
		if n != 0 {
			t.Fatalf("querier %d appears %+d times too few in the order", q, n)
		}
	}
	if len(order) != len(queriers) {
		t.Fatalf("%d of %d queriers ordered", len(order), len(queriers))
	}

	if allocs := testing.AllocsPerRun(20, func() { sched.order(snap, queriers) }); allocs != 0 {
		t.Errorf("ordering a tick's queriers allocates %.1f times, want 0", allocs)
	}
	for name, reg := range map[string]*obs.Registry{"enabled": obs.New(), "nil": nil} {
		to := newTickObs(reg)
		ordered := false
		if allocs := testing.AllocsPerRun(100, func() {
			ordered = !ordered
			to.tick(PhaseTimes{Build: 1, Query: 2, Update: 3}, 10, 5, ordered)
		}); allocs != 0 {
			t.Errorf("%s registry: recording a tick allocates %.1f times, want 0", name, allocs)
		}
	}
}

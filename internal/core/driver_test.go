package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/binsearch"
	"repro/internal/crtree"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/kdtrie"
	"repro/internal/rtree"
	"repro/internal/workload"
)

func testConfig() workload.Config {
	cfg := workload.DefaultUniform()
	cfg.NumPoints = 800
	cfg.Ticks = 12
	cfg.SpaceSize = 2000
	cfg.MaxSpeed = 40
	cfg.QuerySize = 120
	return cfg
}

// lineup instantiates every technique of the study for the given
// workload, including the whole grid ablation chain.
func lineup(cfg workload.Config) []Index {
	p := Params{Bounds: cfg.Bounds(), NumPoints: cfg.NumPoints}
	idxs := []Index{
		NewBruteForce(),
		binsearch.New(),
		rtree.MustNew(rtree.DefaultFanout),
		crtree.MustNew(crtree.DefaultFanout),
		kdtrie.MustNew(p.Bounds, kdtrie.DefaultBits),
	}
	for _, gc := range grid.AblationChain() {
		idxs = append(idxs, grid.MustNew(gc, p.Bounds, p.NumPoints))
	}
	return idxs
}

func TestAllTechniquesProduceIdenticalJoinResults(t *testing.T) {
	for _, cfg := range []workload.Config{testConfig(), func() workload.Config {
		c := testConfig()
		c.Kind = workload.Gaussian
		c.Hotspots = 4
		return c
	}(), func() workload.Config {
		c := testConfig()
		c.Kind = workload.Simulation
		c.Hotspots = 5
		return c
	}()} {
		t.Run(cfg.Kind.String(), func(t *testing.T) {
			trace, err := workload.Record(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var refPairs int64
			var refHash uint64
			for i, idx := range lineup(cfg) {
				res := Run(idx, workload.NewPlayer(trace), Options{})
				if res.Ticks != cfg.Ticks {
					t.Fatalf("%s: ran %d ticks, want %d", idx.Name(), res.Ticks, cfg.Ticks)
				}
				if res.Pairs == 0 {
					t.Fatalf("%s: join produced no pairs; workload too sparse to compare", idx.Name())
				}
				if i == 0 {
					refPairs, refHash = res.Pairs, res.Hash
					continue
				}
				if res.Pairs != refPairs || res.Hash != refHash {
					t.Errorf("%s: result digest (%d, %#x) differs from oracle (%d, %#x)",
						idx.Name(), res.Pairs, res.Hash, refPairs, refHash)
				}
			}
		})
	}
}

func TestRunCountsQueriesAndUpdates(t *testing.T) {
	cfg := testConfig()
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantQ, wantU := int64(0), int64(0)
	for _, tt := range trace.Ticks {
		wantQ += int64(len(tt.Queriers))
		wantU += int64(len(tt.Updates))
	}
	res := Run(NewBruteForce(), workload.NewPlayer(trace), Options{})
	if res.Queries != wantQ {
		t.Fatalf("Queries = %d, want %d", res.Queries, wantQ)
	}
	if res.Updates != wantU {
		t.Fatalf("Updates = %d, want %d", res.Updates, wantU)
	}
}

func TestRunTicksOption(t *testing.T) {
	cfg := testConfig()
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(NewBruteForce(), workload.NewPlayer(trace), Options{Ticks: 3})
	if res.Ticks != 3 {
		t.Fatalf("Ticks = %d, want 3", res.Ticks)
	}
	// Requesting more ticks than the workload has is clamped.
	res = Run(NewBruteForce(), workload.NewPlayer(trace), Options{Ticks: 10000})
	if res.Ticks != cfg.Ticks {
		t.Fatalf("Ticks = %d, want %d", res.Ticks, cfg.Ticks)
	}
}

func TestRunKeepPerTick(t *testing.T) {
	cfg := testConfig()
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(NewBruteForce(), workload.NewPlayer(trace), Options{KeepPerTick: true})
	if len(res.PerTick) != cfg.Ticks {
		t.Fatalf("PerTick has %d entries, want %d", len(res.PerTick), cfg.Ticks)
	}
	var sum PhaseTimes
	for _, pt := range res.PerTick {
		sum.add(pt)
	}
	if sum != res.Totals {
		t.Fatalf("per-tick sum %+v != totals %+v", sum, res.Totals)
	}
}

func TestCollectPairsSeesEveryPair(t *testing.T) {
	cfg := testConfig()
	cfg.Ticks = 3
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	res := Run(NewBruteForce(), workload.NewPlayer(trace), Options{
		CollectPairs: func(q, f uint32) { n++ },
	})
	if n != res.Pairs {
		t.Fatalf("collector saw %d pairs, result says %d", n, res.Pairs)
	}
}

func TestSelfPairsIncluded(t *testing.T) {
	// A querier always lies inside its own query square, so the join
	// result must contain the reflexive pair.
	cfg := testConfig()
	cfg.Ticks = 1
	cfg.Updaters = 0
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	self := make(map[uint32]bool)
	Run(NewBruteForce(), workload.NewPlayer(trace), Options{
		CollectPairs: func(q, f uint32) {
			if q == f {
				self[q] = true
			}
		},
	})
	for _, q := range trace.Ticks[0].Queriers {
		if !self[q] {
			t.Fatalf("querier %d missing its reflexive pair", q)
		}
	}
}

func TestQueriesSeePreviousTickState(t *testing.T) {
	// Construct a two-object workload by hand: object 1 moves far away in
	// tick 0's update phase. Tick 0 queries must see the old position,
	// tick 1 queries the new one.
	cfg := workload.Config{
		Kind: workload.Uniform, Seed: 1, Ticks: 2, NumPoints: 2,
		SpaceSize: 1000, MaxSpeed: 10, QuerySize: 100, Queriers: 1, Updaters: 0,
	}
	tr := &workload.Trace{
		Config: cfg,
		Initial: []workload.Object{
			{Pos: geom.Pt(100, 100)},
			{Pos: geom.Pt(120, 120)},
		},
		Ticks: []workload.TickTrace{
			{Queriers: []uint32{0}, Updates: []workload.Update{{ID: 1, Pos: geom.Pt(900, 900)}}},
			{Queriers: []uint32{0}},
		},
	}
	// Brute force scans IDs in order, so the expected emission sequence
	// is fully determined: tick 0 finds {0, 1} (object 1 still at its
	// pre-update position), tick 1 finds only {0}.
	var found []uint32
	Run(NewBruteForce(), workload.NewPlayer(tr), Options{
		CollectPairs: func(q, f uint32) { found = append(found, f) },
	})
	want := []uint32{0, 1, 0}
	if len(found) != len(want) {
		t.Fatalf("emission sequence %v, want %v", found, want)
	}
	for i := range want {
		if found[i] != want[i] {
			t.Fatalf("emission sequence %v, want %v", found, want)
		}
	}
}

func TestResultString(t *testing.T) {
	cfg := testConfig()
	cfg.Ticks = 2
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(NewBruteForce(), workload.NewPlayer(trace), Options{})
	s := res.String()
	if !strings.Contains(s, "Brute Force") || !strings.Contains(s, "pairs") {
		t.Fatalf("String() = %q", s)
	}
	if res.AvgTick() <= 0 {
		t.Fatal("AvgTick must be positive")
	}
	empty := &Result{}
	if empty.AvgTick() != 0 || empty.AvgBuild() != 0 {
		t.Fatal("zero-tick result averages must be 0")
	}
}

func TestPhaseTimesTotal(t *testing.T) {
	p := PhaseTimes{Build: 1, Query: 2, Update: 3}
	if p.Total() != 6 {
		t.Fatalf("Total = %d", p.Total())
	}
}

// counting forwards the buffered kernel the drivers discover on an index
// and counts Update calls. It forwards no BuildParallel: neither grid it
// wraps has one, so the drivers build them by Build.
type counting[P any] struct {
	IndexOf[P]
	updates atomic.Int64
}

func (c *counting[P]) Update(id uint32, old, new P) {
	c.updates.Add(1)
	c.IndexOf.Update(id, old, new)
}

func (c *counting[P]) QueryAppend(r geom.Rect, buf []uint32) []uint32 {
	return c.IndexOf.(QueryAppender).QueryAppend(r, buf)
}

// TestDriversLeaveMaintenanceToBuild: the four stop-the-world drivers
// apply a tick's batch to the base table only, so an index is never
// handed a move, and every driver still reports the oracle's digest over
// the moving workload.
func TestDriversLeaveMaintenanceToBuild(t *testing.T) {
	cfg := testConfig()
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bcfg := testBoxConfig()
	want := Run(NewBruteForce(), workload.NewPlayer(trace), Options{})
	bwant := RunBoxes(NewBruteForceBoxes(), workload.MustNewBoxGenerator(bcfg), Options{})
	if want.Updates == 0 || bwant.Updates == 0 {
		t.Fatal("reference runs moved nothing")
	}
	for _, workers := range []int{1, 3} {
		idx := &counting[geom.Point]{IndexOf: grid.MustNew(grid.CSR(), cfg.Bounds(), cfg.NumPoints)}
		box := &counting[geom.Rect]{IndexOf: grid.MustNewBoxGrid2L(16, bcfg.Bounds(), bcfg.NumPoints)}
		var res, bres *Result
		if workers == 1 {
			res = Run(idx, workload.NewPlayer(trace), Options{})
			bres = RunBoxes(box, workload.MustNewBoxGenerator(bcfg), Options{})
		} else {
			res = RunParallel(idx, workload.NewPlayer(trace), Options{}, workers)
			bres = RunBoxesParallel(box, workload.MustNewBoxGenerator(bcfg), Options{}, workers)
		}
		assertNoMaintenance(t, fmt.Sprintf("points, %d workers", workers), idx, res, want)
		assertNoMaintenance(t, fmt.Sprintf("boxes, %d workers", workers), box, bres, bwant)
	}
}

func assertNoMaintenance[P any](t *testing.T, name string, c *counting[P], got, want *Result) {
	t.Helper()
	if u := c.updates.Load(); u != 0 {
		t.Errorf("%s: the driver made %d Update calls, want none", name, u)
	}
	if got.Pairs != want.Pairs || got.Hash != want.Hash || got.Updates != want.Updates {
		t.Errorf("%s: (%d, %#x, %d updates), oracle (%d, %#x, %d)",
			name, got.Pairs, got.Hash, got.Updates, want.Pairs, want.Hash, want.Updates)
	}
}

// queryOnly is the minimal Index contract, as binsearch, crtree and
// kdtrie implement it: a callback Query and no buffered kernel.
type queryOnly struct{ bf *BruteForce }

func (q queryOnly) Name() string                          { return "query only" }
func (q queryOnly) Build(pts []geom.Point)                { q.bf.Build(pts) }
func (q queryOnly) Query(r geom.Rect, emit func(uint32))  { q.bf.Query(r, emit) }
func (q queryOnly) Update(id uint32, old, new geom.Point) {}

// TestAutoKernelWithoutNativeAppend: under the default kernel an index
// without a QueryAppend is drained through its callback, not through
// QueryAppendOf's adapter, which allocates a closure and the buffer it
// captures on every query.
func TestAutoKernelWithoutNativeAppend(t *testing.T) {
	cfg := testConfig()
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	idx := queryOnly{NewBruteForce()}
	run := func(opts Options) *Result { return Run(idx, workload.NewPlayer(trace), opts) }

	want := run(Options{Kernel: KernelEmit})
	for _, k := range []QueryKernel{KernelAuto, KernelAppend} {
		if got := run(Options{Kernel: k}); got.Pairs != want.Pairs || got.Hash != want.Hash {
			t.Errorf("kernel %s: digest (%d, %#x), kernel emit (%d, %#x)", k, got.Pairs, got.Hash, want.Pairs, want.Hash)
		}
	}

	// What a run allocates on top of a one-tick run is what its other
	// ticks allocate: a constant, whatever the number of queries.
	const extra = 4
	one := testing.AllocsPerRun(5, func() { run(Options{Ticks: 1}) })
	more := testing.AllocsPerRun(5, func() { run(Options{Ticks: 1 + extra}) })
	queries := want.Queries / int64(want.Ticks)
	if perTick := (more - one) / extra; queries < 100 || perTick > 8 {
		t.Errorf("KernelAuto allocates %.1f times a tick over %d queries a tick, want O(1)", perTick, queries)
	}
}

package core_test

// Driver-level observability tests (ISSUE 10): instrumentation must be
// invisible in the result digest and visible in the registry.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/workload"
)

func obsTestConfig() workload.Config {
	cfg := workload.DefaultUniform()
	cfg.NumPoints = 1500
	cfg.Ticks = 4
	cfg.SpaceSize = 2000
	cfg.MaxSpeed = 40
	cfg.QuerySize = 150
	return cfg
}

// TestInstrumentedRunDigestIdentical is the digest-matrix half of the
// ISSUE 10 test satellite: the same workload driven with and without a
// registry attached must produce bit-identical (Pairs, Hash) across
// sequential and parallel drivers and across point and box engines.
func TestInstrumentedRunDigestIdentical(t *testing.T) {
	cfg := obsTestConfig()

	type runCase struct {
		name string
		run  func(o core.Options) *core.Result
	}
	cases := []runCase{
		{"point/seq", func(o core.Options) *core.Result {
			src, err := workload.NewGenerator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return core.Run(grid.MustNew(grid.CSR(), cfg.Bounds(), cfg.NumPoints), src, o)
		}},
		{"point/parallel", func(o core.Options) *core.Result {
			src, err := workload.NewGenerator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return core.RunParallel(grid.MustNew(grid.CSR(), cfg.Bounds(), cfg.NumPoints), src, o, 4)
		}},
		{"box/seq", func(o core.Options) *core.Result {
			bcfg := workload.DefaultUniformBoxes()
			bcfg.NumPoints = 1000
			bcfg.Ticks = 3
			src, err := workload.NewBoxGenerator(bcfg)
			if err != nil {
				t.Fatal(err)
			}
			return core.RunBoxes(grid.MustNewBoxGrid2L(16, bcfg.Bounds(), bcfg.NumPoints), src, o)
		}},
	}
	for _, tc := range cases {
		plain := tc.run(core.Options{})
		reg := obs.New()
		instr := tc.run(core.Options{Obs: reg})
		if plain.Pairs != instr.Pairs || plain.Hash != instr.Hash {
			t.Errorf("%s: instrumented run diverged: (%d, %#x) vs (%d, %#x)",
				tc.name, plain.Pairs, plain.Hash, instr.Pairs, instr.Hash)
		}
		snap := reg.Snapshot()
		for _, h := range []string{"core.tick.build_ns", "core.tick.query_ns", "core.tick.update_ns"} {
			hs, ok := snap.Histograms[h]
			if !ok || hs.Count != uint64(instr.Ticks) {
				t.Errorf("%s: histogram %s has count %d, want %d ticks", tc.name, h, hs.Count, instr.Ticks)
			}
		}
		if got := snap.Counters["core.queries"]; got != instr.Queries {
			t.Errorf("%s: core.queries counter = %d, want %d", tc.name, got, instr.Queries)
		}
		if got := snap.Counters["core.pairs"]; got != instr.Pairs {
			t.Errorf("%s: core.pairs counter = %d, want %d", tc.name, got, instr.Pairs)
		}
	}
}

// tickCounts records how many queriers each tick of a source issued.
type tickCounts struct {
	workload.Source
	perTick []int
}

func (c *tickCounts) Queriers() []uint32 {
	q := c.Source.Queriers()
	c.perTick = append(c.perTick, len(q))
	return q
}

// TestRunConcurrentInstrumented drives the epoch-published concurrent
// loop with a registry: the per-query latency histogram must hold
// exactly the position sample — the first LatSample queries of every
// claimed block, a count that repeats bit for bit whatever the readers'
// interleaving — and every query when every query is stamped, the
// queries counter must count every query either way, the epoch lifecycle
// series must match Stats(), and the contract (violations == 0) must
// hold while instrumented.
func TestRunConcurrentInstrumented(t *testing.T) {
	for name, every := range map[string]bool{"sampled": false, "every": true} {
		t.Run(name, func(t *testing.T) {
			if every {
				defer core.StampEveryQuery()()
			}
			instrumentedRun(t, every)
		})
	}
}

func instrumentedRun(t *testing.T, every bool) {
	cfg := concurrentTestConfig()
	gen, err := workload.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := &tickCounts{Source: gen}
	x := newEpochGrid(cfg)
	reg := obs.New()
	res := core.RunConcurrent(x, src, core.ConcurrentOptions{Readers: 3, Obs: reg})
	if res.Violations != 0 || res.FailedTicks != 0 {
		t.Fatalf("instrumented run broke the contract: %+v", res)
	}
	var stamped, queries int64
	for _, n := range src.perTick {
		stamped += int64(core.StampedQueries(n))
		queries += int64(n)
	}
	if every && stamped != queries {
		t.Fatalf("stamping every query should stamp %d, formula says %d", queries, stamped)
	}
	if !every && stamped*4 > queries {
		t.Fatalf("the sample is %d of %d queries; the stream is too short to tell it from all of them", stamped, queries)
	}
	snap := reg.Snapshot()
	if got := snap.Histograms["core.concurrent.query_ns"].Count; got != uint64(stamped) {
		t.Fatalf("query_ns histogram holds %d observations, want %d of %d queries", got, stamped, queries)
	}
	if res.QuerySamples != stamped {
		t.Fatalf("QuerySamples = %d, want %d", res.QuerySamples, stamped)
	}
	if got := snap.Counters["core.concurrent.queries"]; got != queries || res.Queries != queries {
		t.Fatalf("queries counter %d, result %d, source issued %d", got, res.Queries, queries)
	}
	if got := snap.Histograms["core.concurrent.apply_ns"].Count; got != uint64(res.Ticks) {
		t.Fatalf("apply_ns histogram holds %d observations, want %d ticks", got, res.Ticks)
	}
	if got := snap.Counters["epoch.epochs_published"]; got != int64(res.Stats.Epochs) {
		t.Fatalf("epoch.epochs_published = %d, registry-backed Stats says %d", got, res.Stats.Epochs)
	}
	if got := snap.Gauges["core.concurrent.violations"]; got != 0 {
		t.Fatalf("violations gauge = %d, want 0", got)
	}
	if _, ok := snap.Histograms["epoch.validate_ns"]; !ok {
		t.Fatal("epoch.validate_ns span histogram missing from snapshot")
	}
}

// TestRunConcurrentBoundedLatencyPath forces the exact-sample cap down
// so the run overflows into the histogram percentile path end to end:
// the series must stay well-formed and the contract intact.
func TestRunConcurrentBoundedLatencyPath(t *testing.T) {
	restore := core.SetMaxExactLatSamples(16)
	defer restore()

	cfg := concurrentTestConfig()
	src, err := workload.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := newEpochGrid(cfg)
	res := core.RunConcurrent(x, src, core.ConcurrentOptions{Readers: 3})
	if res.Violations != 0 {
		t.Fatalf("%d violations on the histogram-percentile path", res.Violations)
	}
	if res.QueryP50 <= 0 || res.QueryP50 > res.QueryP95 || res.QueryP95 > res.QueryP99 {
		t.Fatalf("malformed latency series from histogram path: p50=%v p95=%v p99=%v",
			res.QueryP50, res.QueryP95, res.QueryP99)
	}
}

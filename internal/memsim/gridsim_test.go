package memsim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/workload"
)

func simTestConfig() workload.Config {
	cfg := workload.DefaultUniform()
	cfg.NumPoints = 1500
	cfg.Ticks = 4
	cfg.SpaceSize = 4000
	cfg.MaxSpeed = 60
	cfg.QuerySize = 200
	return cfg
}

func TestGridSimConfigValidation(t *testing.T) {
	bad := []GridSimConfig{
		{Kind: GridOriginal, BS: 0, CPS: 13},
		{Kind: GridOriginal, BS: 4, CPS: 0},
		{Kind: GridKind(7), BS: 4, CPS: 13},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := PaperBefore().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := PaperAfter().Validate(); err != nil {
		t.Fatal(err)
	}
	if PaperBefore().Kind.String() != "original" || PaperAfter().Kind.String() != "refactored" {
		t.Fatal("kind names wrong")
	}
}

func TestPaperConfigsMatchTunings(t *testing.T) {
	b, a := PaperBefore(), PaperAfter()
	if b.BS != 4 || b.CPS != 13 {
		t.Fatalf("before = %+v, want bs=4 cps=13", b)
	}
	if a.BS != 20 || a.CPS != 64 {
		t.Fatalf("after = %+v, want bs=20 cps=64", a)
	}
}

// TestSimulatedJoinMatchesRealGrid is the functional anchor of the whole
// simulation: the instrumented replay must compute the exact same join
// result (pair count) as the real grid implementation run by the real
// driver. If this holds, the simulated access trace corresponds to a
// correct execution, not an approximation of one.
func TestSimulatedJoinMatchesRealGrid(t *testing.T) {
	cfg := simTestConfig()
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		sim  GridSimConfig
		real grid.Config
	}{
		{PaperBefore(), grid.Original()},
		{PaperAfter(), grid.CPSTuned()},
		{GridSimConfig{Kind: GridRefactored, BS: 4, CPS: 13}, grid.Querying()},
	}
	for _, c := range cases {
		simRes, err := ProfileGrid(c.sim, trace, DefaultHierarchy(), 0)
		if err != nil {
			t.Fatal(err)
		}
		g := grid.MustNew(c.real, cfg.Bounds(), cfg.NumPoints)
		realRes := core.Run(g, workload.NewPlayer(trace), core.Options{})
		if simRes.Pairs != realRes.Pairs {
			t.Fatalf("%v/%s: simulated join found %d pairs, real grid %d",
				c.sim.Kind, c.real.DisplayName(), simRes.Pairs, realRes.Pairs)
		}
		if simRes.Queries != realRes.Queries || simRes.Updates != realRes.Updates {
			t.Fatalf("%v: query/update counts diverge", c.sim.Kind)
		}
	}
}

// TestSimulatedCellsMatchRealGrid holds the simulator's cell map to the
// real grid's: every point, including those within four ulps of a cell
// edge and those on or past the space's bound, lies in a simulated cell of
// the same occupancy as its real one. A map of its own (a per-cell product,
// say) moves points across edges whose width is not float32-exact.
func TestSimulatedCellsMatchRealGrid(t *testing.T) {
	for _, b := range []geom.Rect{{MaxX: 22000, MaxY: 22000}, {MinX: -1000, MinY: -1000, MaxX: 1000, MaxY: 1000}} {
		for _, cps := range []int{13, 48, 64} {
			var pts []geom.Point
			for c := 0; c <= cps; c++ {
				v := b.MinX + float32(c)*(b.Width()/float32(cps))
				for k := -4; k <= 4; k++ {
					u := v
					for i := 0; i < k; i++ {
						u = math.Nextafter32(u, float32(math.Inf(1)))
					}
					for i := 0; i > k; i-- {
						u = math.Nextafter32(u, float32(math.Inf(-1)))
					}
					pts = append(pts, geom.Pt(u, u), geom.Pt(u, b.MinY+b.Height()/3))
				}
			}
			h, err := NewHierarchy(DefaultHierarchy())
			if err != nil {
				t.Fatal(err)
			}
			sim := newSimGrid(GridSimConfig{Kind: GridRefactored, BS: 4, CPS: cps}, h, b, len(pts))
			counts := make([]int, cps*cps)
			for _, p := range pts {
				counts[sim.cellIndexFor(p)]++
			}
			g := grid.MustNew(grid.Config{Layout: grid.LayoutInline, Scan: grid.ScanRange, BS: 4, CPS: cps}, b, len(pts))
			g.Build(pts)
			for _, p := range pts {
				if got, want := counts[sim.cellIndexFor(p)], g.CellCount(p); got != want {
					t.Fatalf("%v cps=%d: %v lies in a simulated cell of %d entries, a real one of %d", b, cps, p, got, want)
				}
			}
		}
	}
}

func TestProfileBeforeVsAfterShape(t *testing.T) {
	// The Table 3 shape needs a working set larger than the simulated L2,
	// like the paper's 50K-point default: at toy sizes the original's
	// whole structure is cache-resident and its CPI is artificially low.
	// 20K points at the paper's density keep the node arena (~480 KiB)
	// beyond L2 while the test stays fast.
	cfg := workload.DefaultUniform()
	cfg.NumPoints = 20000
	cfg.SpaceSize = 14000
	cfg.Ticks = 2
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before, err := ProfileGrid(PaperBefore(), trace, DefaultHierarchy(), 0)
	if err != nil {
		t.Fatal(err)
	}
	after, err := ProfileGrid(PaperAfter(), trace, DefaultHierarchy(), 0)
	if err != nil {
		t.Fatal(err)
	}
	bp, ap := before.Profile, after.Profile
	if bp.Instructions < 2*ap.Instructions {
		t.Errorf("instructions: before %d, after %d — want >= 2x reduction",
			bp.Instructions, ap.Instructions)
	}
	if bp.L1Misses < 2*ap.L1Misses {
		t.Errorf("L1 misses: before %d, after %d — want >= 2x reduction",
			bp.L1Misses, ap.L1Misses)
	}
	if ap.CPI > bp.CPI*1.05 {
		t.Errorf("CPI regressed: before %.3f, after %.3f", bp.CPI, ap.CPI)
	}
}

func TestProfileTickCap(t *testing.T) {
	cfg := simTestConfig()
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	one, err := ProfileGrid(PaperAfter(), trace, DefaultHierarchy(), 1)
	if err != nil {
		t.Fatal(err)
	}
	all, err := ProfileGrid(PaperAfter(), trace, DefaultHierarchy(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if one.Profile.Instructions >= all.Profile.Instructions {
		t.Fatal("capping ticks must reduce instruction count")
	}
	if one.Queries == 0 || one.Queries >= all.Queries {
		t.Fatalf("tick cap not applied to queries: %d vs %d", one.Queries, all.Queries)
	}
}

func TestProfileRejectsBadConfig(t *testing.T) {
	cfg := simTestConfig()
	cfg.Ticks = 1
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ProfileGrid(GridSimConfig{BS: 0, CPS: 1}, trace, DefaultHierarchy(), 0); err == nil {
		t.Fatal("bad grid config accepted")
	}
	bad := DefaultHierarchy()
	bad.L1.SizeBytes = 7
	if _, err := ProfileGrid(PaperAfter(), trace, bad, 0); err == nil {
		t.Fatal("bad hierarchy accepted")
	}
}

func TestOriginalScansWholeDirectory(t *testing.T) {
	// The instruction gap between cps=13 full scan and cps=64 range scan
	// must reflect the directory scan: with queries much smaller than
	// cells, the original visits all cps^2 cells per query.
	cfg := simTestConfig()
	cfg.Ticks = 2
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ProfileGrid(GridSimConfig{Kind: GridOriginal, BS: 4, CPS: 30}, trace, DefaultHierarchy(), 0)
	if err != nil {
		t.Fatal(err)
	}
	small, err := ProfileGrid(GridSimConfig{Kind: GridOriginal, BS: 4, CPS: 5}, trace, DefaultHierarchy(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// 30x30=900 vs 5x5=25 cells: the per-query directory walk must make
	// the fine grid far more instruction-hungry under Algorithm 1.
	if full.Profile.Instructions < small.Profile.Instructions {
		t.Fatalf("full scan over 900 cells (%d ins) should cost more than over 25 (%d ins)",
			full.Profile.Instructions, small.Profile.Instructions)
	}
	if full.Pairs != small.Pairs {
		t.Fatal("grid granularity must not change the join result")
	}
}

func TestIntrusiveSimMatchesRealGrid(t *testing.T) {
	cfg := simTestConfig()
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := GridSimConfig{Kind: GridIntrusive, BS: 1, CPS: 64}
	simRes, err := ProfileGrid(sim, trace, DefaultHierarchy(), 0)
	if err != nil {
		t.Fatal(err)
	}
	gc := grid.CPSTuned()
	gc.Layout = grid.LayoutIntrusive
	g := grid.MustNew(gc, cfg.Bounds(), cfg.NumPoints)
	realRes := core.Run(g, workload.NewPlayer(trace), core.Options{})
	if simRes.Pairs != realRes.Pairs {
		t.Fatalf("intrusive sim found %d pairs, real grid %d", simRes.Pairs, realRes.Pairs)
	}
	if GridIntrusive.String() != "intrusive" {
		t.Fatal("kind name wrong")
	}
}

func TestIntrusiveSimUpdateCheaperThanOriginal(t *testing.T) {
	// The handle design's point: per-update memory traffic must be far
	// below the original's list search. Compare instruction counts of a
	// pure-update workload (no queries).
	cfg := simTestConfig()
	cfg.Queriers = 0
	cfg.Updaters = 1
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := ProfileGrid(GridSimConfig{Kind: GridOriginal, BS: 4, CPS: 13}, trace, DefaultHierarchy(), 0)
	if err != nil {
		t.Fatal(err)
	}
	intr, err := ProfileGrid(GridSimConfig{Kind: GridIntrusive, BS: 1, CPS: 13}, trace, DefaultHierarchy(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if intr.Profile.Instructions >= orig.Profile.Instructions {
		t.Fatalf("intrusive updates (%d ins) must beat list-search updates (%d ins)",
			intr.Profile.Instructions, orig.Profile.Instructions)
	}
}

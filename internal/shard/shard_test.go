package shard

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/faultutil"
	"repro/internal/geom"
	"repro/internal/workload"
	"repro/internal/xrand"
)

func testPointConfig() workload.Config {
	cfg := workload.DefaultUniform()
	cfg.NumPoints = 900
	cfg.Ticks = 8
	cfg.SpaceSize = 2000
	cfg.MaxSpeed = 120 // fast movers cross region borders often
	cfg.QuerySize = 260
	return cfg
}

func testBoxConfig() workload.BoxConfig {
	cfg := workload.DefaultUniformBoxes()
	cfg.NumPoints = 700
	cfg.Ticks = 8
	cfg.SpaceSize = 2000
	cfg.MaxSpeed = 100
	cfg.QuerySize = 200
	cfg.MinSide = 5
	cfg.MaxSide = 300 // extents wide enough to straddle several regions
	return cfg
}

func pointConfigs() map[string]workload.Config {
	uni := testPointConfig()
	gauss := testPointConfig()
	gauss.Kind = workload.Gaussian
	gauss.Hotspots = 5
	return map[string]workload.Config{"uniform": uni, "gauss": gauss}
}

// TestShardDigestMatrix is the acceptance-criterion matrix for the
// point engine: across shard counts (1, 4, 16 regions), workload kinds,
// and the sequential and parallel drivers, the sharded engine must
// produce the bit-identical (pairs, digest) join result as the
// brute-force oracle and the unsharded adaptive index.
func TestShardDigestMatrix(t *testing.T) {
	for kind, cfg := range pointConfigs() {
		p := core.Params{Bounds: cfg.Bounds(), NumPoints: cfg.NumPoints}
		ref := core.Run(core.NewBruteForce(), workload.MustNewGenerator(cfg), core.Options{})
		unsharded := core.Run(New(p, 1), workload.MustNewGenerator(cfg), core.Options{})
		if unsharded.Pairs != ref.Pairs || unsharded.Hash != ref.Hash {
			t.Fatalf("%s: unsharded (side=1) diverges from oracle: pairs %d vs %d hash %x vs %x",
				kind, unsharded.Pairs, ref.Pairs, unsharded.Hash, ref.Hash)
		}
		for _, side := range []int{2, 4} {
			seq := core.Run(New(p, side), workload.MustNewGenerator(cfg), core.Options{})
			par := core.RunParallel(New(p, side), workload.MustNewGenerator(cfg), core.Options{}, 4)
			for _, res := range []*core.Result{seq, par} {
				if res.Pairs != ref.Pairs || res.Hash != ref.Hash {
					t.Errorf("%s side=%d %s: pairs %d vs %d hash %x vs %x",
						kind, side, res.Technique, res.Pairs, ref.Pairs, res.Hash, ref.Hash)
				}
			}
		}
	}
}

// TestShardBoxDigestMatrix is TestShardDigestMatrix for the replicating
// box engine. Digest equality against the duplicate-free oracle also
// proves the boundary-ownership dedup emits exactly once per replica
// set.
func TestShardBoxDigestMatrix(t *testing.T) {
	cfg := testBoxConfig()
	p := core.Params{Bounds: cfg.Bounds(), NumPoints: cfg.NumPoints}
	ref := core.RunBoxes(core.NewBruteForceBoxes(), workload.MustNewBoxGenerator(cfg), core.Options{})
	for _, side := range []int{1, 2, 4} {
		seq := core.RunBoxes(NewBox(p, side), workload.MustNewBoxGenerator(cfg), core.Options{})
		par := core.RunBoxesParallel(NewBox(p, side), workload.MustNewBoxGenerator(cfg), core.Options{}, 4)
		for _, res := range []*core.Result{seq, par} {
			if res.Pairs != ref.Pairs || res.Hash != ref.Hash {
				t.Errorf("side=%d %s: pairs %d vs %d hash %x vs %x",
					side, res.Technique, res.Pairs, ref.Pairs, res.Hash, ref.Hash)
			}
		}
	}
}

// TestShardAutoMatchesOracle covers the auto path (shard count from the
// tune ladder) end to end through the factories the bench lineup
// registers.
func TestShardAutoMatchesOracle(t *testing.T) {
	cfg := testPointConfig()
	p := core.Params{Bounds: cfg.Bounds(), NumPoints: cfg.NumPoints}
	ref := core.Run(core.NewBruteForce(), workload.MustNewGenerator(cfg), core.Options{})
	res := core.Run(AutoFactory(p), workload.MustNewGenerator(cfg), core.Options{})
	if res.Pairs != ref.Pairs || res.Hash != ref.Hash {
		t.Fatalf("shard-auto diverges from oracle: pairs %d vs %d", res.Pairs, ref.Pairs)
	}
	bcfg := testBoxConfig()
	bp := core.Params{Bounds: bcfg.Bounds(), NumPoints: bcfg.NumPoints}
	bref := core.RunBoxes(core.NewBruteForceBoxes(), workload.MustNewBoxGenerator(bcfg), core.Options{})
	bres := core.RunBoxes(AutoBoxFactory(bp), workload.MustNewBoxGenerator(bcfg), core.Options{})
	if bres.Pairs != bref.Pairs || bres.Hash != bref.Hash {
		t.Fatalf("boxshard-auto diverges from oracle: pairs %d vs %d", bres.Pairs, bref.Pairs)
	}
	// An explicit Shards request must override the ladder.
	p.Shards = 2
	if x := NewAuto(p); x.Side() != 2 {
		t.Fatalf("Params.Shards=2 ignored: side=%d", x.Side())
	}
}

// pointService is sharded service mode over points, as spatialjoin
// -concurrent runs it: one epoch wrapper around side x side routers, one
// router per buffer, each appended to made when made is non-nil.
func pointService(p core.Params, side int, opts epoch.Options, made *[]*Index) *epoch.Index {
	return epoch.NewIndex(func() core.Index {
		x := New(p, side)
		if made != nil {
			*made = append(*made, x)
		}
		return x
	}, opts)
}

// boxService is pointService over MBRs.
func boxService(p core.Params, side int, opts epoch.Options, made *[]*BoxIndex) *epoch.BoxIndex {
	return epoch.NewBoxIndex(func() core.BoxIndex {
		x := NewBox(p, side)
		if made != nil {
			*made = append(*made, x)
		}
		return x
	}, opts)
}

// TestShardConcurrentSharded runs sharded service mode under the
// concurrent driver: overlapped queries and updates, every query's
// (epoch, digest) observation validated against the publish oracle. Any
// violation or failed tick is a bug.
func TestShardConcurrentSharded(t *testing.T) {
	for _, side := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("point-side=%d", side), func(t *testing.T) {
			cfg := testPointConfig()
			p := core.Params{Bounds: cfg.Bounds(), NumPoints: cfg.NumPoints, Shards: side}
			var made []*Index
			x := pointService(p, side, epoch.Options{}, &made)
			res := core.RunConcurrent(x, workload.MustNewGenerator(cfg), core.ConcurrentOptions{Readers: 3})
			if res.Violations != 0 {
				t.Fatalf("%d epoch violations", res.Violations)
			}
			if res.FailedTicks != 0 {
				t.Fatalf("%d failed ticks without fault injection", res.FailedTicks)
			}
			for _, r := range made {
				if len(r.regs) != side*side {
					t.Fatalf("%d regions, want %d", len(r.regs), side*side)
				}
			}
			if _, dg := x.Epoch(); dg == 0 {
				t.Fatal("live epoch digest is zero")
			}
		})
		t.Run(fmt.Sprintf("box-side=%d", side), func(t *testing.T) {
			cfg := testBoxConfig()
			p := core.Params{Bounds: cfg.Bounds(), NumPoints: cfg.NumPoints, Shards: side}
			x := boxService(p, side, epoch.Options{}, nil)
			res := core.RunBoxesConcurrent(x, workload.MustNewBoxGenerator(cfg), core.ConcurrentOptions{Readers: 3})
			if res.Violations != 0 {
				t.Fatalf("%d epoch violations", res.Violations)
			}
			if res.FailedTicks != 0 {
				t.Fatalf("%d failed ticks without fault injection", res.FailedTicks)
			}
		})
	}
}

// TestBoxServicePublishesEveryTick pins the box router's count to what
// the epoch wrapper's validator compares it with: Len counts each live
// object once, as the box grids and the box R-tree do, so one epoch
// around a box router publishes every tick. While Len counted replicas,
// every publish failed the cardinality check and none went out.
func TestBoxServicePublishesEveryTick(t *testing.T) {
	cfg := testBoxConfig()
	p := core.Params{Bounds: cfg.Bounds(), NumPoints: cfg.NumPoints}
	res := core.RunBoxesConcurrent(boxService(p, 2, epoch.Options{}, nil), workload.MustNewBoxGenerator(cfg),
		core.ConcurrentOptions{Readers: 2})
	if res.Stats.Epochs != uint64(cfg.Ticks) || res.FailedTicks != 0 || res.Stats.Retries != 0 || res.Violations != 0 {
		t.Fatalf("%d epochs over %d ticks: %d failed ticks, %d retries, %d violations",
			res.Stats.Epochs, cfg.Ticks, res.FailedTicks, res.Stats.Retries, res.Violations)
	}
	snap := workload.MustNewBoxGenerator(cfg).Rects(nil)
	x := NewBox(p, 2)
	x.Build(snap)
	if x.Len() != len(snap) {
		t.Fatalf("Len %d, snapshot has %d", x.Len(), len(snap))
	}
	if rf := x.ReplicationFactor(); rf <= 1 {
		t.Fatalf("replication factor %.3f: no MBR straddles a region border, the count is not tested", rf)
	}
}

// TestShardConcurrentCatchesUpByBuild checks that the epoch wrapper
// catches a router up by one build at any batch size, as it does any
// index: every object moving over one region, and one object in fifty
// over sixteen regions — a batch the static router would serve stale if
// it were handed the moves — both publish every tick on the first
// attempt and stay consistent.
func TestShardConcurrentCatchesUpByBuild(t *testing.T) {
	for _, tc := range []struct {
		name     string
		side     int
		updaters float64
	}{
		{"all-move-side=1", 1, 1},
		{"few-move-side=4", 4, 0.02},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testPointConfig()
			cfg.Updaters = tc.updaters
			p := core.Params{Bounds: cfg.Bounds(), NumPoints: cfg.NumPoints, Shards: tc.side}
			res := core.RunConcurrent(pointService(p, tc.side, epoch.Options{}, nil), workload.MustNewGenerator(cfg),
				core.ConcurrentOptions{Readers: 2})
			if res.Violations != 0 || res.FailedTicks != 0 || res.Stats.Degraded != 0 || res.Stats.Retries != 0 {
				t.Fatalf("%d violations, %d failed ticks, %d degraded, %d retries",
					res.Violations, res.FailedTicks, res.Stats.Degraded, res.Stats.Retries)
			}
		})
	}
}

// TestShardConcurrentContainsFaults proves the crash-containment story
// holds around a router: faults injected into the publish pipeline
// degrade ticks (carried batch, failed tick) while the last good epoch
// keeps serving and no consistency violation appears.
func TestShardConcurrentContainsFaults(t *testing.T) {
	cfg := testPointConfig()
	p := core.Params{Bounds: cfg.Bounds(), NumPoints: cfg.NumPoints, Shards: 2}
	x := pointService(p, 2, epoch.Options{
		Injector:   faultutil.MustNew(7, "apply:panic*2, build:panic*2"),
		MaxRetries: 1,
	}, nil)
	res := core.RunConcurrent(x, workload.MustNewGenerator(cfg), core.ConcurrentOptions{Readers: 2})
	if res.Violations != 0 {
		t.Fatalf("%d violations under fault injection — degraded ticks must still be consistent", res.Violations)
	}
	if res.FailedTicks == 0 {
		t.Fatal("injector armed but no tick failed; containment path untested")
	}
	if s := x.Stats(); s.Degraded == 0 {
		t.Fatalf("no degradation recorded: %+v", s)
	}
}

// TestBoundaryStraddlingExactlyOnce is the boundary property test:
// objects and query windows placed EXACTLY on region borders (the
// worst case for ownership and dedup) must each be reported exactly
// once per matching query, for both engines, at several shard counts.
func TestBoundaryStraddlingExactlyOnce(t *testing.T) {
	const space = 1024
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: space, MaxY: space}
	for _, side := range []int{2, 4} {
		step := float32(space) / float32(side)
		// Points on every border intersection, border midline, and a few
		// interior spots; some exactly on the outer edge.
		clamp := func(v float32) float32 {
			if v > space {
				return space
			}
			return v
		}
		var pts []geom.Point
		for i := 0; i <= side; i++ {
			for j := 0; j <= side; j++ {
				pts = append(pts,
					geom.Point{X: clamp(float32(i) * step), Y: clamp(float32(j) * step)},
					geom.Point{X: clamp(float32(i) * step), Y: clamp(float32(j)*step + step/2)},
					geom.Point{X: clamp(float32(i)*step + step/3), Y: clamp(float32(j) * step)})
			}
		}
		// Query windows centred on borders and corners, spanning 2 and 4
		// regions, plus one covering everything.
		var queries []geom.Rect
		for i := 1; i < side; i++ {
			c := float32(i) * step
			queries = append(queries,
				geom.Rect{MinX: c - 10, MinY: 0, MaxX: c + 10, MaxY: space},
				geom.Rect{MinX: 0, MinY: c - 10, MaxX: space, MaxY: c + 10},
				geom.Rect{MinX: c - step/2, MinY: c - step/2, MaxX: c + step/2, MaxY: c + step/2},
				geom.Rect{MinX: c, MinY: c, MaxX: c, MaxY: c}) // degenerate: exactly the corner
		}
		queries = append(queries, bounds)

		t.Run(fmt.Sprintf("point-side=%d", side), func(t *testing.T) {
			x := New(core.Params{Bounds: bounds, NumPoints: len(pts)}, side)
			x.Build(pts)
			brute := core.NewBruteForce()
			brute.Build(pts)
			assertSameEmissions(t, queries, x.Query, brute.Query)
		})
		t.Run(fmt.Sprintf("box-side=%d", side), func(t *testing.T) {
			// Boxes centred on borders/corners so every replica set
			// straddles regions; some span a full region row.
			var rects []geom.Rect
			for _, p := range pts {
				rects = append(rects,
					geom.Rect{MinX: p.X - 20, MinY: p.Y - 20, MaxX: p.X + 20, MaxY: p.Y + 20},
					geom.Rect{MinX: p.X - step, MinY: p.Y - 5, MaxX: p.X + step, MaxY: p.Y + 5})
			}
			x := NewBox(core.Params{Bounds: bounds, NumPoints: len(rects)}, side)
			x.Build(rects)
			brute := core.NewBruteForceBoxes()
			brute.Build(rects)
			assertSameEmissions(t, queries, x.Query, brute.Query)
		})
	}
}

// assertSameEmissions checks that got emits exactly the same id multiset
// as want for every query — same membership AND no duplicates.
func assertSameEmissions(t *testing.T, queries []geom.Rect, got, want func(geom.Rect, func(uint32))) {
	t.Helper()
	for qi, q := range queries {
		counts := map[uint32]int{}
		got(q, func(id uint32) { counts[id]++ })
		wantSet := map[uint32]bool{}
		want(q, func(id uint32) { wantSet[id] = true })
		for id, c := range counts {
			if c != 1 {
				t.Errorf("query %d %v: id %d emitted %d times", qi, q, id, c)
			}
			if !wantSet[id] {
				t.Errorf("query %d %v: id %d emitted but not a match", qi, q, id)
			}
		}
		for id := range wantSet {
			if counts[id] == 0 {
				t.Errorf("query %d %v: id %d missing", qi, q, id)
			}
		}
	}
}

// TestShardMigrationAndGrowth moves every object across region borders
// repeatedly and rebuilds — herding the population into one corner
// region and scattering it again, so that region's arena grows far past
// its first build — checking invariants and query equivalence
// throughout.
func TestShardMigrationAndGrowth(t *testing.T) {
	const space = 800
	bounds := geom.Rect{MinX: 0, MinY: 0, MaxX: space, MaxY: space}
	n := 300
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float32(i%20) * 40, Y: float32(i/20) * 40}
	}
	x := New(core.Params{Bounds: bounds, NumPoints: n}, 4)
	x.Build(pts)
	brute := core.NewBruteForce()

	shift := func(p geom.Point, dx, dy float32) geom.Point {
		q := geom.Point{X: p.X + dx, Y: p.Y + dy}
		if q.X < 0 {
			q.X += space
		}
		if q.X >= space {
			q.X -= space
		}
		if q.Y < 0 {
			q.Y += space
		}
		if q.Y >= space {
			q.Y -= space
		}
		return q
	}
	for round := 0; round < 6; round++ {
		// Herd everything toward one corner region, then scatter.
		for i := range pts {
			if round%2 == 0 {
				pts[i] = geom.Point{X: float32(i%17) * 3, Y: float32(i/17) * 3}
			} else {
				pts[i] = shift(pts[i], float32(round*97%space), float32(round*53%space))
			}
		}
		x.Build(pts)
		if err := x.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := x.Len(); got != n {
			t.Fatalf("round %d: Len=%d want %d", round, got, n)
		}
		brute.Build(pts)
		assertSameEmissions(t, []geom.Rect{
			{MinX: 0, MinY: 0, MaxX: 60, MaxY: 60},
			{MinX: 150, MinY: 150, MaxX: 450, MaxY: 450},
			bounds,
		}, x.Query, brute.Query)
	}
}

// TestShardConcurrentNoSpuriousDegradation pins the clean-run contract
// at the scale where it used to break: with no injector armed, a
// degraded tick or a retry means some layer under the epoch validator
// answered a membership probe wrongly. It did — grid.Grid's cell-edge
// tables disagreed with its cell mapper by an ulp at cps=48 (what tune
// picks for a quarter of this space), and the validator's degenerate
// probe of a point within an ulp of an edge missed it on tick 209.
func TestShardConcurrentNoSpuriousDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("600 ticks over 20000 points")
	}
	cfg := workload.DefaultUniform()
	cfg.NumPoints = 20000
	cfg.Ticks = 600
	p := core.ParamsFor(cfg)
	p.Shards = 2
	res := core.RunConcurrent(pointService(p, 2, epoch.Options{}, nil), workload.MustNewGenerator(cfg), core.ConcurrentOptions{Readers: 1})
	if res.Stats.Degraded != 0 || res.Stats.Retries != 0 || res.FailedTicks != 0 || res.Violations != 0 {
		t.Fatalf("clean run: %d degraded ticks, %d retries, %d failed ticks, %d violations",
			res.Stats.Degraded, res.Stats.Retries, res.FailedTicks, res.Violations)
	}
}

// TestPointIsDegenerateBox is the metamorphic check that the shared
// router treats points as the one-replica class of boxes: zero-extent
// MBRs through BoxIndex must report exactly what the same positions
// report through Index, at every shard count, tick after tick of moves,
// through Build and through BuildParallel.
func TestPointIsDegenerateBox(t *testing.T) {
	cfg := testPointConfig()
	p := core.Params{Bounds: cfg.Bounds(), NumPoints: cfg.NumPoints}
	for _, side := range []int{1, 2, 4} {
		for _, workers := range []int{0, 1, 4} { // 0: Build, else BuildParallel
			t.Run(fmt.Sprintf("side=%d/workers=%d", side, workers), func(t *testing.T) {
				src := workload.MustNewGenerator(cfg)
				pts := src.Positions(nil)
				rects := make([]geom.Rect, len(pts))
				for i, pt := range pts {
					rects[i] = pt.Rect()
				}
				px, bx := New(p, side), NewBox(p, side)
				for tick := 0; tick < 4; tick++ {
					if workers == 0 {
						px.Build(pts)
						bx.Build(rects)
					} else {
						px.BuildParallel(pts, workers)
						bx.BuildParallel(rects, workers)
					}
					queries := queryRects(src.Queriers(), src.QueryRect)
					assertSameEmissions(t, queries, bx.Query, px.Query)
					assertMatchesOracle(t, "degenerate boxes", px.QueryAppend, bx.QueryAppend, queries)
					ups := src.Updates()
					for _, u := range ups {
						pts[u.ID] = u.Pos
						rects[u.ID] = u.Pos.Rect()
					}
					src.ApplyUpdates(ups)
					if err := bx.CheckInvariants(); err != nil {
						t.Fatalf("tick %d: %v", tick, err)
					}
					if px.Len() != bx.Len() {
						t.Fatalf("tick %d: %d points but %d zero-extent replicas", tick, px.Len(), bx.Len())
					}
				}
			})
		}
	}
}

// TestBuildParallelIsBuildOnDegenerateInputs holds the router's sharded
// build to its sequential one on the populations where sharding changes
// shape: empty and single-object builds, both sides of the grids'
// sharded-build gate (4096) and of the router's parallel routing (8192),
// each spread over the space and crowded into one cell of one region, at
// more workers than objects too. Both builds must answer every query in
// the same order, agree with brute force, and pass the audit.
func TestBuildParallelIsBuildOnDegenerateInputs(t *testing.T) {
	bounds := geom.R(0, 0, 2000, 2000)
	rng := xrand.New(9)
	for _, n := range []int{0, 1, 4095, 4096, 4097, 8191, 8192, 8193} {
		for _, oneCell := range []bool{false, true} {
			space := bounds
			if oneCell {
				space = geom.R(1, 1, 3, 3)
			}
			pts := make([]geom.Point, n)
			rects := make([]geom.Rect, n)
			for i := range pts {
				pts[i] = geom.Pt(rng.Range(space.MinX, space.MaxX), rng.Range(space.MinY, space.MaxY))
				rects[i] = geom.Square(pts[i], rng.Range(0, space.Width()/8))
			}
			queries := []geom.Rect{bounds, geom.R(0, 0, 4, 4), geom.R(990, 990, 1010, 1010)}
			for i := 0; i < 12; i++ {
				queries = append(queries, geom.Square(geom.Pt(rng.Range(0, 2000), rng.Range(0, 2000)), rng.Range(1, 700)))
			}
			pointOracle, boxOracle := core.NewBruteForce(), core.NewBruteForceBoxes()
			pointOracle.Build(pts)
			boxOracle.Build(rects)
			p := core.Params{Bounds: bounds, NumPoints: n}
			px, bx := New(p, 2), NewBox(p, 2)
			px.Build(pts)
			bx.Build(rects)
			for _, workers := range []int{1, 2, 8} {
				name := fmt.Sprintf("n=%d/one-cell=%v/workers=%d", n, oneCell, workers)
				ppar, bpar := New(p, 2), NewBox(p, 2)
				ppar.BuildParallel(pts, workers)
				bpar.BuildParallel(rects, workers)
				assertSameAnswers(t, name+"/points", queries, px.QueryAppend, ppar.QueryAppend)
				assertSameAnswers(t, name+"/boxes", queries, bx.QueryAppend, bpar.QueryAppend)
				assertMatchesOracle(t, name+"/points", pointOracle.QueryAppend, ppar.QueryAppend, queries)
				assertMatchesOracle(t, name+"/boxes", boxOracle.QueryAppend, bpar.QueryAppend, queries)
				for _, ic := range []core.InvariantChecker{ppar, bpar} {
					if err := ic.CheckInvariants(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}
		}
	}
}

// assertSameAnswers demands that got answer every query with want's IDs
// in want's order.
func assertSameAnswers(t *testing.T, name string, queries []geom.Rect, want, got func(geom.Rect, []uint32) []uint32) {
	t.Helper()
	var w, g []uint32
	for _, q := range queries {
		w, g = want(q, w[:0]), got(q, g[:0])
		if !slices.Equal(g, w) {
			t.Fatalf("%s query %v: %d ids, Build's answer has %d (or another order)", name, q, len(g), len(w))
		}
	}
}

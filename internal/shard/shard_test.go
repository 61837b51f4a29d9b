package shard

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/faultutil"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/workload"
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

// TestShardConcurrentSharded runs the per-shard epoch composition under
// the sharded concurrent driver: overlapped queries and updates, every
// query's per-shard (epoch, digest) observations validated against
// per-shard publish oracles. Any violation or failed tick is a bug.
func TestShardConcurrentSharded(t *testing.T) {
	for _, side := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("point-side=%d", side), func(t *testing.T) {
			cfg := testPointConfig()
			p := core.Params{Bounds: cfg.Bounds(), NumPoints: cfg.NumPoints, Shards: side}
			x := NewConcurrent(p, epoch.Options{})
			res := core.RunConcurrentSharded(x, workload.MustNewGenerator(cfg), core.ConcurrentOptions{Readers: 3})
			if res.Violations != 0 {
				t.Fatalf("%d per-shard epoch violations", res.Violations)
			}
			if res.FailedTicks != 0 {
				t.Fatalf("%d failed ticks without fault injection", res.FailedTicks)
			}
			if x.NumShards() != side*side {
				t.Fatalf("NumShards=%d want %d", x.NumShards(), side*side)
			}
			if x.Composite() == 0 {
				t.Fatal("composite digest is zero")
			}
		})
		t.Run(fmt.Sprintf("box-side=%d", side), func(t *testing.T) {
			cfg := testBoxConfig()
			p := core.Params{Bounds: cfg.Bounds(), NumPoints: cfg.NumPoints, Shards: side}
			x := NewBoxConcurrent(p, epoch.Options{})
			res := core.RunBoxesConcurrentSharded(x, workload.MustNewBoxGenerator(cfg), core.ConcurrentOptions{Readers: 3})
			if res.Violations != 0 {
				t.Fatalf("%d per-shard epoch violations", res.Violations)
			}
			if res.FailedTicks != 0 {
				t.Fatalf("%d failed ticks without fault injection", res.FailedTicks)
			}
		})
	}
}

// TestShardConcurrentInheritsApplyPaths checks that every region's
// epoch wrapper picks its own apply path from its routed share of the
// full snapshot: one region with every object updating rebuilds in
// bulk, sixteen regions with one object in fifty updating replay, and
// both stay consistent under the per-shard oracles.
func TestShardConcurrentInheritsApplyPaths(t *testing.T) {
	for _, tc := range []struct {
		name     string
		side     int
		updaters float64
		bulk     bool
	}{
		{"bulk", 1, 1, true},
		{"replay", 4, 0.02, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testPointConfig()
			cfg.Updaters = tc.updaters
			p := core.Params{Bounds: cfg.Bounds(), NumPoints: cfg.NumPoints, Shards: tc.side}
			reg := obs.New()
			res := core.RunConcurrentSharded(NewConcurrent(p, epoch.Options{}), workload.MustNewGenerator(cfg),
				core.ConcurrentOptions{Readers: 2, Obs: reg})
			if res.Violations != 0 || res.FailedTicks != 0 {
				t.Fatalf("%d violations, %d failed ticks", res.Violations, res.FailedTicks)
			}
			bulk, replay := reg.Counter("epoch.apply_bulk").Value(), reg.Counter("epoch.apply_replay").Value()
			if tc.bulk && (bulk == 0 || replay > 1) || !tc.bulk && (bulk != 0 || replay == 0) {
				t.Fatalf("%d bulk and %d replay applies, want bulk=%v", bulk, replay, tc.bulk)
			}
		})
	}
}

// TestShardConcurrentContainsFaults proves the crash-containment story
// composes: a fault injected into ONE region's publish pipeline degrades
// that shard (carried batch, failed tick) while the composition keeps
// serving and no per-shard consistency violation appears.
func TestShardConcurrentContainsFaults(t *testing.T) {
	cfg := testPointConfig()
	p := core.Params{Bounds: cfg.Bounds(), NumPoints: cfg.NumPoints, Shards: 2}
	x := NewConcurrent(p, epoch.Options{
		Injector:   faultutil.MustNew(7, "apply:panic*2, build:panic*2"),
		MaxRetries: 1,
	})
	res := core.RunConcurrentSharded(x, workload.MustNewGenerator(cfg), core.ConcurrentOptions{Readers: 2})
	if res.Violations != 0 {
		t.Fatalf("%d violations under fault injection — degraded shards must still be consistent", res.Violations)
	}
	if res.FailedTicks == 0 {
		t.Fatal("injector armed but no tick failed; containment path untested")
	}
	if s := x.Stats(); s.Degraded == 0 {
		t.Fatalf("no shard recorded degradation: %+v", s)
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

// TestShardMigrationAndGrowth drives every object across region borders
// repeatedly — far more immigration than the build-time slack — to
// force region-local arena growth, checking invariants and query
// equivalence throughout.
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
		// Herd everything toward one corner region, then scatter — the
		// corner region's arena must grow past its slack.
		for i := range pts {
			var next geom.Point
			if round%2 == 0 {
				next = geom.Point{X: float32(i%17) * 3, Y: float32(i/17) * 3}
			} else {
				next = shift(pts[i], float32(round*97%space), float32(round*53%space))
			}
			x.Update(uint32(i), pts[i], next)
			pts[i] = next
		}
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

// TestShardBatchMatchesSequential proves UpdateBatch (parallel,
// two-phase routed) is indistinguishable from per-move Update calls.
func TestShardBatchMatchesSequential(t *testing.T) {
	cfg := testPointConfig()
	p := core.Params{Bounds: cfg.Bounds(), NumPoints: cfg.NumPoints}
	src := workload.MustNewGenerator(cfg)
	pts := make([]geom.Point, cfg.NumPoints)
	for i, o := range src.Objects() {
		pts[i] = o.Pos
	}
	a := New(p, 4)
	b := New(p, 4)
	a.Build(pts)
	b.Build(pts)
	if !a.CanBatchUpdates(100) {
		t.Fatal("sharded engine should take the batch path")
	}
	for tick := 0; tick < 5; tick++ {
		ups := src.Updates()
		moves := make([]geom.Move, len(ups))
		for i, u := range ups {
			moves[i] = geom.Move{ID: u.ID, Old: pts[u.ID], New: u.Pos}
		}
		for _, m := range moves {
			a.Update(m.ID, m.Old, m.New)
		}
		b.UpdateBatch(moves, 4)
		src.ApplyUpdates(ups)
		for _, u := range ups {
			pts[u.ID] = u.Pos
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		assertSameEmissions(t, []geom.Rect{
			{MinX: 100, MinY: 100, MaxX: 700, MaxY: 700},
			cfg.Bounds(),
		}, b.Query, a.Query)
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
	x := NewConcurrent(p, epoch.Options{})
	res := core.RunConcurrentSharded(x, workload.MustNewGenerator(cfg), core.ConcurrentOptions{Readers: 1})
	if res.Stats.Degraded != 0 || res.Stats.Retries != 0 || res.FailedTicks != 0 || res.Violations != 0 {
		t.Fatalf("clean run: %d degraded ticks, %d retries, %d failed ticks, %d violations",
			res.Stats.Degraded, res.Stats.Retries, res.FailedTicks, res.Violations)
	}
}

// TestSingleEpochIsOnePublication runs one stream through the two
// binders of the one concurrent loop — a single epoch.Index (publication
// 0) and a one-region shard.Concurrent (one publication per shard, of
// which there is one) — and demands the same accounting from both, clean
// and with one tick's retries exhausted: the batch is carried, every
// publication's oracle is recorded after every tick including the failed
// one, and both finish consistent.
func TestSingleEpochIsOnePublication(t *testing.T) {
	cfg := testPointConfig()
	p := core.Params{Bounds: cfg.Bounds(), NumPoints: cfg.NumPoints, Shards: 1}
	for _, tc := range []struct {
		name   string
		faults string
		failed int
	}{
		{"clean", "", 0},
		{"exhausted", "apply:panic*1, build:panic*2", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := func() epoch.Options {
				if tc.faults == "" {
					return epoch.Options{}
				}
				return epoch.Options{Injector: faultutil.MustNew(5, tc.faults), MaxRetries: 1}
			}
			single := core.RunConcurrent(
				epoch.NewIndex(func() core.Index { return grid.MustNew(grid.CSR(), cfg.Bounds(), cfg.NumPoints) }, opts()),
				workload.MustNewGenerator(cfg), core.ConcurrentOptions{Readers: 2})
			sharded := core.RunConcurrentSharded(NewConcurrent(p, opts()),
				workload.MustNewGenerator(cfg), core.ConcurrentOptions{Readers: 2})
			for _, res := range []*core.ConcurrentResult{single, sharded} {
				if res.Violations != 0 {
					t.Errorf("%s: %d violations", res.Technique, res.Violations)
				}
				if res.FailedTicks != tc.failed {
					t.Errorf("%s: %d failed ticks, want %d", res.Technique, res.FailedTicks, tc.failed)
				}
				if got, want := res.Stats.Epochs+uint64(res.FailedTicks), uint64(cfg.Ticks); got != want {
					t.Errorf("%s: %d epochs + %d failed ticks, want %d ticks (the failed batch was not carried)",
						res.Technique, res.Stats.Epochs, res.FailedTicks, want)
				}
			}
			if single.Queries != sharded.Queries || single.Updates != sharded.Updates {
				t.Errorf("single %d queries / %d updates, one-region sharded %d / %d",
					single.Queries, single.Updates, sharded.Queries, sharded.Updates)
			}
		})
	}
}

// TestPointIsDegenerateBox is the metamorphic check that the shared
// router treats points as the one-replica class of boxes: zero-extent
// MBRs through BoxIndex must report exactly what the same positions
// report through Index, at every shard count, whether the moves arrive
// one by one or as a routed batch.
func TestPointIsDegenerateBox(t *testing.T) {
	cfg := testPointConfig()
	p := core.Params{Bounds: cfg.Bounds(), NumPoints: cfg.NumPoints}
	for _, side := range []int{1, 2, 4} {
		for _, workers := range []int{0, 1, 4} { // 0: per-move Update
			t.Run(fmt.Sprintf("side=%d/workers=%d", side, workers), func(t *testing.T) {
				src := workload.MustNewGenerator(cfg)
				pts := src.Positions(nil)
				rects := make([]geom.Rect, len(pts))
				for i, pt := range pts {
					rects[i] = pt.Rect()
				}
				px, bx := New(p, side), NewBox(p, side)
				px.Build(pts)
				bx.Build(rects)
				for tick := 0; tick < 4; tick++ {
					queries := queryRects(src.Queriers(), src.QueryRect)
					assertSameEmissions(t, queries, bx.Query, px.Query)
					assertKernelsAgree(t, "degenerate boxes", px.Query, bx.QueryAppend, queries)
					ups := src.Updates()
					moves := make([]geom.Move, len(ups))
					boxMoves := make([]geom.BoxMove, len(ups))
					for i, u := range ups {
						moves[i] = geom.Move{ID: u.ID, Old: pts[u.ID], New: u.Pos}
						boxMoves[i] = geom.BoxMove{ID: u.ID, Old: pts[u.ID].Rect(), New: u.Pos.Rect()}
						pts[u.ID] = u.Pos
					}
					if workers > 0 {
						px.UpdateBatch(moves, workers)
						bx.UpdateBatch(boxMoves, workers)
					} else {
						for i := range moves {
							px.Update(moves[i].ID, moves[i].Old, moves[i].New)
							bx.Update(boxMoves[i].ID, boxMoves[i].Old, boxMoves[i].New)
						}
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

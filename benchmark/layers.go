package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/binsearch"
	"repro/internal/core"
	"repro/internal/crtree"
	"repro/internal/epoch"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/kdtrie"
	"repro/internal/obs"
	"repro/internal/rtree"
	"repro/internal/shard"
	"repro/internal/tune"
	"repro/internal/workload"
)

// This file is the per-layer ladder: each layer's public functions are
// called directly, from outside, on the workload's own state at the
// first measured tick — that tick's snapshot, its query rectangles and
// its move batch — and timed as the minimum over interleaved rounds.
// Layers the workload's geometry does not reach are measured on its
// twin (same centres, other geometry), so every traced run reports every
// layer.

const (
	ladderRounds  = 7  // recorded rounds per ladder entry, after one that warms the arenas
	baselineWarm  = 2  // warm-up ticks of a paper-baseline driver run
	baselineTicks = 10 // measured ticks of a paper-baseline driver run
	probeTicks    = 20 // measured ticks of the short driver probes (parallel, shard, obs, epoch)
	probePairs    = 3  // instrumented/plain pairs behind obs.overhead_pct
)

// state is a workload's population at its first measured tick in both
// geometries, with that tick's queries and moves.
type state struct {
	pts      []geom.Point
	rects    []geom.Rect
	queries  []geom.Rect
	moves    []geom.Move
	boxMoves []geom.BoxMove
}

// stateAt replays both twins up to the first measured tick.
func stateAt(points *workload.Trace, boxes *boxTrace, warm int) *state {
	idle := newTickLog(0, warm)
	pr := newPointReplay(points, idle)
	br := newBoxReplay(boxes, idle)
	for t := 0; t < warm; t++ {
		pr.ApplyUpdates(pr.Updates())
		br.ApplyUpdates(br.Updates())
	}
	st := &state{
		pts:   make([]geom.Point, len(pr.Objects())),
		rects: make([]geom.Rect, br.NumBoxes()),
	}
	for i, o := range pr.Objects() {
		st.pts[i] = o.Pos
	}
	br.RefreshRects(st.rects, 0, len(st.rects))
	for _, q := range pr.Queriers() {
		st.queries = append(st.queries, pr.QueryRect(q))
	}
	for _, u := range pr.Updates() {
		st.moves = append(st.moves, geom.Move{ID: u.ID, Old: st.pts[u.ID], New: u.Pos})
	}
	for _, u := range br.Updates() {
		st.boxMoves = append(st.boxMoves, geom.BoxMove{ID: u.ID, Old: st.rects[u.ID], New: u.Rect})
	}
	return st
}

// rung is one index under the ladder: closures over its public calls and
// the samples they produced.
type rung struct {
	name    string
	objects int
	nMoves  int
	build   func()
	query   func(r geom.Rect, buf []uint32) []uint32
	update  func() // applies the whole move batch
	// emit and batch are the other two query kernels, timed only on the
	// rungs the ladder reports them for (otherKernels).
	emit         func(r geom.Rect, emit func(id uint32))
	batch        func(rects []geom.Rect, offsets, buf []uint32) ([]uint32, []uint32)
	otherKernels bool
	bytes        func() int64
	err          error // first failure of a call that can fail (ApplyBatch)

	buildUs, queryNs, updateNs sample
	emitNs, batchNs            sample
	tickUs                     sample // build + every query + every move: one tick's worth of index work
	results                    int64  // matches over the tick's queries
}

func memoryOf(idx any) func() int64 {
	if m, ok := idx.(core.MemoryReporter); ok {
		return m.MemoryBytes
	}
	return func() int64 { return 0 }
}

func pointRung(name string, idx core.Index, st *state) *rung {
	return &rung{
		name: name, objects: len(st.pts), nMoves: len(st.moves),
		build: func() { idx.Build(st.pts) },
		query: core.QueryAppendOf(idx, idx.Query),
		update: func() {
			for _, m := range st.moves {
				idx.Update(m.ID, m.Old, m.New)
			}
		},
		emit:  idx.Query,
		batch: core.QueryBatchOf(idx, idx.Query),
		bytes: memoryOf(idx),
	}
}

func boxRung(name string, idx core.BoxIndex, st *state) *rung {
	return &rung{
		name: name, objects: len(st.rects), nMoves: len(st.boxMoves),
		build: func() { idx.Build(st.rects) },
		query: core.QueryAppendOf(idx, idx.Query),
		update: func() {
			for _, m := range st.boxMoves {
				idx.Update(m.ID, m.Old, m.New)
			}
		},
		emit:  idx.Query,
		batch: core.QueryBatchOf(idx, idx.Query),
		bytes: memoryOf(idx),
	}
}

func epochRung(name string, x *epoch.Index, st *state) *rung {
	g := &rung{
		name: name, objects: len(st.pts), nMoves: len(st.moves),
		build: func() { x.Build(st.pts) },
		query: func(r geom.Rect, buf []uint32) []uint32 {
			buf, _, _ = x.QueryAppend(r, buf)
			return buf
		},
		bytes: func() int64 { return 0 },
	}
	g.update = func() {
		if _, err := x.ApplyBatch(st.moves); err != nil && g.err == nil {
			g.err = fmt.Errorf("ApplyBatch: %w", err)
		}
	}
	return g
}

// climb measures every rung over interleaved rounds: a burst on the host
// costs each rung one round, and the minimum drops it for all alike.
func climb(rungs []*rung, queries []geom.Rect) {
	var buf, offsets []uint32
	per := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	for round := 0; round <= ladderRounds; round++ {
		for _, g := range rungs {
			t0 := time.Now()
			g.build()
			build := time.Since(t0)

			var n int64
			t0 = time.Now()
			for _, q := range queries {
				buf = g.query(q, buf[:0])
				n += int64(len(buf))
			}
			query := time.Since(t0)
			g.results = n

			var emitD, batchD time.Duration
			if g.otherKernels {
				var emitted int64
				count := func(uint32) { emitted++ }
				t0 = time.Now()
				for _, q := range queries {
					g.emit(q, count)
				}
				emitD = time.Since(t0)
				t0 = time.Now()
				offsets, buf = g.batch(queries, offsets, buf)
				batchD = time.Since(t0)
				if emitted != n || int64(len(buf)) != n {
					g.err = fmt.Errorf("append kernel found %d matches, emit %d, batch %d", n, emitted, len(buf))
				}
			}

			t0 = time.Now()
			g.update()
			update := time.Since(t0)

			if round == 0 {
				continue
			}
			g.buildUs.add(float64(build.Nanoseconds()) / 1e3)
			g.queryNs.add(per(query, len(queries)))
			g.updateNs.add(per(update, g.nMoves))
			g.tickUs.add(float64((build + query + update).Nanoseconds()) / 1e3)
			if g.otherKernels {
				g.emitNs.add(per(emitD, len(queries)))
				g.batchNs.add(per(batchD, len(queries)))
			}
		}
	}
}

// layerPass runs the ladder and the short driver probes for one
// workload and files their metrics.
func (r *run) layerPass(out *metricSet) error {
	s := r.spec
	// Record the twin of the other geometry: a short stream, as the
	// ladder reads one tick of it and the probes a few dozen.
	twinTicks := s.warm + probeTicks + 1
	start := time.Now()
	if r.points == nil {
		t, err := workload.Record(s.seeded(r.seed, twinTicks).Config)
		if err != nil {
			return fmt.Errorf("record point twin: %w", err)
		}
		r.points = t
	}
	if r.boxes == nil {
		t, err := recordBoxes(s.seeded(r.seed, twinTicks))
		if err != nil {
			return fmt.Errorf("record box twin: %w", err)
		}
		r.boxes = t
	}
	twinS := time.Since(start).Seconds()
	out.set("workload.record_s", r.recordS+twinS, 1)
	out.set("workload.trace_mb", r.traceMB, 1)

	st := stateAt(r.points, r.boxes, s.warm)
	p := r.params

	// The tuner's own decisions on this state, bare: the same kernels
	// the wrappers run, without the wrappers.
	probe := tune.NewAuto(p)
	probe.Build(st.pts)
	choice, _ := probe.Choice()

	ep := epochRung("epoch", epoch.NewIndex(func() core.Index { return tune.AutoFactory(p) }, epoch.Options{}), st)
	csr := pointRung("grid.csr", grid.MustNew(grid.CSR(), p.Bounds, p.NumPoints), st)
	csr.otherKernels = true
	point := []*rung{
		csr,
		pointRung("grid.csrxy", grid.MustNew(grid.CSRXY(), p.Bounds, p.NumPoints), st),
		pointRung("grid.inline", grid.MustNew(grid.CPSTuned(), p.Bounds, p.NumPoints), st),
		pointRung("rtree.point", rtree.MustNew(rtree.DefaultFanout), st),
		pointRung("tune.auto", tune.NewAuto(p), st),
		pointRung("tune.bare", choice.NewPointIndex(p), st),
		ep,
		pointRung("shard.1x1", shard.New(p, 1), st),
	}
	box2lGrid := grid.MustNewBoxGrid2L(grid.DefaultBoxCPS, p.Bounds, p.NumPoints)
	box2l := boxRung("grid.box2l", box2lGrid, st)
	box2l.otherKernels = true
	box := []*rung{
		box2l,
		boxRung("grid.boxcsr", grid.MustNewBoxGrid(grid.DefaultBoxCPS, p.Bounds, p.NumPoints), st),
		boxRung("rtree.box", rtree.MustNewBoxTree(rtree.DefaultFanout), st),
	}
	if s.kind == seqBox {
		boxProbe := tune.NewAutoBox(p)
		boxProbe.Build(st.rects)
		boxChoice, _ := boxProbe.Choice()
		box = append(box,
			boxRung("tune.boxauto", tune.NewAutoBox(p), st),
			boxRung("tune.boxbare", boxChoice.NewBoxIndex(p), st))
	}
	climb(append(point, box...), st.queries)

	// Every family must have found the same matches on the same queries,
	// through every kernel timed.
	r.attempted += len(point) + len(box)
	for _, group := range [][]*rung{point, box} {
		for _, g := range group {
			if g.err != nil {
				r.fail(1, fmt.Sprintf("ladder: %s: %v", g.name, g.err))
			} else if g.results != group[0].results {
				r.fail(1, fmt.Sprintf("ladder: %s found %d matches, %s found %d", g.name, g.results, group[0].name, group[0].results))
			}
		}
	}

	byName := map[string]*rung{}
	for _, g := range append(point, box...) {
		byName[g.name] = g
	}
	for _, name := range []string{"grid.csr", "grid.csrxy", "grid.inline", "grid.box2l", "grid.boxcsr", "rtree.box", "shard.1x1"} {
		g := byName[name]
		out.setSample(name+".build_us", g.buildUs)
		out.setSample(name+".query_ns", g.queryNs)
		out.setSample(name+".update_ns", g.updateNs)
		if name != "shard.1x1" {
			out.set(name+".bytes_per_object", float64(g.bytes())/float64(g.objects), 1)
		}
	}
	for _, name := range []string{"grid.csr", "grid.box2l"} {
		out.setSample(name+".query_emit_ns", byName[name].emitNs)
		out.setSample(name+".query_batch_ns", byName[name].batchNs)
	}
	out.set("grid.results_per_query", float64(point[0].results)/float64(len(st.queries)), 1)
	box2lGrid.Build(st.rects)
	out.set("grid.box2l.replication", box2lGrid.ReplicationFactor(), 1)
	out.setSample("epoch.build_us", ep.buildUs)
	out.setSample("epoch.query_ns", ep.queryNs)
	out.setSample("epoch.apply_ns_per_move", ep.updateNs)
	bare, auto := byName["tune.bare"], byName["tune.auto"]
	out.set("epoch.query_tax_pct", pct(ep.queryNs.min(), bare.queryNs.min()), ep.queryNs.n())
	out.set("shard.1x1.tax_pct", pct(byName["shard.1x1"].tickUs.min(), bare.tickUs.min()), ladderRounds)

	// tune: the wrapper's tax over its own bare choice, and its regret
	// against the best fixed family, on the workload's own geometry.
	fixed := []*rung{byName["grid.csr"], byName["grid.csrxy"], byName["grid.inline"], byName["rtree.point"]}
	if s.kind == seqBox {
		auto, bare = byName["tune.boxauto"], byName["tune.boxbare"]
		fixed = []*rung{byName["grid.box2l"], byName["grid.boxcsr"], byName["rtree.box"]}
	}
	best := fixed[0]
	for _, g := range fixed[1:] {
		if g.tickUs.min() < best.tickUs.min() {
			best = g
		}
	}
	out.set("tune.tax_pct", pct(auto.tickUs.min(), bare.tickUs.min()), ladderRounds)
	out.set("tune.regret_pct", pct(auto.tickUs.min(), best.tickUs.min()), ladderRounds)
	out.note("tune.regret_pct", "best fixed family: "+best.name)
	out.set("tune.select_ms", r.selectMs(st, auto.buildUs.min()), 3)

	r.driverProbes(out)
	return nil
}

// selectMs is what the tuner's first Build costs beyond a steady one:
// sampling, selection and the chosen structure's first allocation.
func (r *run) selectMs(st *state, steadyBuildUs float64) float64 {
	var first sample
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if r.spec.kind == seqBox {
			tune.NewAutoBox(r.params).Build(st.rects)
		} else {
			tune.NewAuto(r.params).Build(st.pts)
		}
		first.add(ms(time.Since(t0)))
	}
	return first.min() - steadyBuildUs/1e3
}

// tickP10 is the lower decile of a driver result's per-tick totals past
// the warm-up, in milliseconds.
func tickP10(res *core.Result, warm int) float64 {
	var ticks []float64
	for _, pt := range res.PerTick[warm:] {
		ticks = append(ticks, ms(pt.Total()))
	}
	return quantile(ticks, 0.10)
}

// probeRun is a short sequential driver run over the point stream (the
// workload's own, or its point twin) with any point technique.
func (r *run) probeRun(idx core.Index, warm, measured int, reg *obs.Registry) (float64, digest) {
	src := newPointReplay(r.points, newTickLog(warm, warm+measured))
	res := core.Run(idx, src, core.Options{Ticks: warm + measured, KeepPerTick: true, Obs: reg})
	return tickP10(res, warm), digestOf(res)
}

// driverProbes files the metrics that need a driver run rather than
// direct calls: the paper's baselines in its Fig. 2/4 ordering, the
// parallel driver, the sharded engine, the obs overhead and the epoch
// wrapper's lifecycle counters.
func (r *run) driverProbes(out *metricSet) {
	p := r.params
	defer func() {
		if rec := recover(); rec != nil {
			r.fail(1, fmt.Sprintf("driver probe panicked: %v", rec))
		}
	}()

	baselines := []struct {
		name string
		idx  core.Index
	}{
		{"binsearch.tick_ms", binsearch.New()},
		{"rtree.tick_ms", rtree.MustNew(rtree.DefaultFanout)},
		{"crtree.tick_ms", crtree.MustNew(crtree.DefaultFanout)},
		{"kdtrie.tick_ms", kdtrie.MustNew(p.Bounds, kdtrie.DefaultBits)},
		{"grid.original.tick_ms", grid.MustNew(grid.Original(), p.Bounds, p.NumPoints)},
		{"grid.tuned.tick_ms", grid.MustNew(grid.CPSTuned(), p.Bounds, p.NumPoints)},
	}
	var want digest
	for i, b := range baselines {
		tick, d := r.probeRun(b.idx, baselineWarm, baselineTicks, nil)
		out.set(b.name, tick, baselineTicks)
		r.attempted += baselineWarm + baselineTicks
		if i == 0 {
			want = d
		} else if d != want {
			r.fail(baselineWarm+baselineTicks, fmt.Sprintf("%s digest %+v differs from %s %+v", b.name, d, baselines[0].name, want))
		}
	}

	warm := r.spec.warm
	sharded := shard.NewAuto(p)
	tick, _ := r.probeRun(sharded, warm, probeTicks, nil)
	out.set("shard.auto.tick_ms", tick, probeTicks)
	out.set("shard.auto.side", float64(sharded.Side()), 1)

	// The parallel driver, on the workload's own geometry.
	par := newTickLog(warm, warm+probeTicks)
	popts := core.Options{Ticks: warm + probeTicks, KeepPerTick: true}
	var pres *core.Result
	if r.spec.kind == seqBox {
		pres = core.RunBoxesParallel(tune.NewAutoBox(p), newBoxReplay(r.boxes, par), popts, 2)
	} else {
		pres = core.RunParallel(tune.NewAuto(p), newPointReplay(r.points, par), popts, 2)
	}
	out.set("core.parallel_tick_ms_w2", tickP10(pres, warm), probeTicks)
	if runtime.NumCPU() < 2 {
		out.note("core.parallel_tick_ms_w2", "unproven: fewer than 2 CPUs")
	}
	if runtime.NumCPU() < 4 {
		for _, n := range []string{"shard.1x1.build_us", "shard.1x1.query_ns", "shard.1x1.update_ns", "shard.1x1.tax_pct", "shard.auto.tick_ms", "shard.auto.side"} {
			out.note(n, "unproven: fewer than 4 CPUs, only the router tax is measurable")
		}
	}

	// obs: instrumented against plain, paired, digests equal.
	var plain, instr []float64
	for i := 0; i < probePairs; i++ {
		a, da := r.probeRun(tune.NewAuto(p), warm, probeTicks, nil)
		b, db := r.probeRun(tune.NewAuto(p), warm, probeTicks, obs.New())
		plain, instr = append(plain, a), append(instr, b)
		r.attempted += 2 * (warm + probeTicks)
		if da != db {
			r.fail(warm+probeTicks, fmt.Sprintf("obs: instrumented digest %+v differs from plain %+v", db, da))
		}
	}
	out.set("obs.overhead_pct", pct(minOf(instr), minOf(plain)), probePairs)

	// epoch: the wrapper's lifecycle counters and per-query latency under
	// update load, from the workload's own rounds when it is the service
	// workload and from a short concurrent run over the point stream
	// otherwise.
	var conc *core.ConcurrentResult
	if r.spec.kind == service && len(r.rounds) > 0 {
		conc = r.rounds[len(r.rounds)-1].conc
	} else {
		ticks := warm + probeTicks
		x := epoch.NewIndex(func() core.Index { return tune.AutoFactory(p) }, epoch.Options{})
		src := newPointReplay(r.points, newTickLog(warm, ticks))
		conc = core.RunConcurrent(x, src, core.ConcurrentOptions{Ticks: ticks, Readers: readers()})
		r.attempted += ticks
		if conc.Violations != 0 || conc.FailedTicks != 0 {
			r.fail(ticks, fmt.Sprintf("epoch probe: %d violations, %d failed ticks", conc.Violations, conc.FailedTicks))
		}
	}
	out.set("epoch.epochs_per_tick", float64(conc.Stats.Epochs)/float64(conc.Ticks), conc.Ticks)
	out.set("epoch.retries", float64(conc.Stats.Retries), conc.Ticks)
	out.set("epoch.degraded", float64(conc.Stats.Degraded), conc.Ticks)
	out.set("epoch.panics_contained", float64(conc.Stats.PanicsContained), conc.Ticks)
	out.set("epoch.query_us_p50", float64(conc.QueryP50.Nanoseconds())/1e3, int(conc.Queries))
	out.set("epoch.query_us_p99", float64(conc.QueryP99.Nanoseconds())/1e3, int(conc.Queries))
}

package tune

import (
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/rtree"
	"repro/internal/xrand"
)

// Calibration scene: a small synthetic workload every family is run
// over so the model's constants are fitted to THIS machine — the same
// structures, the same code paths, just 4096 objects. The whole pass
// costs a few tens of milliseconds and runs once per process.
const (
	calObjects = 4096
	calSpace   = 4096
	calQueries = 256
	calSeed    = 0x7e57ca11b8a7e5
	// calQuerySide is the box query anchor: one cell at the box anchor
	// granularity, matching the paper's default selectivity regime.
	calQuerySide = 256
	// calMinSide / calMaxSide give the calibration MBRs a mean side of
	// 256 — half a cell at the empty-fit coarse granularity, a full
	// cell at the box anchor, so the replication term is well exercised.
	calMinSide = 64
	calMaxSide = 448
	// Per-cell constants are isolated by EMPTY builds/queries at two
	// directory sizes (the only cost of an empty grid is sweeping its
	// directory); per-object and per-candidate constants then come from
	// one populated anchor each with the known cell term subtracted —
	// a well-conditioned fit where a joint 2x2 solve is not (populated
	// measurements are object-dominated at every practical granularity).
	calEmptyCoarseCPS = 64
	calEmptyFineCPS   = 256
	calPointAnchorCPS = 32
	// calPointFineCPS is the second, fine-granularity POPULATED query
	// anchor for point families: a sparse sub-one-object-per-cell
	// regime where per-cell visit costs dominate — which an empty-
	// directory sweep is too prefetch-friendly to expose. The directory
	// footprint is a function of cps alone (not N), so probing at the
	// ladder's fine end reproduces full-scale cache pressure on a small
	// scene; with cells outnumbering tested candidates ~100:1 here and
	// the coarse anchor candidate-dominated, the two-anchor solve for
	// (cell, candidate) costs is well conditioned.
	calPointFineCPS = 256
	// calFineQueries caps the fine-anchor probe: each of its queries
	// sweeps ~1000 cells, so a fraction of the probe set already gives
	// a stable signal at a fraction of the calibration budget.
	calFineQueries  = 64
	calBoxAnchorCPS = 16
	calPointAnchorQ = 512
	// calCoarseQ is the second query anchor: a window spanning several
	// cells at the anchor granularity, so most candidates sit in
	// CONTAINED cells and the emit constant is identified.
	calCoarseQ    = 1024
	calLowFanout  = 4
	calHighFanout = 32
	calReps       = 3
	coeffFloorNs  = 0.01 // no primitive is ever predicted free
)

var (
	calOnce  sync.Once
	calModel *Model
)

// Calibrate returns the process-wide calibrated cost model, fitting it
// on first use. Safe for concurrent use.
func Calibrate() *Model {
	calOnce.Do(func() { calModel = calibrate() })
	return calModel
}

// probe is one microbenchmark: a state-restoring closure plus its best
// measured wall time.
type probe struct {
	run func()
	ns  float64
}

func newProbe(fn func()) *probe { return &probe{run: fn} }

// measureAll warms every probe once, then runs calReps timing rounds
// INTERLEAVED across all probes, keeping each probe's best round. The
// interleaving is the point: family fits are compared against each
// other, and a background burst during one family's dedicated window
// would systematically inflate that family. Spread round-robin, the
// burst costs every probe one round and the min discards it for all of
// them equally.
func measureAll(probes []*probe) {
	for _, p := range probes {
		p.run()
		p.ns = math.Inf(1)
	}
	for rep := 0; rep < calReps; rep++ {
		for _, p := range probes {
			start := time.Now()
			p.run()
			if d := float64(time.Since(start).Nanoseconds()); d < p.ns {
				p.ns = d
			}
		}
	}
}

// fit2 solves {t1 = a·x1 + b·y1, t2 = a·x2 + b·y2} for non-negative
// coefficients, degrading to a proportional one-constant fit when the
// system is ill-conditioned or a solution goes negative (microbenchmark
// noise can produce both), and flooring the result so no primitive is
// ever free.
func fit2(t1, x1, y1, t2, x2, y2 float64) (a, b float64) {
	det := x1*y2 - x2*y1
	if det != 0 {
		a = (t1*y2 - t2*y1) / det
		b = (x1*t2 - x2*t1) / det
	}
	if det == 0 || a < 0 || b < 0 {
		a, b = 0, 0
		if x1+x2 > 0 {
			a = (t1 + t2) / (x1 + x2)
		}
		if y1+y2 > 0 {
			b = (t1 + t2) / (y1 + y2)
		}
	}
	if a < coeffFloorNs {
		a = coeffFloorNs
	}
	if b < coeffFloorNs {
		b = coeffFloorNs
	}
	return a, b
}

// fitResidual fits one constant from a measured anchor after removing
// the already-known terms, flooring so no primitive is ever free.
func fitResidual(t, known, units float64) float64 {
	v := (t - known) / units
	if v < coeffFloorNs {
		v = coeffFloorNs
	}
	return v
}

// calScene is the shared synthetic snapshot: points, their MBR
// counterparts, and query centres.
type calScene struct {
	bounds geom.Rect
	pts    []geom.Point
	rects  []geom.Rect
	// probes indexes the objects queries centre on.
	probes []int
	stats  Stats // sampled over pts (point families)
	bstats Stats // sampled over rects (box families)
}

func newCalScene() *calScene {
	r := xrand.New(calSeed)
	sc := &calScene{
		bounds: geom.Rect{MinX: 0, MinY: 0, MaxX: calSpace, MaxY: calSpace},
		pts:    make([]geom.Point, calObjects),
		rects:  make([]geom.Rect, calObjects),
	}
	for i := range sc.pts {
		p := geom.Pt(r.Range(0, calSpace), r.Range(0, calSpace))
		sc.pts[i] = p
		hw, hh := r.Range(calMinSide, calMaxSide)/2, r.Range(calMinSide, calMaxSide)/2
		sc.rects[i] = geom.Rect{MinX: p.X - hw, MinY: p.Y - hh, MaxX: p.X + hw, MaxY: p.Y + hh}
	}
	sc.probes = make([]int, calQueries)
	for i := range sc.probes {
		sc.probes[i] = r.Intn(calObjects)
	}
	hints := core.WorkloadHints{QuerySize: calQuerySide, Queriers: 0.5, Updaters: 0.5}
	sc.stats = SamplePoints(sc.pts, sc.bounds, hints)
	sc.bstats = SampleBoxes(sc.rects, sc.bounds, hints)
	return sc
}

// emptyQueryWindow is the half-space window the empty-grid query probes
// sweep: a mix of contained and boundary cells, like real queries see.
func emptyQueryWindow() geom.Rect {
	const half = calSpace / 2
	return geom.Rect{MinX: half / 2, MinY: half / 2, MaxX: 3 * half / 2, MaxY: 3 * half / 2}
}

// emptyQueryCells is how many cells that window visits at the empty-fit
// fine granularity.
func emptyQueryCells() float64 {
	perAxis := calSpace/2/(calSpace/float64(calEmptyFineCPS)) + 1
	return perAxis * perAxis
}

// gridProbes is the per-family probe set shared by the point and box
// grid fitters. Every query probe runs QueryAppend into a buffer reused
// across rounds: the kernel the drivers run, on whichever filter tier the
// process has. queryFine is only set for point families (box grids
// cannot reach a cell-dominated populated probe: replication keeps
// their realistic granularities candidate-dominated, so they fall back
// to the empty-directory query fit).
type gridProbes struct {
	emptyCoarse, emptyFine, emptyQuery *probe
	build, query, queryCoarse          *probe
	queryFine                          *probe
}

func (g *gridProbes) all() []*probe {
	ps := []*probe{g.emptyCoarse, g.emptyFine, g.emptyQuery, g.build, g.query, g.queryCoarse}
	if g.queryFine != nil {
		ps = append(ps, g.queryFine)
	}
	return ps
}

// fit derives the family's constants from the measured probes. s is the
// calibration stats; repl evaluates the family's replication at a
// granularity (constant 1 for points); anchorCPS/anchorQ locate the
// populated anchors.
func (g *gridProbes) fit(s Stats, anchorCPS int, anchorQ float32, repl func(p int) float64) coeffs {
	var c coeffs
	cells1 := float64(calEmptyCoarseCPS) * float64(calEmptyCoarseCPS)
	cells2 := float64(calEmptyFineCPS) * float64(calEmptyFineCPS)
	c.buildCell = (g.emptyFine.ns - g.emptyCoarse.ns) / (cells2 - cells1)
	if c.buildCell < coeffFloorNs {
		c.buildCell = coeffFloorNs
	}
	c.queryCell = g.emptyQuery.ns / emptyQueryCells()
	if c.queryCell < coeffFloorNs {
		c.queryCell = coeffFloorNs
	}

	r := repl(anchorCPS)
	obj, cells := gridBuildShape(s, anchorCPS, r)
	c.buildObj = fitResidual(g.build.ns, cells*c.buildCell, obj)

	qs := s
	qs.QuerySide = anchorQ
	qCells, qTested, qEmitted := gridQueryShape(qs, anchorCPS, r)
	if g.queryFine != nil {
		// Three populated anchors, three constants, solved by
		// alternation: the two granularities pin (cell, tested) — the
		// fine anchor is cell-dominated, the coarse one candidate-
		// dominated — and the wide window pins emit; the emit share of
		// the first two is small, so the loop settles in a few rounds.
		fCells, fTested, fEmitted := gridQueryShape(qs, calPointFineCPS, repl(calPointFineCPS))
		ws := s
		ws.QuerySide = calCoarseQ
		eCells, eTested, eEmitted := gridQueryShape(ws, anchorCPS, r)
		t1 := g.query.ns / calQueries
		t2 := g.queryFine.ns / calFineQueries
		tw := g.queryCoarse.ns / calQueries
		emit := 1.0
		for i := 0; i < 3; i++ {
			c.queryCell, c.queryCand = fit2(
				t1-emit*qEmitted, qCells, qTested,
				t2-emit*fEmitted, fCells, fTested)
			emit = fitResidual(tw, eCells*c.queryCell+eTested*c.queryCand, eEmitted)
			if emit > c.queryCand {
				emit = c.queryCand // emission cannot cost more than a tested scan
			}
		}
		c.queryEmit = emit
	} else {
		c.queryCand = fitResidual(g.query.ns/calQueries, qCells*c.queryCell, qTested)
		qs.QuerySide = calCoarseQ
		eCells, eTested, eEmitted := gridQueryShape(qs, anchorCPS, r)
		c.queryEmit = fitResidual(g.queryCoarse.ns/calQueries, eCells*c.queryCell+eTested*c.queryCand, eEmitted)
	}
	return c
}

func newPointGrid(f Family, cps int, sc *calScene) *grid.Grid {
	layout := grid.LayoutInline
	switch f {
	case PointCSR:
		layout = grid.LayoutCSR
	case PointCSRXY:
		layout = grid.LayoutCSRXY
	}
	cfg := grid.Config{Layout: layout, Scan: grid.ScanRange, BS: grid.RefactoredBS, CPS: cps}
	return grid.MustNew(cfg, sc.bounds, len(sc.pts))
}

// pointProbes assembles one point layout's probe set. The anchor grid
// stays populated between rounds (its build probe repopulates it) and
// the empty grids stay empty, so every probe is state-restoring.
func pointProbes(sc *calScene, f Family) *gridProbes {
	emptyCoarse := newPointGrid(f, calEmptyCoarseCPS, sc)
	emptyFine := newPointGrid(f, calEmptyFineCPS, sc)
	anchor := newPointGrid(f, calPointAnchorCPS, sc)
	fine := newPointGrid(f, calPointFineCPS, sc)
	none := []geom.Point{}
	anchor.Build(sc.pts)
	fine.Build(sc.pts)
	w := emptyQueryWindow()
	var buf []uint32 // reused across rounds so the probes are allocation-free at steady state
	return &gridProbes{
		emptyCoarse: newProbe(func() { emptyCoarse.Build(none) }),
		emptyFine:   newProbe(func() { emptyFine.Build(none) }),
		emptyQuery:  newProbe(func() { buf = emptyFine.QueryAppend(w, buf[:0]) }),
		build:       newProbe(func() { anchor.Build(sc.pts) }),
		query: newProbe(func() {
			for _, p := range sc.probes {
				buf = anchor.QueryAppend(geom.Square(sc.pts[p], calPointAnchorQ), buf[:0])
			}
		}),
		queryFine: newProbe(func() {
			for _, p := range sc.probes[:calFineQueries] {
				buf = fine.QueryAppend(geom.Square(sc.pts[p], calPointAnchorQ), buf[:0])
			}
		}),
		queryCoarse: newProbe(func() {
			for _, p := range sc.probes {
				buf = anchor.QueryAppend(geom.Square(sc.pts[p], calCoarseQ), buf[:0])
			}
		}),
	}
}

// boxGrid is what the box probes drive: a box grid and its native kernel.
type boxGrid interface {
	core.BoxIndex
	core.QueryAppender
}

func newBoxGrid(f Family, cps int, sc *calScene) boxGrid {
	if f == BoxCSR2L {
		return grid.MustNewBoxGrid2L(cps, sc.bounds, len(sc.rects))
	}
	return grid.MustNewBoxGrid(cps, sc.bounds, len(sc.rects))
}

// boxProbes is pointProbes for the two rectangle grids.
func boxProbes(sc *calScene, f Family) *gridProbes {
	emptyCoarse := newBoxGrid(f, calEmptyCoarseCPS, sc)
	emptyFine := newBoxGrid(f, calEmptyFineCPS, sc)
	anchor := newBoxGrid(f, calBoxAnchorCPS, sc)
	none := []geom.Rect{}
	anchor.Build(sc.rects)
	w := emptyQueryWindow()
	var buf []uint32
	return &gridProbes{
		emptyCoarse: newProbe(func() { emptyCoarse.Build(none) }),
		emptyFine:   newProbe(func() { emptyFine.Build(none) }),
		emptyQuery:  newProbe(func() { buf = emptyFine.QueryAppend(w, buf[:0]) }),
		build:       newProbe(func() { anchor.Build(sc.rects) }),
		query: newProbe(func() {
			for _, p := range sc.probes {
				buf = anchor.QueryAppend(geom.Square(sc.rects[p].Center(), calQuerySide), buf[:0])
			}
		}),
		queryCoarse: newProbe(func() {
			for _, p := range sc.probes {
				buf = anchor.QueryAppend(geom.Square(sc.rects[p].Center(), calCoarseQ), buf[:0])
			}
		}),
	}
}

// treeProbes is the STR box R-tree's probe set: the fanout pair is the
// two-anchor axis for build and query.
type treeProbes struct {
	buildLow, buildHigh *probe
	queryLow, queryHigh *probe
}

func (t *treeProbes) all() []*probe {
	return []*probe{t.buildLow, t.buildHigh, t.queryLow, t.queryHigh}
}

func newTreeProbes(sc *calScene) *treeProbes {
	low := rtree.MustNewBoxTree(calLowFanout)
	high := rtree.MustNewBoxTree(calHighFanout)
	low.Build(sc.rects)
	high.Build(sc.rects)
	var buf []uint32
	return &treeProbes{
		buildLow:  newProbe(func() { low.Build(sc.rects) }),
		buildHigh: newProbe(func() { high.Build(sc.rects) }),
		queryLow: newProbe(func() {
			for _, p := range sc.probes {
				buf = low.QueryAppend(geom.Square(sc.rects[p].Center(), calQuerySide), buf[:0])
			}
		}),
		queryHigh: newProbe(func() {
			for _, p := range sc.probes {
				buf = high.QueryAppend(geom.Square(sc.rects[p].Center(), calQuerySide), buf[:0])
			}
		}),
	}
}

func (t *treeProbes) fit(s Stats) coeffs {
	var c coeffs
	n := float64(s.N)
	c.buildObj, c.buildCell = fit2(
		t.buildLow.ns, n, rtreeNodes(s.N, calLowFanout),
		t.buildHigh.ns, n, rtreeNodes(s.N, calHighFanout))
	nLow, eLow := rtreeQueryShape(s, calLowFanout)
	nHigh, eHigh := rtreeQueryShape(s, calHighFanout)
	c.queryCell, c.queryCand = fit2(
		t.queryLow.ns/calQueries, nLow, eLow,
		t.queryHigh.ns/calQueries, nHigh, eHigh)
	// The tree's query curve has no separate emitted term (QueryNs prices
	// nodes + candidates: every leaf candidate takes an intersection test).
	c.queryEmit = c.queryCand
	return c
}

func calibrate() *Model {
	sc := newCalScene()
	pointSets := make(map[Family]*gridProbes, len(pointFamilies))
	for _, f := range pointFamilies {
		pointSets[f] = pointProbes(sc, f)
	}
	boxSets := map[Family]*gridProbes{
		BoxCSR:   boxProbes(sc, BoxCSR),
		BoxCSR2L: boxProbes(sc, BoxCSR2L),
	}
	tree := newTreeProbes(sc)

	var all []*probe
	for _, f := range pointFamilies {
		all = append(all, pointSets[f].all()...)
	}
	for _, g := range boxSets {
		all = append(all, g.all()...)
	}
	all = append(all, tree.all()...)
	measureAll(all)

	m := &Model{}
	one := func(int) float64 { return 1 }
	for _, f := range pointFamilies {
		m.c[f] = pointSets[f].fit(sc.stats, calPointAnchorCPS, calPointAnchorQ, one)
	}
	boxRepl := func(p int) float64 { return replication(sc.bstats, p) }
	for f, g := range boxSets {
		m.c[f] = g.fit(sc.bstats, calBoxAnchorCPS, calQuerySide, boxRepl)
	}
	m.c[BoxRTree] = tree.fit(sc.bstats)
	return m
}

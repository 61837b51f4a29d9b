package grid

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

// The run list of LayoutCSR's vector tier (appendRuns, appendRunList and
// filterRuns) against the row path it replaces there: appendRow, row by
// row, whose filters are filterQ and filterQLoop, its definition. Every
// comparison is exact: the same IDs in the same order.

// queryWindow is Grid.QueryAppend's map of r: its cells on each axis and
// its quanta.
func queryWindow(g *Grid, r geom.Rect) (x, y cellWindow, qw quantWindow) {
	m, b := &g.mapper, &g.bounds
	x0, y0 := m.fixedOf(geom.Point{X: r.MinX, Y: r.MinY})
	x1, y1 := m.fixedOf(geom.Point{X: r.MaxX, Y: r.MaxY})
	x = axisCells(r.MinX, r.MaxX, x0, x1, m.cols, b.MinX, b.MaxX)
	y = axisCells(r.MinY, r.MaxY, y0, y1, m.rows, b.MinY, b.MaxY)
	return x, y, quantWindow{quantize(x0, y0), quantize(x1, y1)}
}

// rowPath is QueryAppend on a CSR grid by the row path: appendRow once a
// row, on whichever tier the process runs.
func rowPath(g *Grid, r geom.Rect, buf []uint32) []uint32 {
	x, y, qw := queryWindow(g, r)
	for cy := y.lo; cy <= y.hi; cy++ {
		buf = g.csr.appendRow(r, qw, cy*g.cfg.CPS, x.lo, x.hi, y.row(cy, x), buf)
	}
	return buf
}

// runsLoop is filterRuns' definition: for each run, filterQLoop over its
// filtered stretches and the IDs of its copied one, appended to buf.
func runsLoop(st *csrStore, runs []csrRun, w quantWindow, r geom.Rect, buf []uint32) []uint32 {
	filter := func(lo, hi uint32) {
		buf = filterQLoop(st.slots[lo:hi], st.pts, w, r, reserve(buf, int(hi-lo)), len(buf))
	}
	for _, u := range runs {
		filter(u.lo, u.in0)
		for _, s := range st.slots[u.in0:u.in1] {
			buf = append(buf, s.id)
		}
		filter(u.in1, u.hi)
	}
	return buf
}

// runSlots is the number of slots of runs.
func runSlots(runs []csrRun) int {
	n := 0
	for _, u := range runs {
		n += int(u.hi - u.lo)
	}
	return n
}

// runShapes cuts the stretch [a, b) of an arena into run lists of every
// shape a run takes: one filtered run, one copied whole, a split row in
// thirds, and runs of five slots, alternately filtered, copied, split and
// empty.
func runShapes(a, b uint32) map[string][]csrRun {
	n := b - a
	shapes := map[string][]csrRun{
		"filtered": {{a, b, b, b}},
		"copied":   {{a, a, b, b}},
		"split":    {{a, a + n/3, a + 2*n/3, b}},
	}
	var many []csrRun
	for lo, i := a, 0; lo < b; i++ {
		hi := min(lo+5, b)
		third := (hi - lo) / 3
		switch i % 4 {
		case 0:
			many = append(many, csrRun{lo, hi, hi, hi})
		case 1:
			many = append(many, csrRun{lo, lo, hi, hi})
		case 2:
			many = append(many, csrRun{lo, lo + third, hi - third, hi})
		default:
			many, hi = append(many, csrRun{lo, lo, lo, lo}), lo
		}
		lo = hi
	}
	shapes["many"] = many
	return shapes
}

// checkRunList runs appendRunList over runs behind a two-ID prefix with
// canaries past the room it reserves, and wants runsLoop's answer, the
// prefix kept and the canaries intact.
func checkRunList(t *testing.T, what string, st *csrStore, runs []csrRun, w quantWindow, r geom.Rect) {
	t.Helper()
	total := runSlots(runs)
	buf := make([]uint32, 2, 2+total+4)
	for i := range buf[:cap(buf)] {
		buf[:cap(buf)][i] = filterCanary + uint32(i)
	}
	got := st.appendRunList(runs, total, w, r, buf)
	if &got[0] != &buf[0] || got[0] != filterCanary || got[1] != filterCanary+1 {
		t.Fatalf("%s: the prefix was moved or overwritten", what)
	}
	for i, v := range buf[:cap(buf)][2+total:] {
		if v != filterCanary+uint32(2+total+i) {
			t.Fatalf("%s: slot %d past the reserved room overwritten with %#x", what, i, v)
		}
	}
	if want := runsLoop(st, runs, w, r, nil); !slices.Equal(got[2:], want) {
		t.Fatalf("%s: filterRuns\n%v\nits definition\n%v", what, got[2:], want)
	}
}

// specialPoints are the positions a run list must treat as the row path
// does whatever they mean: NaN and ±0 on each axis, and the infinities.
func specialPoints() []geom.Point {
	nan, neg0, inf := float32(math.NaN()), float32(math.Copysign(0, -1)), float32(math.Inf(1))
	return []geom.Point{{X: nan, Y: 5}, {X: 5, Y: nan}, {X: nan, Y: nan}, {X: neg0, Y: 0}, {X: 0, Y: neg0},
		{X: neg0, Y: neg0}, {X: 0, Y: 0}, {X: inf, Y: 7}, {X: 7, Y: -inf}}
}

// TestFilterRunsMatchesItsDefinition holds filterRuns to runsLoop on run
// lists of every shape over every stretch length 0 to 33, at every offset
// of a block, over points on and about quantum boundaries (ties) and the
// special points, against windows drawn from the same coordinates and
// windows with ±0 edges.
func TestFilterRunsMatchesItsDefinition(t *testing.T) {
	requireVectorTier(t)
	bounds := mapSpaces[0]
	pts, rects := quantCases(bounds, 64, 17)
	pts = append(pts, specialPoints()...)
	neg0 := float32(math.Copysign(0, -1))
	rects = append(rects, geom.Rect{MinX: neg0, MinY: neg0, MaxX: 100, MaxY: 100}, geom.Rect{MinX: 0, MinY: 0, MaxX: neg0, MaxY: neg0})
	st := quantStore(bounds, pts, 19)
	for ri, r := range rects {
		w := windowOf(&st.mapper, r)
		for n := uint32(0); n <= 33; n++ {
			a := uint32(ri*7+int(n)) % (uint32(len(pts)) - n)
			for shape, runs := range runShapes(a, a+n) {
				checkRunList(t, fmt.Sprintf("rect %d %v, %s runs of [%d:%d]", ri, r, shape, a, a+n), st, runs, w, r)
			}
		}
		// Every run of a list sixteen runs long, each of a different length.
		var long []csrRun
		for lo, i := uint32(ri%16), uint32(0); i < 16; i++ {
			hi := lo + i + 1
			long = append(long, csrRun{lo, lo + i/3, lo + 2*i/3, hi})
			lo = hi + i/2
		}
		checkRunList(t, fmt.Sprintf("rect %d %v, sixteen runs", ri, r), st, long, w, r)
	}
}

// TestRunListMatchesRowPath answers a set of windows by QueryAppend and
// by the row path, on each tier, and wants the same IDs in the same order
// behind an intact prefix: CSR grids at three granularities over two
// spaces, holding uniform points with the cell and column edge probes and
// the special points, a herd in one row, or nothing. Among the windows
// are the whole space and windows past it, which walk every row (up to
// 96: twelve chunks of the run list), windows inside one row and one
// column, inverted ones and ones with a NaN or infinite edge. Across the
// tiers, where no point is NaN, the answers agree too.
func TestRunListMatchesRowPath(t *testing.T) {
	if !vectorKernels {
		t.Log("scalar tier only; vector tier absent: " + missingTier)
	}
	prefix := []uint32{0xdeadbeef, 7}
	for _, bounds := range []geom.Rect{mapSpaces[0], mapSpaces[2]} {
		for _, cps := range []int{13, 64, 96} {
			g := MustNew(Config{Layout: LayoutCSR, Scan: ScanRange, BS: 1, CPS: cps}, bounds, 0)
			r := xrand.New(uint64(cps))
			edgePts, edgeQueries := edgeProbes(g)
			colPts, colQueries := columnProbes(g, 1+g.mapper.cols/50)
			_, rects := quantCases(bounds, cps, uint64(cps))
			windows := slices.Concat(kernelWindows(g), edgeQueries, colQueries, rects)
			ys := g.rowEdges()
			row := geom.R(bounds.MinX, ys[cps/2], bounds.MaxX, nudge(ys[cps/2+1], -1))
			for _, pop := range []struct {
				name string
				pts  []geom.Point
			}{
				{"uniform+edges+specials", slices.Concat(randomPoints(r, 3000, bounds), edgePts, colPts, specialPoints())},
				{"one row", randomPoints(r, 2000, row)},
				{"empty", nil},
			} {
				g.Build(pop.pts)
				hasNaN := slices.ContainsFunc(pop.pts, func(p geom.Point) bool { return p.X != p.X || p.Y != p.Y })
				for _, w := range windows {
					what := fmt.Sprintf("%v cps=%d %s, window %v", bounds, cps, pop.name, w)
					var answers [][]uint32
					mapTiers(func(tier string) {
						got := g.QueryAppend(w, slices.Clone(prefix))
						want := rowPath(g, w, slices.Clone(prefix))
						if !slices.Equal(got, want) {
							t.Fatalf("%s, %s tier: QueryAppend\n%v\nthe row path\n%v", what, tier, got, want)
						}
						answers = append(answers, got)
					})
					if !hasNaN && len(answers) == 2 && !slices.Equal(answers[0], answers[1]) {
						t.Fatalf("%s: the scalar tier\n%v\nthe vector tier\n%v", what, answers[0], answers[1])
					}
				}
			}
		}
	}
}

// FuzzRunListTiers holds QueryAppend to the row path on each tier, and the
// tiers to each other where no point is NaN, on fuzzer-chosen spaces,
// granularities, windows and points (eight bytes a point); and filterRuns
// to its definition on run lists cut from the built arena at offsets drawn
// from the points' bytes.
func FuzzRunListTiers(f *testing.F) {
	p := ulpOff.p
	f.Add(ulpOff.cps, ulpOff.lo, ulpOff.side, p.X, p.Y, nudge(p.X, 400), nudge(p.Y, 1),
		bytesOf(p.X, p.Y, nudge(p.X, -1), nudge(p.Y, 1), nudge(p.X, 1), nudge(p.Y, -1), 18791.666, 14000))
	f.Add(uint16(63), float32(0), float32(22000), float32(-5), float32(-5), float32(22005), float32(22005),
		bytesOf(float32(math.NaN()), 5, float32(math.Copysign(0, -1)), float32(math.Inf(1)), 1e30, -1e30, 22000, 0, 21999.998, 343.75, 85.9375, 100))
	f.Add(uint16(12), float32(-5), float32(10), float32(-5), float32(-1), float32(5), float32(2),
		bytesOf(-5, -5, 5, 5, 0, 0, 4.9999995, -5.0000005, 2.5, 2.5, 1, 2, 3, 4, 5, 6, 7, 8, -1, -1, 1, 2))
	f.Fuzz(func(t *testing.T, cpsPick uint16, lo, side, x0, y0, x1, y1 float32, data []byte) {
		cps, bounds := fuzzSpace(cpsPick, lo, side, 128)
		c := floatsOf(data)
		pts := make([]geom.Point, len(c)/2)
		for i := range pts {
			pts[i] = geom.Pt(c[2*i], c[2*i+1])
		}
		g := MustNew(Config{Layout: LayoutCSR, Scan: ScanRange, BS: 1, CPS: cps}, bounds, len(pts))
		g.Build(pts)
		r := geom.Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}
		var answers [][]uint32
		mapTiers(func(tier string) {
			got, want := g.QueryAppend(r, []uint32{7}), rowPath(g, r, []uint32{7})
			if !slices.Equal(got, want) {
				t.Fatalf("cps=%d %v, %s tier, window %v: QueryAppend %v, the row path %v", cps, bounds, tier, r, got, want)
			}
			answers = append(answers, got)
		})
		isNaN := func(p geom.Point) bool { return p.X != p.X || p.Y != p.Y }
		if len(answers) == 2 && !slices.ContainsFunc(pts, isNaN) && !slices.Equal(answers[0], answers[1]) {
			t.Fatalf("cps=%d %v, window %v: the scalar tier %v, the vector tier %v", cps, bounds, r, answers[0], answers[1])
		}
		if !vectorKernels {
			return
		}
		w := windowOf(&g.csr.mapper, r)
		n := uint32(len(pts))
		for i, b := range data[:min(len(data), 16)] {
			a := uint32(b) % (n + 1)
			e := a + uint32(i)%(n-a+1)
			for shape, runs := range runShapes(a, e) {
				checkRunList(t, fmt.Sprintf("cps=%d %v, window %v, %s runs of [%d:%d]", cps, bounds, r, shape, a, e), g.csr, runs, w, r)
			}
		}
	})
}

package grid

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

// The run list (appendRuns, appendRunList, and filterRuns on LayoutCSR's
// vector tier) against a per-row reference: rowPath, row by row, whose
// filters are the definitions of the tier's, filterQLoop and the exact
// test. Every comparison is exact: the same IDs in the same order.

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

// slotIDs is the IDs of the arena's slots [lo, hi), read one at a time.
func slotIDs(st *csrStore, lo, hi uint32) []uint32 {
	if st.xy != nil {
		return slices.Clone(st.ids[lo:hi])
	}
	var ids []uint32
	for _, s := range st.slots[lo:hi] {
		ids = append(ids, s.id)
	}
	return ids
}

// rowPath is QueryAppend on a CSR grid by rows, the way the store answered
// before the run list: each row of the window sees x as cellWindow.row
// makes it, a span of three or more columns the row holds is filtered,
// copied and filtered, and any other span filtered whole. The filter is
// the definition of the one this process's tier runs: filterQLoop for
// LayoutCSR where vectorKernels is true, and the exact test of the base
// table, filterSlotsPts, where it is not and (over the IDs,
// appendFilterPts) for LayoutCSRXY, whose arena holds the same
// coordinates.
func rowPath(g *Grid, r geom.Rect, buf []uint32) []uint32 {
	st := g.csr
	x, y, qw := queryWindow(g, r)
	filter := func(lo, hi uint32) {
		switch {
		case st.xy != nil:
			buf = appendFilterPts(st.ids[lo:hi], st.pts, r, buf)
		case vectorKernels:
			buf = filterQLoop(st.slots[lo:hi], st.pts, qw, r, reserve(buf, int(hi-lo)), len(buf))
		default:
			buf = filterSlotsPts(st.slots[lo:hi], st.pts, r, reserve(buf, int(hi-lo)), len(buf))
		}
	}
	for cy := y.lo; cy <= y.hi && x.lo <= x.hi; cy++ {
		xr := y.row(cy, x)
		base := cy * g.cfg.CPS << st.shift
		row := st.starts[base+x.lo : base+x.hi+2] // the span's column offsets, and its end
		lo, hi := row[0], row[len(row)-1]
		if xr.in0 <= xr.in1 && len(row) > 3 {
			in0, in1 := row[1], row[len(row)-2]
			filter(lo, in0)
			buf = append(buf, slotIDs(st, in0, in1)...)
			filter(in1, hi)
			continue
		}
		filter(lo, hi)
	}
	return buf
}

// csrWalk is appendRuns' walk of r on the CSR grid g as one list,
// appended to runs: the run of every row the window touches that holds a
// slot, and the directory cells those rows' columns fall in.
func csrWalk(g *Grid, r geom.Rect, runs []csrRun) (_ []csrRun, cells int) {
	st := g.csr
	x, y, _ := queryWindow(g, r)
	if x.lo > x.hi || y.lo > y.hi {
		return runs, 0
	}
	for cy := y.lo; cy <= y.hi; cy++ {
		cells += x.hi>>st.shift - x.lo>>st.shift + 1
		base := cy * g.cfg.CPS << st.shift
		lo, hi := st.starts[base+x.lo], st.starts[base+x.hi+1]
		in0, in1 := hi, hi
		if y.holds(cy) && x.in0 <= x.in1 && x.hi-x.lo > 1 {
			in0, in1 = st.starts[base+x.lo+1], st.starts[base+x.hi]
		}
		if lo < hi {
			runs = append(runs, csrRun{lo, in0, in1, hi})
		}
	}
	return runs, cells
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
	got := st.appendRunList(runs, w, r, buf)
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

// specialPoints are the positions a run list must treat as the per-row reference
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

// TestRunListMatchesRowPath answers a set of windows by QueryAppend, by
// the row path and by appendRunList over csrWalk's list, on each tier, and
// wants the same IDs in the same order behind an intact prefix: both CSR
// layouts at three granularities over two spaces, holding uniform points
// with the cell and column edge probes and the special points, a herd in
// one row, or nothing. Among the windows are the whole space and windows
// past it, which walk every row (up to 96: twelve chunks of the run list),
// windows inside one row and one column, inverted ones and ones with a NaN
// or infinite edge. Across the tiers, where no point is NaN, the answers
// agree too.
func TestRunListMatchesRowPath(t *testing.T) {
	if !vectorKernels {
		t.Log("scalar tier only; vector tier absent: " + missingTier)
	}
	prefix := []uint32{0xdeadbeef, 7}
	for _, layout := range []Layout{LayoutCSR, LayoutCSRXY} {
		for _, bounds := range []geom.Rect{mapSpaces[0], mapSpaces[2]} {
			for _, cps := range []int{13, 64, 96} {
				g := MustNew(Config{Layout: layout, Scan: ScanRange, BS: 1, CPS: cps}, bounds, 0)
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
						what := fmt.Sprintf("%s %v cps=%d %s, window %v", layout, bounds, cps, pop.name, w)
						var answers [][]uint32
						mapTiers(func(tier string) {
							got := g.QueryAppend(w, slices.Clone(prefix))
							want := rowPath(g, w, slices.Clone(prefix))
							if !slices.Equal(got, want) {
								t.Fatalf("%s, %s tier: QueryAppend\n%v\nthe row path\n%v", what, tier, got, want)
							}
							runs, _ := csrWalk(g, w, nil)
							_, _, qw := queryWindow(g, w)
							if list := g.csr.appendRunList(runs, qw, w, slices.Clone(prefix)); !slices.Equal(got, list) {
								t.Fatalf("%s, %s tier: QueryAppend\n%v\nthe walk's run list\n%v", what, tier, got, list)
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
}

// FuzzRunListTiers holds QueryAppend to the row path on each tier, and the
// tiers to each other where no point is NaN, on fuzzer-chosen spaces,
// granularities, windows and points (eight bytes a point), in both CSR
// layouts; and filterRuns to its definition on run lists cut from the
// built LayoutCSR arena at offsets drawn from the points' bytes.
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
		isNaN := func(p geom.Point) bool { return p.X != p.X || p.Y != p.Y }
		r := geom.Rect{MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}
		var g *Grid
		for _, layout := range []Layout{LayoutCSRXY, LayoutCSR} {
			g = MustNew(Config{Layout: layout, Scan: ScanRange, BS: 1, CPS: cps}, bounds, len(pts))
			g.Build(pts)
			var answers [][]uint32
			mapTiers(func(tier string) {
				got, want := g.QueryAppend(r, []uint32{7}), rowPath(g, r, []uint32{7})
				if !slices.Equal(got, want) {
					t.Fatalf("%s cps=%d %v, %s tier, window %v: QueryAppend %v, the row path %v", layout, cps, bounds, tier, r, got, want)
				}
				answers = append(answers, got)
			})
			if len(answers) == 2 && !slices.ContainsFunc(pts, isNaN) && !slices.Equal(answers[0], answers[1]) {
				t.Fatalf("%s cps=%d %v, window %v: the scalar tier %v, the vector tier %v", layout, cps, bounds, r, answers[0], answers[1])
			}
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

//go:build linux && amd64

package grid

import (
	"slices"
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/xrand"
)

// guardedPages maps two read-write pages, each followed by a PROT_NONE
// page, and returns the two writable ones: a slice that ends on the last
// byte of either is flush against a page any access past it faults on.
func guardedPages(t *testing.T) (in, out []byte) {
	p := guardedRegions(t, 2)
	return p[0], p[1]
}

// guardedRegions is guardedPages for n pages.
func guardedRegions(t *testing.T, n int) [][]byte {
	t.Helper()
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*n*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	out := make([][]byte, n)
	for i := range out {
		if err := syscall.Mprotect(mem[(2*i+1)*page:(2*i+2)*page], syscall.PROT_NONE); err != nil {
			t.Fatalf("mprotect: %v", err)
		}
		out[i] = mem[2*i*page : (2*i+1)*page : (2*i+1)*page]
	}
	return out
}

// TestLabelPtsStopsAtLen maps every run of 0 to 40 points whose last point
// and last label both end flush against a PROT_NONE page: a block load or
// store of quantPts one lane past len(pts) would fault, so the masked tail
// is shown to touch nothing it was not given. The runs are mapped twice,
// the labels flush against the page and then the quanta.
func TestLabelPtsStopsAtLen(t *testing.T) {
	in, out := guardedPages(t)
	pts := unsafe.Slice((*geom.Point)(unsafe.Pointer(&in[0])), len(in)/8)
	labels := unsafe.Slice((*uint32)(unsafe.Pointer(&out[0])), len(out)/4)
	m, cases := labelCases(geom.R(0, 0, 22000, 22000), 64)
	for i := range pts { // the cases' last, the specials, next to the guard
		pts[len(pts)-1-i] = cases[len(cases)-1-i%len(cases)]
	}
	for n := 0; n <= 40; n++ {
		run := pts[len(pts)-n:]
		dst := labels[len(labels)-n:]
		mapTiers(func(tier string) {
			quanta := make([]uint32, n)
			quantPoints(m, run, dst, quanta)
			for i, p := range run {
				if want := m.labelOf(p); dst[i] != want || quanta[i] != m.quantOf(p) {
					t.Fatalf("%s tier, %d points at the guard: label %d of %v is %d, labelOf says %d", tier, n, i, p, dst[i], want)
				}
			}
			labels := make([]uint32, n)
			quantPoints(m, run, labels, dst)
			for i, p := range run {
				if want := m.quantOf(p); dst[i] != want || labels[i] != m.labelOf(p) {
					t.Fatalf("%s tier, %d points at the guard: quanta %d of %v are %#x, quantOf says %#x", tier, n, i, p, dst[i], want)
				}
			}
		})
	}
}

// TestSpanRectsStopsAtLen is TestLabelPtsStopsAtLen for spanRects: every
// run of 0 to 40 rectangles, and its spans, flush against a guard page.
func TestSpanRectsStopsAtLen(t *testing.T) {
	in, out := guardedPages(t)
	rects := unsafe.Slice((*geom.Rect)(unsafe.Pointer(&in[0])), len(in)/16)
	spans := unsafe.Slice((*cellSpan)(unsafe.Pointer(&out[0])), len(out)/8)
	m, cases := spanCases(geom.R(0, 0, 22000, 22000), 48)
	for i := range rects {
		rects[len(rects)-1-i] = cases[len(cases)-1-i%len(cases)]
	}
	for n := 0; n <= 40; n++ {
		run := rects[len(rects)-n:]
		dst := spans[len(spans)-n:]
		mapTiers(func(tier string) {
			spanPass(m, run, dst)
			for i, r := range run {
				if want := m.spanOf(r); dst[i] != want {
					t.Fatalf("%s tier, %d rects at the guard: span %d of %v is %+v, spanOf says %+v", tier, n, i, r, dst[i], want)
				}
			}
		})
	}
}

// TestFilterQStopsAtLen is TestLabelPtsStopsAtLen for the CSR grid's
// routine, filterRuns: the last 0 to 64 slots of an arena that ends flush
// against a PROT_NONE page, cut into run lists of every shape (runShapes:
// filtered, copied whole, split, and many short runs), each list flush
// against a page of its own and the room in dst flush against a third, so
// the two loads of a filtered block, the load of a copied one, their
// stores and the read of a run list are shown to touch nothing past their
// ends. The slot holding the last point is the arena's last, and the
// window's corner is that point, so a list whose last stretch is filtered
// ends with a tie whose gather reads the point flush against a fourth page;
// the edges are two slots' own coordinates, so blocks with ties in their
// high half are among them too. Every answer is runsLoop's.
func TestFilterQStopsAtLen(t *testing.T) {
	if !vectorKernels {
		t.Skip("vector tier absent: " + missingTier)
	}
	pages := guardedRegions(t, 4)
	slots := unsafe.Slice((*csrSlot)(unsafe.Pointer(&pages[0][0])), len(pages[0])/8)
	pts := unsafe.Slice((*geom.Point)(unsafe.Pointer(&pages[1][0])), len(pages[1])/8)
	list := unsafe.Slice((*csrRun)(unsafe.Pointer(&pages[2][0])), len(pages[2])/16)
	dst := unsafe.Slice((*uint32)(unsafe.Pointer(&pages[3][0])), len(pages[3])/4)
	bounds := geom.R(0, 0, 22000, 22000)
	copy(pts, randomPoints(xrand.New(7), len(pts), bounds))
	st := quantStore(bounds, pts, 8)
	copy(slots, st.slots)
	last := uint32(len(pts) - 1)
	k := slices.IndexFunc(slots, func(s csrSlot) bool { return s.id == last })
	slots[k], slots[len(slots)-1] = slots[len(slots)-1], slots[k]
	st.slots = slots
	a, b := pts[last], pts[slots[len(slots)-12].id]
	r := geom.Rect{MinX: min(a.X, b.X), MinY: min(a.Y, b.Y), MaxX: max(a.X, b.X), MaxY: max(a.Y, b.Y)}
	w := windowOf(&st.mapper, r)
	end := uint32(len(slots))
	for n := uint32(0); n <= 64; n++ {
		for shape, runs := range runShapes(end-n, end) {
			at := list[len(list)-len(runs):]
			copy(at, runs)
			room := dst[len(dst)-int(n):]
			got := filterRuns(slots, pts, w, r, at, room)
			want := runsLoop(st, runs, w, r, nil)
			if got < 0 || !slices.Equal(room[:got], want) {
				t.Fatalf("%s runs of the last %d slots at the guard: filterRuns passed %d: %v, its definition %v", shape, n, got, room[:max(got, 0)], want)
			}
		}
	}
}

// TestFilterPlanesStopsAtLen is TestFilterQStopsAtLen for the plane
// kernels' vector routines: every run of 0 to 64 candidates ends flush
// against a PROT_NONE page, and so do its planes, the rects it may gather
// from and its room in dst, so a block's widening loads, its gathers and
// its store are shown to touch nothing past the run. Every third
// candidate's rect is the window's own, so runs hold ties and take the
// second pass; every answer is the loops'.
func TestFilterPlanesStopsAtLen(t *testing.T) {
	if !vectorKernels {
		t.Skip("vector tier absent: " + missingTier)
	}
	pages := guardedRegions(t, 7)
	seg := unsafe.Slice((*uint32)(unsafe.Pointer(&pages[0][0])), len(pages[0])/4)
	dst := unsafe.Slice((*uint32)(unsafe.Pointer(&pages[1][0])), len(pages[1])/4)
	rects := unsafe.Slice((*geom.Rect)(unsafe.Pointer(&pages[2][0])), len(pages[2])/16)
	var q [4][]uint16
	for e := range q {
		q[e] = unsafe.Slice((*uint16)(unsafe.Pointer(&pages[3+e][0])), len(pages[3+e])/2)
	}
	bounds := geom.R(0, 0, 22000, 22000)
	copy(rects, randomBoxes(xrand.New(9), len(rects), bounds, 0, 250))
	win := rects[len(rects)-1]
	for i := len(rects) - 1; i >= 0; i -= 3 {
		rects[i] = win
	}
	bg := MustNewBoxGrid2L(48, bounds, 0)
	bg.rects, bg.boxes = rects, len(rects)
	for _, n := range []int{len(seg), len(q[0])} {
		if n < 64 {
			t.Fatalf("page too small: %d slots", n)
		}
	}
	for k, id := range xrand.New(10).Perm(len(rects)) {
		seg[len(seg)-1-k%len(seg)] = uint32(id)
	}
	_, w := bg.windowOf(geom.Rect{MinX: win.MaxX, MinY: win.MaxY, MaxX: win.MinX, MaxY: win.MinY}) // ties on every edge
	ties := 0
	for n := 0; n <= 64; n++ {
		run, room := seg[len(seg)-n:], dst[len(dst)-n:]
		bg.ids = run
		for e := range q {
			bg.q[e] = q[e][len(q[e])-n:]
		}
		scalarTier(func() { fillQuanta(&bg.mapper, rects, run, &bg.q) })
		ties += bg.tiesOf(0, uint32(n), w[:]...)
		for _, k := range planeKernels() {
			var want []uint32
			scalarTier(func() { want = k.run(bg, 0, uint32(n), &w, nil) })
			var got int
			switch len(k.tests) {
			case 1:
				got = filterPlanes1(run, room, rects, bg.q[k.tests[0]], w[k.tests[0]])
			case 2:
				x, y := k.tests[0], k.tests[1]
				got = filterPlanes2(run, room, rects, bg.q[x], w[x], bg.q[y], w[y])
			default:
				got = filterPlanes4(run, room, rects, bg.q[0], w[0], bg.q[1], w[1], bg.q[2], w[2], bg.q[3], w[3])
			}
			if got < 0 || !slices.Equal(room[:got], want) {
				t.Fatalf("%d candidates at the guard, %s: passed %d: %v, the loop %v", n, k.name, got, room[:max(got, 0)], want)
			}
		}
	}
	if ties == 0 {
		t.Error("no run held a tie")
	}
}

// TestQuantFillStopsAtLen is TestLabelPtsStopsAtLen for quantFill: every
// run of 0 to 40 arena slots whose IDs and four planes all end flush
// against a PROT_NONE page, and whose rects are the last of theirs, is
// filled as quantaOf maps it.
func TestQuantFillStopsAtLen(t *testing.T) {
	pages := guardedRegions(t, 6)
	ids := unsafe.Slice((*uint32)(unsafe.Pointer(&pages[0][0])), len(pages[0])/4)
	rects := unsafe.Slice((*geom.Rect)(unsafe.Pointer(&pages[1][0])), len(pages[1])/16)
	var q [4][]uint16
	for e := range q {
		q[e] = unsafe.Slice((*uint16)(unsafe.Pointer(&pages[2+e][0])), len(pages[2+e])/2)
	}
	bounds := geom.R(0, 0, 22000, 22000)
	_, cases, _ := boxQuantCases(bounds, 48, 11)
	for i := range rects {
		rects[len(rects)-1-i] = cases[i%len(cases)]
	}
	m := MustNewBoxGrid2L(48, bounds, 0).mapper
	for n := 0; n <= 40; n++ {
		run := ids[len(ids)-n:]
		for k := range run {
			run[k] = uint32(len(rects) - 1 - k)
		}
		var planes [4][]uint16
		for e := range planes {
			planes[e] = q[e][len(q[e])-n:]
		}
		mapTiers(func(tier string) {
			fillQuanta(&m, rects, run, &planes)
			for k, id := range run {
				want := quantaOf(&m, &rects[id])
				if got := [4]uint16{planes[0][k], planes[1][k], planes[2][k], planes[3][k]}; got != want {
					t.Fatalf("%s tier, %d slots at the guard: slot %d, rect %v: %v, quantaOf %v", tier, n, k, rects[id], got, want)
				}
			}
		})
	}
}

//go:build linux && amd64

package grid

import (
	"syscall"
	"testing"
	"unsafe"

	"repro/internal/geom"
)

// guardedPages maps two read-write pages, each followed by a PROT_NONE
// page, and returns the two writable ones: a slice that ends on the last
// byte of either is flush against a page any access past it faults on.
func guardedPages(t *testing.T) (in, out []byte) {
	t.Helper()
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 4*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	for _, guard := range [][]byte{mem[page : 2*page], mem[3*page:]} {
		if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
			t.Fatalf("mprotect: %v", err)
		}
	}
	return mem[:page:page], mem[2*page : 3*page : 3*page]
}

// TestLabelPtsStopsAtLen maps every run of 0 to 40 points whose last point
// and last label both end flush against a PROT_NONE page: a block load or
// store one lane past len(pts) would fault, so the masked tail is shown to
// touch nothing it was not given.
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
			labelPoints(m, run, dst)
			for i, p := range run {
				if want := m.labelOf(p); dst[i] != want {
					t.Fatalf("%s tier, %d points at the guard: label %d of %v is %d, labelOf says %d", tier, n, i, p, dst[i], want)
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

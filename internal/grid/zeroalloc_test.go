package grid

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/workload"
)

// The QueryAppend contract promises zero allocations per query at
// steady state: once the caller's buffer has grown to the workload's
// high-water mark, the buffered kernel must never touch the heap. These
// tests run in the race-test CI job too, so the guarantee holds under
// the race detector's instrumentation.

// assertZeroAllocAppend warms the reused buffer to steady state, then
// measures.
func assertZeroAllocAppend(t *testing.T, name string, qa func(r geom.Rect, buf []uint32) []uint32, rects []geom.Rect) {
	t.Helper()
	var buf []uint32
	for _, r := range rects {
		buf = qa(r, buf[:0])
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		buf = qa(rects[i%len(rects)], buf[:0])
		i++
	})
	if allocs != 0 {
		t.Errorf("%s: QueryAppend allocates %.1f times per query at steady state, want 0", name, allocs)
	}
}

func zeroAllocWorkload(t *testing.T) (*workload.Generator, []geom.Point, []geom.Rect) {
	t.Helper()
	wcfg := workload.DefaultUniform()
	wcfg.NumPoints = 4000
	wcfg.SpaceSize = 6000
	wcfg.Ticks = 1
	gen, err := workload.NewGenerator(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := gen.Positions(nil)
	queriers := gen.Queriers()
	rects := make([]geom.Rect, 0, len(queriers))
	for _, q := range queriers {
		rects = append(rects, gen.QueryRect(q))
	}
	return gen, pts, rects
}

func TestQueryAppendZeroAllocAllLayouts(t *testing.T) {
	gen, pts, rects := zeroAllocWorkload(t)
	bounds := gen.Config().Bounds()
	for _, lay := range []Layout{LayoutLinked, LayoutInline, LayoutInlineXY, LayoutIntrusive, LayoutCSR, LayoutCSRXY} {
		g := MustNew(Config{Layout: lay, Scan: ScanRange, BS: RefactoredBS, CPS: RefactoredCPS}, bounds, len(pts))
		g.Build(pts)
		assertZeroAllocAppend(t, g.Name(), g.QueryAppend, rects)
	}
}

func TestBoxQueryAppendZeroAlloc(t *testing.T) {
	wcfg := workload.DefaultUniformBoxes()
	wcfg.NumPoints = 4000
	wcfg.SpaceSize = 6000
	wcfg.Ticks = 1
	gen, err := workload.NewBoxGenerator(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	boxes := gen.Rects(nil)
	queriers := gen.Queriers()
	rects := make([]geom.Rect, 0, len(queriers))
	for _, q := range queriers {
		rects = append(rects, gen.QueryRect(q))
	}
	bounds := wcfg.Bounds()

	bg := MustNewBoxGrid(DefaultBoxCPS, bounds, len(boxes))
	bg.Build(boxes)
	assertZeroAllocAppend(t, bg.Name(), bg.QueryAppend, rects)

	bg2 := MustNewBoxGrid2L(DefaultBoxCPS, bounds, len(boxes))
	bg2.Build(boxes)
	assertZeroAllocAppend(t, bg2.Name(), bg2.QueryAppend, rects)
}

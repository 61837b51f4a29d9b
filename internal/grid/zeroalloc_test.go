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
		if g.csr == nil {
			continue
		}
		// That was the run path of a dense arena; the per-cell walk of the
		// same arena reserves cell by cell and must not allocate either.
		if !g.csr.dense {
			t.Fatalf("%s: arena not dense after Build", g.Name())
		}
		loosen(t, g, pts, 0, geom.Pt(bounds.MaxX, bounds.MaxY))
		assertZeroAllocAppend(t, g.Name()+" (not dense)", g.QueryAppend, rects)
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

// UpdateBatch at one worker allocates nothing once its crosser scratch
// and (for the relocate regime) the overflow slices have grown: neither
// regime, on either CSR layout.
func TestCSRUpdateBatchZeroAlloc(t *testing.T) {
	gen, pts, _ := zeroAllocWorkload(t)
	bounds := gen.Config().Bounds()
	for _, cfg := range []Config{CSR(), CSRXY()} {
		for _, regime := range []string{"relocate", "re-scatter"} {
			g := MustNew(cfg, bounds, len(pts))
			snap := append([]geom.Point(nil), pts...)
			g.Build(snap)
			there := crossingBatch(g, snap, 50, 9)
			if regime == "relocate" {
				// Few enough movers that csrxy, which counts them all,
				// relocates too.
				there = there[:len(there)/(2*rescatterShare)]
			}
			back := make([]geom.Move, len(there))
			for i, m := range there {
				back[i] = geom.Move{ID: m.ID, Old: m.New, New: m.Old}
			}
			tick := func() {
				g.UpdateBatch(there, 1)
				g.UpdateBatch(back, 1)
			}
			tick()
			if allocs := testing.AllocsPerRun(20, tick); allocs != 0 {
				t.Errorf("%s, %s: UpdateBatch allocates %.1f times per batch pair at steady state, want 0", g.Name(), regime, allocs)
			}
			if err := g.CheckInvariants(); err != nil {
				t.Errorf("%s, %s: %v", g.Name(), regime, err)
			}
		}
	}
}

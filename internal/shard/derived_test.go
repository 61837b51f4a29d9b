package shard

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/callback"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// derived is one family whose Query is derived from its QueryAppend
// (callback.Query): the callback under test and the oracle kernel it must
// agree with.
type derived struct {
	name   string
	query  func(r geom.Rect, emit func(id uint32))
	oracle func(r geom.Rect, buf []uint32) []uint32
	rects  []geom.Rect
}

// derivedFamilies builds every family that derives its Query: the six
// point-grid layouts, both box grids, both R-trees, the two shard routers
// and their regions' kernel. It lives in this package because shard is the one
// that reaches all of them, its unexported regions included.
func derivedFamilies(t *testing.T) []derived {
	t.Helper()
	pcfg := testPointConfig()
	pgen := workload.MustNewGenerator(pcfg)
	pts := pgen.Positions(nil)
	prects := queryRects(pgen.Queriers(), pgen.QueryRect)
	pOracle := core.NewBruteForce()
	pOracle.Build(pts)
	pp := core.Params{Bounds: pcfg.Bounds(), NumPoints: len(pts)}

	bcfg := testBoxConfig()
	bgen := workload.MustNewBoxGenerator(bcfg)
	boxes := bgen.Rects(nil)
	brects := queryRects(bgen.Queriers(), bgen.QueryRect)
	bOracle := core.NewBruteForceBoxes()
	bOracle.Build(boxes)
	bp := core.Params{Bounds: bcfg.Bounds(), NumPoints: len(boxes)}

	var out []derived
	point := func(idx core.Index) {
		idx.Build(pts)
		out = append(out, derived{idx.Name(), idx.Query, pOracle.QueryAppend, prects})
	}
	box := func(idx core.BoxIndex) {
		idx.Build(boxes)
		out = append(out, derived{idx.Name(), idx.Query, bOracle.QueryAppend, brects})
	}
	for _, l := range []grid.Layout{grid.LayoutLinked, grid.LayoutInline, grid.LayoutInlineXY,
		grid.LayoutIntrusive, grid.LayoutCSR, grid.LayoutCSRXY} {
		point(grid.MustNew(grid.Config{Layout: l, Scan: grid.ScanRange, BS: 8, CPS: 32}, pp.Bounds, pp.NumPoints))
	}
	point(rtree.MustNew(rtree.DefaultFanout))
	box(grid.MustNewBoxGrid(32, bp.Bounds, bp.NumPoints))
	box(grid.MustNewBoxGrid2L(32, bp.Bounds, bp.NumPoints))
	box(rtree.MustNewBoxTree(rtree.DefaultFanout))

	px, bx := New(pp, 2), NewBox(bp, 2)
	point(px)
	box(bx)
	// Each region's kernel, deduplicating wherever the geometry
	// replicates, answers its own share of a window, so the four regions'
	// answers together are the oracle's, each ID exactly once.
	out = append(out,
		derived{"point regions", (&regions[geom.Point]{px.regs}).Query, pOracle.QueryAppend, prects},
		derived{"box regions", (&regions[geom.Rect]{bx.regs}).Query, bOracle.QueryAppend, brects})
	return out
}

// regions queries every region of a router, one after the other, with
// the dedup a window that straddles them needs.
type regions[P comparable] struct{ regs []*region[P] }

func (x *regions[P]) QueryAppend(r geom.Rect, buf []uint32) []uint32 {
	for _, s := range x.regs {
		buf = s.queryAppend(r, buf, s.geo.replicates())
	}
	return buf
}

func (x *regions[P]) Query(r geom.Rect, emit func(uint32)) { callback.Query(x, r, emit) }

// TestDerivedQueryMatchesOracle runs every derived Query from four
// goroutines at once on one built index and wants each result to be the
// brute-force oracle's (run it under -race: the derivation shares its
// result buffers between goroutines). One goroutine's queries then
// allocate nothing at steady state.
func TestDerivedQueryMatchesOracle(t *testing.T) {
	for _, f := range derivedFamilies(t) {
		t.Run(f.name, func(t *testing.T) {
			wants := make([][]uint32, len(f.rects))
			for i, r := range f.rects {
				wants[i] = f.oracle(r, nil)
				slices.Sort(wants[i])
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var got []uint32
					emit := func(id uint32) { got = append(got, id) }
					for i, r := range f.rects {
						got = got[:0]
						f.query(r, emit)
						slices.Sort(got)
						if !slices.Equal(got, wants[i]) {
							t.Errorf("query %d %v: Query reports %d ids, oracle %d", i, r, len(got), len(wants[i]))
							return
						}
					}
				}()
			}
			wg.Wait()

			n := 0
			count := func(uint32) { n++ }
			for _, r := range f.rects {
				f.query(r, count)
			}
			i := 0
			if allocs := testing.AllocsPerRun(100, func() {
				f.query(f.rects[i%len(f.rects)], count)
				i++
			}); allocs != 0 {
				t.Errorf("Query allocates %.1f times per query at steady state, want 0", allocs)
			}
		})
	}
}

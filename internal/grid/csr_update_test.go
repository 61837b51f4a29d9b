package grid

// Tests of the label-driven update paths of the CSR layouts: Update and
// UpdateBatch held against each other and against brute force, the two
// regimes of the batch (relocate, re-scatter) on both sides of
// rescatterPays, and the validate-before-mutate contract.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/xrand"
)

// updateN is the population of the update tests: above minParallelBuild,
// so that workers > 1 really shards the re-scatter.
const updateN = 2 * minParallelBuild

// otherCell returns a point of the space in a different cell than p.
func otherCell(r *xrand.Rand, g *Grid, p geom.Point) geom.Point {
	for {
		q := geom.Pt(r.Range(0, 1000), r.Range(0, 1000))
		if g.cellIndexFor(q) != g.cellIndexFor(p) {
			return q
		}
	}
}

// hotspotPoints clusters n points around a few centres, a quarter of a
// cell wide, so a handful of cells hold hundreds of entries each.
func hotspotPoints(r *xrand.Rand, n int) []geom.Point {
	centres := randomPoints(r, 12, geom.R(100, 100, 900, 900))
	pts := make([]geom.Point, n)
	for i := range pts {
		c := centres[r.Intn(len(centres))]
		pts[i] = geom.Pt(r.Norm(c.X, 4), r.Norm(c.Y, 4))
	}
	return pts
}

// batchShape is one population and one batch over it. crossers says
// whether any move leaves its column; rescatter says which regime
// rescatterPays puts the batch in for the layout. A re-scattered arena is a
// fresh build's byte for byte, and one with crossers relocated is not (they
// leave slack behind, or lie outside their column).
type batchShape struct {
	name      string
	pts       []geom.Point
	moves     []geom.Move
	crossers  bool
	rescatter func(xy bool) bool
}

func batchShapes(g *Grid) []batchShape {
	r := xrand.New(23)
	uniform := randomPoints(r, updateN, testBounds)
	// crossing moves the first k points of a permutation into other cells.
	crossing := func(pts []geom.Point, k int) []geom.Move {
		moves := make([]geom.Move, 0, k)
		for _, id := range r.Perm(len(pts))[:k] {
			moves = append(moves, geom.Move{ID: uint32(id), Old: pts[id], New: otherCell(r, g, pts[id])})
		}
		return moves
	}
	// A batch of k crossers touches the arena k times in either layout.
	limit := updateN / rescatterShare
	if rescatterPays(limit, updateN) || !rescatterPays(limit+1, updateN) {
		panic("updateN/rescatterShare is not the policy boundary")
	}
	never := func(bool) bool { return false }
	always := func(bool) bool { return true }

	// The column's own centre: same column, new coordinates. A neighbouring
	// column of the cell: same cell, and for csr nothing to move but a label.
	sameColumn, sameCell := make([]geom.Move, 0, updateN), make([]geom.Move, 0, updateN)
	for id, p := range uniform {
		sameColumn = append(sameColumn, geom.Move{ID: uint32(id), Old: p, New: columnRect(g, p).Center()})
		sameCell = append(sameCell, geom.Move{ID: uint32(id), Old: p, New: otherColumn(g, p)})
	}

	hot := hotspotPoints(r, updateN)
	hotMoves := make([]geom.Move, 0, updateN)
	for id, p := range hot {
		// A step of up to a cell: about half cross, into crowded cells.
		to := geom.Pt(p.X+r.Range(-15, 15), p.Y+r.Range(-15, 15))
		hotMoves = append(hotMoves, geom.Move{ID: uint32(id), Old: p, New: to})
	}
	return []batchShape{
		{"empty", uniform, nil, false, never},
		// No crosser, but the xy layout rewrites every pair.
		{"same-column", uniform, sameColumn, false, func(xy bool) bool { return xy }},
		// Column crossers inside their cells touch the arena like any other.
		{"same-cell", uniform, sameCell, true, always},
		{"same-cell below", uniform, sameCell[:limit], true, never},
		{"below", uniform, crossing(uniform, limit), true, never},
		{"above", uniform, crossing(uniform, limit+1), true, always},
		{"everyone", uniform, crossing(uniform, updateN), true, always},
		{"hotspots", hot, hotMoves, true, always},
	}
}

func land(pts []geom.Point, moves []geom.Move) []geom.Point {
	out := slices.Clone(pts)
	for _, m := range moves {
		out[m.ID] = m.New
	}
	return out
}

func cellMembers(cs *csrStore, c int) []uint32 {
	ids := cs.appendCell(c, nil)
	slices.Sort(ids)
	return ids
}

// sameArena reports whether two stores hold byte-identical directories
// and arenas, with nothing in overflow.
func sameArena(a, b *csrStore) bool {
	for c := range a.overflow {
		if len(a.overflow[c])+len(b.overflow[c]) != 0 {
			return false
		}
	}
	return slices.Equal(a.starts, b.starts) && slices.Equal(a.counts, b.counts) &&
		slices.Equal(a.ids, b.ids) && slices.Equal(a.xy, b.xy) && slices.Equal(a.cellOf, b.cellOf)
}

func TestCSRUpdateBatchMatchesSequential(t *testing.T) {
	qr := xrand.New(29)
	queries := make([]geom.Rect, 40)
	for i := range queries {
		queries[i] = geom.Square(geom.Pt(qr.Range(-20, 1020), qr.Range(-20, 1020)), qr.Range(1, 200))
	}
	for _, cfg := range []Config{CSR(), CSRXY()} {
		xy := cfg.Layout == LayoutCSRXY
		for _, sh := range batchShapes(MustNew(cfg, testBounds, 0)) {
			after := land(sh.pts, sh.moves)
			fresh := MustNew(cfg, testBounds, updateN)
			fresh.Build(after)
			seqSnap := slices.Clone(sh.pts)
			seq := MustNew(cfg, testBounds, updateN)
			seq.Build(seqSnap)
			for _, m := range sh.moves {
				seq.Update(m.ID, m.Old, m.New)
			}
			copy(seqSnap, after)
			if err := seq.CheckInvariants(); err != nil {
				t.Fatalf("%s/%s: per-move twin: %v", cfg.Name, sh.name, err)
			}
			for _, workers := range []int{1, 2, 4} {
				ctx := fmt.Sprintf("%s/%s/workers=%d", cfg.Name, sh.name, workers)
				snap := slices.Clone(sh.pts)
				g := MustNew(cfg, testBounds, updateN)
				g.BuildParallel(snap, workers)
				g.UpdateBatch(sh.moves, workers)
				copy(snap, after) // the caller's refresh
				if err := g.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", ctx, err)
				}
				if g.Len() != seq.Len() {
					t.Fatalf("%s: Len %d, per-move twin %d", ctx, g.Len(), seq.Len())
				}
				for c := 0; c < g.cells; c++ {
					if got, want := cellMembers(g.csr, c), cellMembers(seq.csr, c); !slices.Equal(got, want) {
						t.Fatalf("%s: cell %d holds %v, per-move twin %v", ctx, c, got, want)
					}
				}
				if same, want := sameArena(g.csr, fresh.csr), sh.rescatter(xy); same != want && (want || sh.crossers) {
					t.Fatalf("%s: arena identical to a fresh build = %v, want re-scatter = %v", ctx, same, want)
				}
				var buf, offsets []uint32
				offsets, batch := core.QueryBatchOf(g, g.Query)(queries, offsets, nil)
				for qi, q := range queries {
					want := bruteQuery(after, q)
					sameSet(t, collect(g, q), want, ctx+" emit")
					buf = g.QueryAppend(q, buf[:0])
					for _, ids := range [][]uint32{buf, batch[offsets[qi]:offsets[qi+1]]} {
						got := map[uint32]bool{}
						for _, id := range ids {
							got[id] = true
						}
						if len(got) != len(ids) {
							t.Fatalf("%s: duplicate results", ctx)
						}
						sameSet(t, got, want, ctx+" buffered")
					}
				}
			}
		}
	}
}

func TestCSRUpdateAndUpdateBatchInterleave(t *testing.T) {
	for _, cfg := range []Config{CSR(), CSRXY()} {
		r := xrand.New(31)
		pts := randomPoints(r, updateN, testBounds)
		seqSnap, snap := slices.Clone(pts), slices.Clone(pts)
		seq, g := MustNew(cfg, testBounds, updateN), MustNew(cfg, testBounds, updateN)
		seq.Build(seqSnap)
		g.Build(snap)
		// One tick without a rebuild: single moves, a small batch
		// (relocated), single moves, a large batch (re-scattered), single
		// moves; every id at most once, as the epoch replay and the shard
		// regions do it.
		perm := r.Perm(updateN)
		sizes := []int{50, 200, 50, updateN / 2, 50}
		for step, size := range sizes {
			moves := make([]geom.Move, 0, size)
			for _, id := range perm[:size] {
				to := geom.Pt(r.Range(0, 1000), r.Range(0, 1000))
				moves = append(moves, geom.Move{ID: uint32(id), Old: snap[id], New: to})
			}
			perm = perm[size:]
			for _, m := range moves {
				seq.Update(m.ID, m.Old, m.New)
				seqSnap[m.ID] = m.New
			}
			if step%2 == 1 {
				g.UpdateBatch(moves, 1)
			}
			for _, m := range moves {
				if step%2 == 0 {
					g.Update(m.ID, m.Old, m.New)
				}
				snap[m.ID] = m.New
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("%s: after step %d: %v", cfg.Name, step, err)
			}
		}
		for c := 0; c < g.cells; c++ {
			if got, want := cellMembers(g.csr, c), cellMembers(seq.csr, c); !slices.Equal(got, want) {
				t.Fatalf("%s: cell %d holds %v, per-move twin %v", cfg.Name, c, got, want)
			}
		}
	}
}

// frozen is a deep copy of everything an update may change.
type frozen struct {
	starts, counts, ids, cellOf []uint32
	xy                          []float32
	overflow                    [][]uint32
	overflowXY                  [][]float32
	entries                     int
}

func freeze(cs *csrStore) frozen {
	f := frozen{
		starts: slices.Clone(cs.starts), counts: slices.Clone(cs.counts), ids: slices.Clone(cs.ids),
		cellOf: slices.Clone(cs.cellOf), xy: slices.Clone(cs.xy), entries: cs.entries,
	}
	for c := range cs.overflow {
		f.overflow = append(f.overflow, slices.Clone(cs.overflow[c]))
	}
	for c := range cs.overflowXY {
		f.overflowXY = append(f.overflowXY, slices.Clone(cs.overflowXY[c]))
	}
	return f
}

func (f frozen) equal(g frozen) bool {
	return slices.Equal(f.starts, g.starts) && slices.Equal(f.counts, g.counts) && slices.Equal(f.ids, g.ids) &&
		slices.Equal(f.cellOf, g.cellOf) && slices.Equal(f.xy, g.xy) && f.entries == g.entries &&
		slices.EqualFunc(f.overflow, g.overflow, slices.Equal[[]uint32]) &&
		slices.EqualFunc(f.overflowXY, g.overflowXY, slices.Equal[[]float32])
}

func TestCSRUpdateBatchUnknownEntryPanics(t *testing.T) {
	for _, cfg := range []Config{CSR(), CSRXY()} {
		r := xrand.New(24)
		pts := randomPoints(r, updateN, testBounds)
		g := MustNew(cfg, testBounds, updateN)
		g.Build(pts)
		// Leave slack and overflow behind, so the frozen state is not a
		// fresh build's.
		for id := 0; id < 300; id++ {
			to := otherCell(r, g, pts[id])
			g.Update(uint32(id), pts[id], to)
			pts[id] = to
		}
		bad := map[string]geom.Move{
			"unknown":      {ID: 1 << 30, Old: pts[0], New: pts[1]},
			"out-of-range": {ID: updateN, Old: pts[0], New: pts[1]},
			"wrong-old":    {ID: 7, Old: otherCell(r, g, pts[7]), New: pts[7]},
		}
		for name, m := range bad {
			// The bad move comes last, behind enough crossers to re-scatter.
			batch := make([]geom.Move, 0, updateN/2+1)
			for id := 1000; id < 1000+updateN/2; id++ {
				batch = append(batch, geom.Move{ID: uint32(id), Old: pts[id], New: otherCell(r, g, pts[id])})
			}
			batch = append(batch, m)
			calls := map[string]func(){
				"Update":              func() { g.Update(m.ID, m.Old, m.New) },
				"UpdateBatch":         func() { g.UpdateBatch(batch, 1) },
				"UpdateBatch/workers": func() { g.UpdateBatch(batch, 4) },
				"UpdateBatch/small":   func() { g.UpdateBatch(batch[len(batch)-3:], 1) },
			}
			for call, fn := range calls {
				before := freeze(g.csr)
				func() {
					defer func() {
						msg, _ := recover().(string)
						if !strings.HasPrefix(msg, fmt.Sprintf("grid: update of unknown entry %d at ", m.ID)) {
							t.Fatalf("%s/%s/%s: recovered %q", cfg.Name, name, call, msg)
						}
					}()
					fn()
				}()
				if !before.equal(freeze(g.csr)) {
					t.Fatalf("%s/%s/%s: the refused call changed the grid", cfg.Name, name, call)
				}
				if err := g.CheckInvariants(); err != nil {
					t.Fatalf("%s/%s/%s: %v", cfg.Name, name, call, err)
				}
			}
		}
	}
}

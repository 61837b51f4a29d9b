package grid

// Tests of the CSR layouts' static update contract over every batch shape:
// Update leaves the arena as the build left it (dense, in column order,
// coordinates as the build saw them), and the rebuild over the moved table
// is what the next answers see.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/xrand"
)

// updateN is the population of the update tests: sixteen of the sort's
// chunks (sortChunk).
const updateN = 16 * sortChunk

// otherCell returns a point of the space in a different cell than p.
func otherCell(r *xrand.Rand, g *Grid, p geom.Point) geom.Point {
	for {
		q := geom.Pt(r.Range(0, 1000), r.Range(0, 1000))
		if g.mapper.cellOf(q) != g.mapper.cellOf(p) {
			return q
		}
	}
}

// columnRect returns the extent of the column holding p: its x-column of
// its directory row.
func columnRect(g *Grid, p geom.Point) geom.Rect {
	f := int(g.csr.mapper.labelOf(p))
	col, row := f%g.mapper.cols, f/g.mapper.cols
	xs, ys := g.colEdges(), g.rowEdges()
	return geom.Rect{MinX: xs[col], MinY: ys[row], MaxX: xs[col+1], MaxY: ys[row+1]}
}

// otherColumn returns a point in the cell of p and in another column of it.
func otherColumn(g *Grid, p geom.Point) geom.Point {
	cr := columnRect(g, p)
	for _, x := range []float32{cr.MaxX + cr.Width()/2, cr.MinX - cr.Width()/2} {
		q := geom.Pt(x, p.Y)
		if g.mapper.cellOf(q) == g.mapper.cellOf(p) && g.csr.mapper.labelOf(q) != g.csr.mapper.labelOf(p) {
			return q
		}
	}
	panic(fmt.Sprintf("no second column in the cell of %v", p))
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

// batchShape is one population and one tick's moves over it, at most one
// per entry.
type batchShape struct {
	name  string
	pts   []geom.Point
	moves []geom.Move
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

	// The column's own centre: same column, new coordinates. A neighbouring
	// column of the cell: same cell, another label.
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
		{"same-column", uniform, sameColumn},
		{"same-cell", uniform, sameCell},
		{"crossing", uniform, crossing(uniform, updateN/32)},
		{"everyone", uniform, crossing(uniform, updateN)},
		{"hotspots", hot, hotMoves},
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

// arena is a deep copy of everything a build writes.
type arena struct {
	starts, ids []uint32
	slots       []csrSlot
	xy          []float32
}

func snapshotArena(cs *csrStore) arena {
	return arena{slices.Clone(cs.starts), slices.Clone(cs.ids), slices.Clone(cs.slots), slices.Clone(cs.xy)}
}

func (a arena) equal(b arena) bool {
	return slices.Equal(a.starts, b.starts) && slices.Equal(a.ids, b.ids) &&
		slices.Equal(a.slots, b.slots) && slices.Equal(a.xy, b.xy)
}

// assertAnswers holds the emit, append and batch kernels of g against
// brute force over pts for every query.
func assertAnswers(t *testing.T, g *Grid, pts []geom.Point, queries []geom.Rect, ctx string) {
	t.Helper()
	var buf []uint32
	offsets, batch := core.QueryBatchOf(g, g.Query)(queries, nil, nil)
	for qi, q := range queries {
		want := bruteQuery(pts, q)
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

// TestCSRUpdateMatchesBruteForce applies every shape one Update a move, on
// an arena Build made. Update must leave the arena
// bit for bit as the build left it, with brute force's answers over the
// built snapshot; after the caller's refresh, the rebuild must hold a fresh
// build's cell membership and brute force's answers over the moved table
// on every query form.
func TestCSRUpdateMatchesBruteForce(t *testing.T) {
	qr := xrand.New(29)
	queries := make([]geom.Rect, 40)
	for i := range queries {
		queries[i] = geom.Square(geom.Pt(qr.Range(-20, 1020), qr.Range(-20, 1020)), qr.Range(1, 200))
	}
	for _, cfg := range []Config{CSR(), CSRXY()} {
		for _, sh := range batchShapes(MustNew(cfg, testBounds, 0)) {
			after := land(sh.pts, sh.moves)
			fresh := MustNew(cfg, testBounds, updateN)
			fresh.Build(after)
			ctx := fmt.Sprintf("%s/%s", cfg.Name, sh.name)
			snap := slices.Clone(sh.pts)
			g := MustNew(cfg, testBounds, updateN)
			g.Build(snap)
			built := snapshotArena(g.csr)
			for _, m := range sh.moves {
				g.Update(m.ID, m.Old, m.New)
			}
			if !built.equal(snapshotArena(g.csr)) {
				t.Fatalf("%s: Update changed the arena", ctx)
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("%s: before the rebuild: %v", ctx, err)
			}
			assertAnswers(t, g, sh.pts, queries, ctx+" before the rebuild")

			copy(snap, after) // the caller's refresh
			g.Build(snap)
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", ctx, err)
			}
			if g.Len() != fresh.Len() {
				t.Fatalf("%s: Len %d, fresh build %d", ctx, g.Len(), fresh.Len())
			}
			for c := 0; c < g.cells; c++ {
				if got, want := cellMembers(g.csr, c), cellMembers(fresh.csr, c); !slices.Equal(got, want) {
					t.Fatalf("%s: cell %d holds %v, fresh build %v", ctx, c, got, want)
				}
			}
			assertAnswers(t, g, after, queries, ctx)
		}
	}
}

// assertDense checks, without the audit, the one state a CSR arena has:
// it begins at slot 0 and ends at len(ids) = Len, every column's stretch
// holds exactly the entries whose positions map to that column, and the
// quanta beside each are its position's.
func assertDense(t *testing.T, g *Grid, after string) {
	t.Helper()
	cs := g.csr
	ids := arenaIDs(cs)
	last := len(cs.starts) - 1
	if cs.starts[0] != 0 || int(cs.starts[last]) != len(ids) || len(ids) != g.Len() {
		t.Fatalf("after %s: arena [%d, %d) over %d ids, Len %d", after, cs.starts[0], cs.starts[last], len(ids), g.Len())
	}
	for f := 0; f < last; f++ {
		for k := cs.starts[f]; k < cs.starts[f+1]; k++ {
			id := ids[k]
			if label := cs.mapper.labelOf(cs.pts[id]); label != uint32(f) {
				t.Fatalf("after %s: slot %d of column %d holds id %d, at %v in column %d", after, k, f, id, cs.pts[id], label)
			}
			if cs.slots != nil && cs.slots[k].q != cs.mapper.quantOf(cs.pts[id]) {
				t.Fatalf("after %s: slot %d holds quanta %#x, id %d at %v quantises to %#x", after, k, cs.slots[k].q, id, cs.pts[id], cs.mapper.quantOf(cs.pts[id]))
			}
		}
	}
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("after %s: %v", after, err)
	}
}

// TestCSRDenseStateTransitions walks the arena through every step that
// would disorder a maintained one — a same-column, a column-crossing and a
// cell-crossing Update, a rebuild over the moved table and one over the
// same table again, a shrinking and an empty rebuild — and wants it dense
// after each: the arena has no other state.
func TestCSRDenseStateTransitions(t *testing.T) {
	r := xrand.New(61)
	for _, cfg := range []Config{CSR(), CSRXY()} {
		t.Run(cfg.DisplayName(), func(t *testing.T) {
			pts := randomPoints(r, updateN, testBounds)
			g := MustNew(cfg, testBounds, len(pts))
			g.Build(pts)
			assertDense(t, g, "Build")
			built := snapshotArena(g.csr)

			// Three moves, none written to the table yet: the arena is the
			// build's, bit for bit.
			moves := []geom.Move{
				{ID: 0, Old: pts[0], New: columnRect(g, pts[0]).Center()},
				{ID: 1, Old: pts[1], New: otherColumn(g, pts[1])},
				{ID: 2, Old: pts[2], New: otherCell(r, g, pts[2])},
			}
			for _, m := range moves {
				g.Update(m.ID, m.Old, m.New)
				assertDense(t, g, fmt.Sprintf("an Update of id %d", m.ID))
				if !built.equal(snapshotArena(g.csr)) {
					t.Fatalf("an Update of id %d changed the arena", m.ID)
				}
			}

			// Landed and rebuilt, each moved entry sits in its new column.
			for _, m := range moves {
				pts[m.ID] = m.New
			}
			g.Build(pts)
			assertDense(t, g, "the rebuild")
			for _, m := range moves {
				k := slices.Index(arenaIDs(g.csr), m.ID)
				f := g.csr.mapper.labelOf(m.New)
				if k < 0 || uint32(k) < g.csr.starts[f] || uint32(k) >= g.csr.starts[f+1] {
					t.Fatalf("id %d in slot %d after the rebuild, want the stretch of column %d, [%d, %d)", m.ID, k, f, g.csr.starts[f], g.csr.starts[f+1])
				}
				if g.csr.slots != nil && g.csr.slots[k].q != g.csr.mapper.quantOf(m.New) {
					t.Fatalf("id %d's slot holds quanta %#x after the rebuild, want %#x", m.ID, g.csr.slots[k].q, g.csr.mapper.quantOf(m.New))
				}
			}
			g.Build(pts)
			assertDense(t, g, "a second Build of the same table")
			g.Build(pts[:len(pts)/3])
			assertDense(t, g, "a shrinking Build")
			g.Build(nil)
			assertDense(t, g, "an empty Build")
		})
	}
}

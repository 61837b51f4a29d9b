package grid

// Tests of the label-driven update path of the CSR layouts: per-move Update
// held against brute force and a fresh build over every batch shape, and
// the validate-before-mutate contract.

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
// so that workers > 1 really shards the build the updates start from.
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

// TestCSRUpdateMatchesBruteForce applies every shape one Update a move,
// on arenas built by one and by several workers, and holds the result
// against a fresh build's cell membership and brute force on every query
// form.
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
			for _, workers := range []int{1, 4} {
				ctx := fmt.Sprintf("%s/%s/workers=%d", cfg.Name, sh.name, workers)
				snap := slices.Clone(sh.pts)
				g := MustNew(cfg, testBounds, updateN)
				g.BuildParallel(snap, workers)
				for _, m := range sh.moves {
					g.Update(m.ID, m.Old, m.New)
				}
				copy(snap, after) // the caller's refresh
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

func TestCSRUpdateUnknownEntryPanics(t *testing.T) {
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
			before := freeze(g.csr)
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.HasPrefix(msg, fmt.Sprintf("grid: update of unknown entry %d at ", m.ID)) {
						t.Fatalf("%s/%s: recovered %q", cfg.Name, name, msg)
					}
				}()
				g.Update(m.ID, m.Old, m.New)
			}()
			if !before.equal(freeze(g.csr)) {
				t.Fatalf("%s/%s: the refused call changed the grid", cfg.Name, name)
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("%s/%s: %v", cfg.Name, name, err)
			}
		}
	}
}

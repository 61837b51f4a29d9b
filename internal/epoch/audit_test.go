package epoch

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/xrand"
)

// misfiler is a CSR grid whose first build after armed is set files one
// entry in the wrong cell: it builds over the snapshot with entry id
// displaced, then restores the coordinate, so the base table is right and
// the arena is not. The flag is shared by both buffers' inners, so
// whichever builds next is the one corrupted.
type misfiler struct {
	*grid.Grid
	id    uint32
	armed *bool
}

func (m *misfiler) Build(pts []geom.Point) {
	if !*m.armed {
		m.Grid.Build(pts)
		return
	}
	*m.armed = false
	p := pts[m.id]
	pts[m.id] = geom.Pt(testBounds.MaxX-p.X, testBounds.MaxY-p.Y)
	m.Grid.Build(pts)
	pts[m.id] = p
}

// blind hides every optional interface of its inner, CheckInvariants among
// them, so the publisher validates it by cardinality and probes alone.
type blind struct{ core.Index }

// TestAuditRefusesMisfiledEntry plants a corruption the sampled move
// probes cannot see — an entry the batch does not move, filed in the wrong
// cell of the shadow's CSR arena — and holds publication to the grid's own
// audit: with it, ApplyBatch refuses the shadow, retries once onto a clean
// rebuild and publishes an index that agrees with brute force; with the
// audit hidden (blind), the same batch publishes the misfiled entry on the
// first attempt.
func TestAuditRefusesMisfiledEntry(t *testing.T) {
	const n, batch = 4000, 100
	for _, cfg := range []grid.Config{grid.CSR(), grid.CSRXY()} {
		for _, audited := range []bool{true, false} {
			name := cfg.DisplayName() + "/blind"
			if audited {
				name = cfg.DisplayName() + "/audited"
			}
			t.Run(name, func(t *testing.T) {
				r := xrand.New(41)
				oracle := randomPoints(r, n)
				moves := randomMoves(r, oracle, batch)
				moved := make(map[uint32]bool, batch)
				for _, m := range moves {
					moved[m.ID] = true
				}
				// An id the batch leaves alone, far enough from the centre
				// that its mirror image lies in another cell.
				var id uint32
				centre := geom.Square(geom.Pt(500, 500), 200)
				for moved[id] || oracle[id].In(centre) {
					id++
				}
				armed := false
				x := NewIndex(func() core.Index {
					var idx core.Index = &misfiler{grid.MustNew(cfg, testBounds, n), id, &armed}
					if !audited {
						idx = blind{idx}
					}
					return idx
				}, Options{})
				x.Build(oracle)
				armed = true
				if _, err := x.ApplyBatch(moves); err != nil {
					t.Fatal(err)
				}
				if armed {
					t.Fatal("no build was corrupted")
				}
				applyOracle(oracle, moves)

				home := geom.Square(oracle[id], 1)
				got, _, _ := collectPoints(x, home)
				s := x.Stats()
				if !audited {
					if s.Retries != 0 || got[id] {
						t.Fatalf("blind: %d retries, entry %d found at home %v: the probes saw the corruption", s.Retries, id, got[id])
					}
					return
				}
				if s.Epochs != 1 || s.Retries != 1 || s.Degraded != 1 {
					t.Fatalf("audited: %+v, want one epoch published after one retry", s)
				}
				for _, q := range []geom.Rect{home, testBounds, geom.Square(geom.Pt(500, 500), 300)} {
					got, _, _ := collectPoints(x, q)
					for i, p := range oracle {
						if p.In(q) != got[uint32(i)] {
							t.Fatalf("audited: id %d membership mismatch in %v", i, q)
						}
					}
				}
			})
		}
	}
}

package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/workload"
)

// movesSeen forwards to an index and checks every Update it is handed
// against the positions it has been told of so far.
type movesSeen struct {
	core.Index
	t       *testing.T
	pos     []geom.Point
	updates int64
}

func (m *movesSeen) Update(id uint32, old, new geom.Point) {
	if m.pos[id] != old {
		m.t.Fatalf("object %d moved from %v, but it was last at %v", id, old, m.pos[id])
	}
	m.pos[id] = new
	m.updates++
	m.Index.Update(id, old, new)
}

func protocolTrace(t *testing.T) (*workload.Trace, int64) {
	t.Helper()
	wcfg := workload.DefaultUniform()
	wcfg.NumPoints = 2000
	wcfg.SpaceSize = 4000
	wcfg.Ticks = 6
	trace, err := workload.Record(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	var moves int64
	for _, tt := range trace.Ticks {
		moves += int64(len(tt.Updates))
	}
	return trace, moves
}

// Under the paper's protocol a grid is told of every move exactly once,
// from where it last was; the core driver alone tells it of none. Both
// report the same join.
func TestMaintainInPlaceUpdatesOncePerMove(t *testing.T) {
	trace, moves := protocolTrace(t)
	wcfg := trace.Config
	run := func(paper bool) (*movesSeen, *core.Result) {
		g := &movesSeen{Index: grid.MustNew(grid.CPSTuned(), wcfg.Bounds(), wcfg.NumPoints), t: t}
		for _, o := range trace.Initial {
			g.pos = append(g.pos, o.Pos)
		}
		var src workload.Source = workload.NewPlayer(trace)
		if paper {
			src = MaintainInPlace(g, src)
		}
		return g, core.Run(g, src, core.Options{})
	}
	paper, res := run(true)
	if paper.updates != moves || res.Updates != moves {
		t.Errorf("paper protocol: %d Update calls for %d moves (driver counted %d)", paper.updates, moves, res.Updates)
	}
	plain, ref := run(false)
	if plain.updates != 0 {
		t.Errorf("driver protocol: %d Update calls, want none", plain.updates)
	}
	if res.Pairs != ref.Pairs || res.Hash != ref.Hash {
		t.Errorf("paper protocol digest (%d, %#x), driver's (%d, %#x)", res.Pairs, res.Hash, ref.Pairs, ref.Hash)
	}
}

// Table 2's eight rows, each maintained in place under the paper's
// protocol, all report the oracle's join.
func TestTable2RowsAgreeUnderPaperProtocol(t *testing.T) {
	trace, _ := protocolTrace(t)
	wcfg := trace.Config
	want := core.Run(core.NewBruteForce(), workload.NewPlayer(trace), core.Options{})
	rows := table2Rows(core.Params{Bounds: wcfg.Bounds(), NumPoints: wcfg.NumPoints})
	if len(rows) != 8 {
		t.Fatalf("Table 2 has %d rows, want 8", len(rows))
	}
	for _, row := range rows {
		_, _, update, res := runBreakdown(trace, row.idx)
		if res.Pairs != want.Pairs || res.Hash != want.Hash {
			t.Errorf("%s: digest (%d, %#x), oracle (%d, %#x)", row.name, res.Pairs, res.Hash, want.Pairs, want.Hash)
		}
		if update <= 0 {
			t.Errorf("%s: Update column %g s, want the in-place maintenance charged", row.name, update)
		}
	}
}

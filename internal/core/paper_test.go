package core_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/workload"
)

// snapGrid is a grid that keeps hold of the snapshot it was built over,
// which its invariant audit reads positions from.
type snapGrid struct {
	*grid.Grid
	snap []geom.Point
}

func (g *snapGrid) Build(snap []geom.Point) {
	g.snap = snap
	g.Grid.Build(snap)
}

// audited forwards a tick's batch to the base table and then runs check.
type audited struct {
	workload.Source
	check func()
}

func (a audited) ApplyUpdates(batch []workload.Update) {
	a.Source.ApplyUpdates(batch)
	a.check()
}

// TestGridMaintainedInPlaceStaysConsistent drives the paper's grid layouts
// — the Figure 4 ablation chain and ext-handles' intrusive handles —
// through internal/bench's paper protocol, the one caller that maintains
// them in place every tick. After each tick's moves, with the snapshot
// caught up to the base table as the next refresh would, every grid still
// holds each object exactly once, in the cell of its new position.
func TestGridMaintainedInPlaceStaysConsistent(t *testing.T) {
	cfg := workload.DefaultUniform()
	cfg.NumPoints = 800
	cfg.Ticks = 30
	cfg.SpaceSize = 2000
	cfg.MaxSpeed = 40
	cfg.QuerySize = 120
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := core.Run(core.NewBruteForce(), workload.NewPlayer(trace), core.Options{})
	intrusive := grid.Querying()
	intrusive.Layout, intrusive.Name = grid.LayoutIntrusive, "intrusive handles"
	for _, gc := range append(grid.AblationChain(), intrusive) {
		g := &snapGrid{Grid: grid.MustNew(gc, cfg.Bounds(), cfg.NumPoints)}
		player := workload.NewPlayer(trace)
		ticks := 0
		check := func() {
			ticks++
			for i, o := range player.Objects() {
				g.snap[i] = o.Pos
			}
			if g.Len() != cfg.NumPoints {
				t.Fatalf("%s, tick %d: %d entries, want %d", g.Name(), ticks, g.Len(), cfg.NumPoints)
			}
			if err := g.CheckInvariants(); err != nil {
				t.Fatalf("%s, tick %d: %v", g.Name(), ticks, err)
			}
		}
		res := core.Run(g, bench.MaintainInPlace(g, audited{player, check}), core.Options{})
		if ticks != cfg.Ticks {
			t.Fatalf("%s: audited %d ticks, want %d", g.Name(), ticks, cfg.Ticks)
		}
		if res.Pairs != want.Pairs || res.Hash != want.Hash {
			t.Errorf("%s: digest (%d, %#x), oracle (%d, %#x)", g.Name(), res.Pairs, res.Hash, want.Pairs, want.Hash)
		}
	}
}

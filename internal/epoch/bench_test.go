package epoch

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/rtree"
	"repro/internal/workload"
)

// The two apply-path policies the package's tests and benchmark force
// through applyBatchVia; production only ever passes bulkPays.
func alwaysReplay(int, int) bool { return false }
func alwaysBulk(int, int) bool   { return true }

// BenchmarkApplyCrossover is the evidence behind bulkShare: the cost of
// one whole ApplyBatch tick (catch-up, apply, validate, publish) per
// move of the batch, with the apply path forced to replay or to bulk,
// at each updater fraction of the paper's default kinematics (50 000
// objects, speed 200 in a 22 000 space) over the three inner families
// the tuner picks. The pending share the policy sees is twice the
// updater fraction (carry + batch). README.md records the table.
func BenchmarkApplyCrossover(b *testing.B) {
	cfg := workload.DefaultUniform()
	bounds := cfg.Bounds()
	n := cfg.NumPoints
	inners := []struct {
		name  string
		point func() core.Index
		box   func() core.BoxIndex
	}{
		{name: "csr", point: func() core.Index { return grid.MustNew(grid.CSR(), bounds, n) }},
		{name: "boxcsr2l", box: func() core.BoxIndex { return grid.MustNewBoxGrid2L(64, bounds, n) }},
		{name: "boxrtree", box: func() core.BoxIndex { return rtree.MustNewBoxTree(16) }},
	}
	paths := []struct {
		name string
		bulk func(int, int) bool
	}{{"replay", alwaysReplay}, {"bulk", alwaysBulk}}
	for _, in := range inners {
		for _, pct := range []int{1, 5, 10, 25, 50, 100} {
			for _, path := range paths {
				b.Run(fmt.Sprintf("%s/updaters=%d%%/%s", in.name, pct, path.name), func(b *testing.B) {
					c := cfg
					c.Updaters = float64(pct) / 100
					var tick func() int
					if in.point != nil {
						tick = pointTicker(b, c, in.point, path.bulk)
					} else {
						bc := workload.DefaultUniformBoxes()
						bc.Config = c
						tick = boxTicker(b, bc, in.box, path.bulk)
					}
					for i := 0; i < 3; i++ { // carry filled, arenas grown
						tick()
					}
					moves := 0
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						moves += tick()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(moves), "ns/move")
				})
			}
		}
	}
}

// pointTicker returns a closure that generates the next tick's batch
// with the benchmark timer stopped, applies it through the forced path
// with the timer running, and returns the batch size.
func pointTicker(b *testing.B, cfg workload.Config, mk func() core.Index, bulk func(int, int) bool) func() int {
	gen := workload.MustNewGenerator(cfg)
	snap := gen.Positions(nil)
	x := NewIndex(mk, Options{})
	x.Build(snap)
	var moves []geom.Move
	return func() int {
		b.StopTimer()
		batch := gen.Updates()
		moves = moves[:0]
		for _, u := range batch {
			moves = append(moves, geom.Move{ID: u.ID, Old: snap[u.ID], New: u.Pos})
			snap[u.ID] = u.Pos
		}
		gen.ApplyUpdates(batch)
		b.StartTimer()
		if _, err := x.applyBatchVia(moves, bulk); err != nil {
			b.Fatal(err)
		}
		return len(moves)
	}
}

func boxTicker(b *testing.B, cfg workload.BoxConfig, mk func() core.BoxIndex, bulk func(int, int) bool) func() int {
	gen := workload.MustNewBoxGenerator(cfg)
	snap := gen.Rects(nil)
	x := NewBoxIndex(mk, Options{})
	x.Build(snap)
	var moves []geom.BoxMove
	return func() int {
		b.StopTimer()
		batch := gen.Updates()
		moves = moves[:0]
		for _, u := range batch {
			moves = append(moves, geom.BoxMove{ID: u.ID, Old: snap[u.ID], New: u.Rect})
			snap[u.ID] = u.Rect
		}
		gen.ApplyUpdates(batch)
		b.StartTimer()
		if _, err := x.applyBatchVia(moves, bulk); err != nil {
			b.Fatal(err)
		}
		return len(moves)
	}
}

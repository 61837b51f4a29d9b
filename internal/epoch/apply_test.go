package epoch

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// TestSmallBatchesPublishClean drives every point family through ticks
// whose batch is a small share of the population (100 moves of 20 000) —
// the service regime where a shadow caught up move by move would hand a
// static family (its Update a no-op) a stale index. Every tick must
// publish on its first attempt, and every query must match brute force.
func TestSmallBatchesPublishClean(t *testing.T) {
	const n, ticks, batch = 20000, 10, 100
	for name, mk := range pointFamilies(n) {
		t.Run(name, func(t *testing.T) {
			r := xrand.New(37)
			oracle := randomPoints(r, n)
			x := NewIndex(mk, Options{})
			x.Build(oracle)
			for tick := 0; tick < ticks; tick++ {
				moves := randomMoves(r, oracle, batch)
				if _, err := x.ApplyBatch(moves); err != nil {
					t.Fatalf("tick %d: %v", tick, err)
				}
				applyOracle(oracle, moves)
				rect := geom.Square(moves[len(moves)-1].New, 40)
				got, _, _ := collectPoints(x, rect)
				for i := range oracle {
					if oracle[i].In(rect) != got[uint32(i)] {
						t.Fatalf("tick %d: id %d membership mismatch in %v", tick, i, rect)
					}
				}
			}
			if s := x.Stats(); s.Epochs != ticks || s.Degraded != 0 || s.Retries != 0 {
				t.Fatalf("clean small-batch run: %+v", s)
			}
		})
	}
}

// TestApplyBatchDoesNotAllocate pins the steady-state writer tick at
// zero allocations (csr inner, whose build and buffered query are
// allocation-free): validate's id-indexed scratch and the probes' result
// buffer are owned by the wrapper.
func TestApplyBatchDoesNotAllocate(t *testing.T) {
	const n = 4000
	for _, k := range []int{n / 50, n / 2} {
		t.Run(fmt.Sprintf("batch=%d", k), func(t *testing.T) {
			r := xrand.New(97)
			oracle := randomPoints(r, n)
			x := NewIndex(pointFamilies(n)["csr"], Options{})
			x.Instrument(obs.New())
			x.Build(oracle)
			there := randomMoves(r, oracle, k)
			back := make([]geom.Move, len(there))
			for i, m := range there {
				back[i] = geom.Move{ID: m.ID, Old: m.New, New: m.Old}
			}
			pinSteadyTick(t, x.ApplyBatch, there, back)
		})
	}
}

// TestBoxApplyBatchDoesNotAllocate is TestApplyBatchDoesNotAllocate over
// every inner box family: each one's audit keeps its id-indexed table on
// its structure, so a box writer tick allocates nothing either.
func TestBoxApplyBatchDoesNotAllocate(t *testing.T) {
	const n = 4000
	for name, mk := range boxFamilies(n) {
		for _, k := range []int{n / 50, n / 2} {
			t.Run(fmt.Sprintf("%s/batch=%d", name, k), func(t *testing.T) {
				r := xrand.New(97)
				oracle := randomBoxes(r, n)
				x := NewBoxIndex(mk, Options{})
				x.Instrument(obs.New())
				x.Build(oracle)
				there := randomBoxMoves(r, oracle, k)
				back := make([]geom.BoxMove, len(there))
				for i, m := range there {
					back[i] = geom.BoxMove{ID: m.ID, Old: m.New, New: m.Old}
				}
				pinSteadyTick(t, x.ApplyBatch, there, back)
			})
		}
	}
}

// TestWriterHoldsNoBatch pins what the writer keeps between ticks at
// the paper's default population (50 000 points, csr inner) and a batch
// of half of it: the two buffers' snapshots and inner grids, validate's
// id-indexed table, and 128 KiB of slack for everything small. A copy of
// the published batch kept for the next tick (500 kB here) does not fit.
func TestWriterHoldsNoBatch(t *testing.T) {
	const n, k, ticks = 50000, 25000, 4
	r := xrand.New(53)
	oracle := randomPoints(r, n)
	there := randomMoves(r, oracle, k)
	back := make([]geom.Move, len(there))
	for i, m := range there {
		back[i] = geom.Move{ID: m.ID, Old: m.New, New: m.Old}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	x := NewIndex(pointFamilies(n)["csr"], Options{})
	x.Build(oracle)
	for tick := 0; tick < ticks; tick++ {
		moves := there
		if tick%2 == 1 {
			moves = back
		}
		if _, err := x.ApplyBatch(moves); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	// The test's own tables were live at the first reading: keep them
	// live through the second.
	runtime.KeepAlive(oracle)
	runtime.KeepAlive(there)
	runtime.KeepAlive(back)

	budget := int64(cap(x.lastOf))*4 + 128<<10
	for _, b := range []*buffer[geom.Point]{x.live.Load(), x.shadow} {
		budget += int64(cap(b.snap))*int64(unsafe.Sizeof(geom.Point{})) + b.idx.(core.MemoryReporter).MemoryBytes()
	}
	runtime.KeepAlive(x)
	if held > budget {
		t.Errorf("the wrapper holds %d B after %d ticks of %d moves, want at most %d B (buffers, lastOf and slack)", held, ticks, k, budget)
	}
}

// pinSteadyTick applies two batches over the same ids, alternated, so
// every tick moves objects for real without generating inside the
// measured region, and wants the ticks past the warm-up to allocate
// nothing.
func pinSteadyTick[M any](t *testing.T, apply func([]M) (uint64, error), there, back []M) {
	t.Helper()
	tick := 0
	step := func() {
		moves := there
		if tick%2 == 1 {
			moves = back
		}
		tick++
		if _, err := apply(moves); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ { // scratch and arenas reach their size
		step()
	}
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Errorf("ApplyBatch allocates %.1f times per tick at steady state, want 0", allocs)
	}
}

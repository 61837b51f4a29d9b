package epoch

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultutil"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/parutil"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// leasedMatches holds a run of queries under l against brute force over
// pts and against the (epoch, digest) the lease must keep naming.
func leasedMatches(t *testing.T, l core.EpochLease, r *xrand.Rand, pts []geom.Point, wantEp, wantDg uint64) {
	t.Helper()
	var buf []uint32
	for q := 0; q < 30; q++ {
		rect := geom.Square(geom.Pt(
			r.Range(testBounds.MinX, testBounds.MaxX),
			r.Range(testBounds.MinY, testBounds.MaxY)), 60)
		buf = l.QueryAppend(rect, buf[:0])
		got := make(map[uint32]bool, len(buf))
		for _, id := range buf {
			got[id] = true
		}
		for i := range pts {
			if pts[i].In(rect) != got[uint32(i)] {
				t.Fatalf("query %d under the lease on epoch %d: id %d membership mismatch in %v", q, wantEp, i, rect)
			}
		}
		if ep, dg := l.Epoch(); ep != wantEp || dg != wantDg {
			t.Fatalf("query %d: the lease names epoch %d/%x, took %d/%x", q, ep, dg, wantEp, wantDg)
		}
	}
}

// TestLeaseHoldsOneEpochAcrossPublish pins what a lease is: taken before
// an ApplyBatch, it answers every query from the pre-publish snapshot
// while the new epoch goes live beside it; the writer does not get the
// retired buffer back — ApplyBatch does not return — until Release; the
// next lease is on the new epoch. The loud failures are stated here too:
// Lease on an unbuilt index is nil, and a Release with nothing held
// panics and leaves the pin count at zero.
func TestLeaseHoldsOneEpochAcrossPublish(t *testing.T) {
	const n = 1500
	r := xrand.New(41)
	pts := randomPoints(r, n)
	x := NewIndex(pointFamilies(n)["csr"], Options{})
	if l := x.Lease(); l != nil {
		t.Fatalf("Lease before Build = %v, want nil", l)
	}
	x.Build(pts)
	before := append([]geom.Point(nil), pts...)

	l := x.Lease()
	ep0, dg0 := l.Epoch()
	if ep0 != 0 || dg0 != SnapshotDigestPoints(before) {
		t.Fatalf("first lease names epoch %d/%x", ep0, dg0)
	}
	moves := randomMoves(r, pts, 400)
	applied := make(chan error, 1)
	go func() {
		_, err := x.ApplyBatch(moves)
		applied <- err
	}()
	for ep, _ := x.Epoch(); ep == ep0; ep, _ = x.Epoch() {
		runtime.Gosched() // until the new epoch is live
	}
	// Live has moved on; the lease has not.
	if _, ep, _ := x.QueryAppend(testBounds, nil); ep != ep0+1 {
		t.Fatalf("a fresh query saw epoch %d, want %d", ep, ep0+1)
	}
	leasedMatches(t, l, r, before, ep0, dg0)
	select {
	case err := <-applied:
		t.Fatalf("ApplyBatch returned (%v) while a lease on the retired buffer was held", err)
	case <-time.After(20 * time.Millisecond):
	}
	l.Release()
	if err := <-applied; err != nil {
		t.Fatal(err)
	}

	applyOracle(pts, moves)
	l = x.Lease()
	leasedMatches(t, l, r, pts, ep0+1, FoldMoves(dg0, moves))
	l.Release()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("a second Release of the same lease did not panic")
			}
		}()
		l.Release()
	}()
	if a := x.live.Load().active.Load(); a != 0 {
		t.Fatalf("pin count %d after the refused Release, want 0", a)
	}
	// Two publishes retire both buffers: neither may have been left pinned.
	for i := 0; i < 2; i++ {
		if _, err := x.ApplyBatch(randomMoves(r, pts, 50)); err != nil {
			t.Fatal(err)
		}
	}
}

// faultyGrid is a CSR grid whose buffered query visits the "query" fault
// site first. Both buffers' inners share the injector.
type faultyGrid struct {
	*grid.Grid
	inj *faultutil.Injector
}

func (f faultyGrid) QueryAppend(r geom.Rect, buf []uint32) []uint32 {
	f.inj.Fire("query")
	return f.Grid.QueryAppend(r, buf)
}

// TestLeaseReleasedWhenAQueryPanics panics the inner in the middle of a
// leased block of a concurrent run. The run must end with the panic
// re-delivered by parutil on the driver's goroutine, the pin count of
// both buffers must be back at zero, and the writer must be able to
// publish twice more — with the lease left held it would spin in
// quiesce for ever on the buffer the dead reader pinned. The stream has
// no updaters, so the only queries are the readers': validation has no
// batch to probe.
func TestLeaseReleasedWhenAQueryPanics(t *testing.T) {
	cfg := workload.DefaultUniform()
	cfg.NumPoints = 1200
	cfg.Ticks = 4
	cfg.SpaceSize = 2000
	cfg.QuerySize = 120
	cfg.Queriers = 1
	cfg.Updaters = 0
	// The 1500th query is the second tick's 300th, some way into the
	// block of whichever of the two readers makes it.
	inj := faultutil.MustNew(1, "query:delay:0s*1499, query:panic*1")
	x := NewIndex(func() core.Index {
		return faultyGrid{grid.MustNew(grid.CSR(), cfg.Bounds(), cfg.NumPoints), inj}
	}, Options{})

	var surfaced any
	func() {
		defer func() { surfaced = recover() }()
		core.RunConcurrent(x, workload.MustNewGenerator(cfg), core.ConcurrentOptions{Readers: 2})
	}()
	if wp, ok := surfaced.(*parutil.WorkerPanic); !ok {
		t.Fatalf("the run ended with %v, want parutil's WorkerPanic", surfaced)
	} else if _, ok := wp.Value.(*faultutil.InjectedPanic); !ok {
		t.Fatalf("the worker panicked with %v, want the injected panic", wp.Value)
	}

	// The updater of the abandoned tick may still be publishing; the
	// writer lock orders this after it.
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 2 && err == nil; i++ {
			_, err = x.ApplyBatch(nil)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ApplyBatch is still waiting out a lease the panicking reader held")
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if live, shadow := x.live.Load().active.Load(), x.shadow.active.Load(); live != 0 || shadow != 0 {
		t.Fatalf("pin counts after the panic: live %d, shadow %d, want 0 and 0", live, shadow)
	}
}

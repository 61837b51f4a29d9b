package epoch

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/faultutil"
	"repro/internal/geom"
	"repro/internal/xrand"
)

// stressLease is one turn of a stress reader: a lease held for 1 to 64
// queries (64 is the concurrent driver's block; 1 is what Query and
// QueryAppend take), returning the (epoch, digest) it named when taken.
// It must name the same pair after its last query: the writer may not
// restamp a buffer somebody holds.
func stressLease(x core.EpochLeaser, rr *xrand.Rand, ext float32, buf *[]uint32) (uint64, uint64) {
	l := x.Lease()
	e, d := l.Epoch()
	for k := 1 + rr.Intn(64); k > 0; k-- {
		*buf = l.QueryAppend(geom.Square(geom.Pt(
			rr.Range(testBounds.MinX, testBounds.MaxX),
			rr.Range(testBounds.MinY, testBounds.MaxY)), ext), (*buf)[:0])
	}
	if e2, d2 := l.Epoch(); e2 != e || d2 != d {
		d = ^d2 // no published epoch's digest: the caller's check fails
	}
	l.Release()
	return e, d
}

// TestRaceStressPointFamilies drives concurrent readers against the
// publish loop for every point family. Run under -race this is the
// wrapper's data-race gate; the assertions also re-check the pin
// protocol (a reader's digest always names a published epoch).
func TestRaceStressPointFamilies(t *testing.T) {
	const n, ticks, batch, readers = 1200, 20, 150, 4
	for name, mk := range pointFamilies(n) {
		t.Run(name, func(t *testing.T) {
			r := xrand.New(17)
			oracle := randomPoints(r, n)
			x := NewIndex(mk, Options{})
			x.Build(oracle)

			var mu sync.Mutex
			digests := map[uint64]uint64{0: SnapshotDigestPoints(oracle)}

			var stop atomic.Bool
			var violations atomic.Int64
			var g sync.WaitGroup
			for w := 0; w < readers; w++ {
				w := w
				g.Add(1)
				go func() {
					defer g.Done()
					rr := xrand.New(200 + uint64(w))
					var buf []uint32
					for !stop.Load() {
						e, d := stressLease(x, rr, 40, &buf)
						mu.Lock()
						want, ok := digests[e]
						mu.Unlock()
						if !ok || want != d {
							violations.Add(1)
							return
						}
					}
				}()
			}
			digest := digests[0]
			for tick := 0; tick < ticks; tick++ {
				moves := randomMoves(r, oracle, batch)
				digest = FoldMoves(digest, moves)
				mu.Lock()
				digests[uint64(tick)+1] = digest
				mu.Unlock()
				if _, err := x.ApplyBatch(moves); err != nil {
					t.Fatalf("tick %d: %v", tick, err)
				}
				applyOracle(oracle, moves)
			}
			stop.Store(true)
			g.Wait()
			if v := violations.Load(); v != 0 {
				t.Fatalf("%d queries observed an unpublished epoch", v)
			}
		})
	}
}

// TestRaceStressBoxFamilies is the box-side race gate.
func TestRaceStressBoxFamilies(t *testing.T) {
	const n, ticks, batch, readers = 1000, 15, 120, 4
	for name, mk := range boxFamilies(n) {
		t.Run(name, func(t *testing.T) {
			r := xrand.New(19)
			oracle := randomBoxes(r, n)
			x := NewBoxIndex(mk, Options{})
			x.Build(oracle)

			var mu sync.Mutex
			digests := map[uint64]uint64{0: SnapshotDigestBoxes(oracle)}

			var stop atomic.Bool
			var violations atomic.Int64
			var g sync.WaitGroup
			for w := 0; w < readers; w++ {
				w := w
				g.Add(1)
				go func() {
					defer g.Done()
					rr := xrand.New(300 + uint64(w))
					var buf []uint32
					for !stop.Load() {
						e, d := stressLease(x, rr, 60, &buf)
						mu.Lock()
						want, ok := digests[e]
						mu.Unlock()
						if !ok || want != d {
							violations.Add(1)
							return
						}
					}
				}()
			}
			digest := digests[0]
			for tick := 0; tick < ticks; tick++ {
				moves := randomBoxMoves(r, oracle, batch)
				digest = FoldBoxMoves(digest, moves)
				mu.Lock()
				digests[uint64(tick)+1] = digest
				mu.Unlock()
				if _, err := x.ApplyBatch(moves); err != nil {
					t.Fatalf("tick %d: %v", tick, err)
				}
				applyBoxOracle(oracle, moves)
			}
			stop.Store(true)
			g.Wait()
			if v := violations.Load(); v != 0 {
				t.Fatalf("%d queries observed an unpublished epoch", v)
			}
		})
	}
}

// TestRaceStressUnderFaults drives readers while every tick degrades
// through an injected fault: queries must stay on valid epochs
// throughout the recovery churn.
func TestRaceStressUnderFaults(t *testing.T) {
	const n, ticks, batch, readers = 1000, 12, 150, 3
	r := xrand.New(23)
	oracle := randomPoints(r, n)
	// Fire a mix of faults on roughly half the visits, forever armed.
	x := NewIndex(pointFamilies(n)["csr"], Options{
		Injector: faultutil.MustNew(9, "apply:torn@0.4, swap:delay:200us@0.3"),
	})
	x.Build(oracle)

	var mu sync.Mutex
	digests := map[uint64]uint64{0: SnapshotDigestPoints(oracle)}

	var stop atomic.Bool
	var violations atomic.Int64
	var g sync.WaitGroup
	for w := 0; w < readers; w++ {
		w := w
		g.Add(1)
		go func() {
			defer g.Done()
			rr := xrand.New(400 + uint64(w))
			var buf []uint32
			for !stop.Load() {
				e, d := stressLease(x, rr, 40, &buf)
				mu.Lock()
				want, ok := digests[e]
				mu.Unlock()
				if !ok || want != d {
					violations.Add(1)
					return
				}
			}
		}()
	}
	digest := digests[0]
	for tick := 0; tick < ticks; tick++ {
		moves := randomMoves(r, oracle, batch)
		digest = FoldMoves(digest, moves)
		mu.Lock()
		digests[uint64(tick)+1] = digest
		mu.Unlock()
		if _, err := x.ApplyBatch(moves); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		applyOracle(oracle, moves)
	}
	stop.Store(true)
	g.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d queries observed an unpublished epoch", v)
	}
}

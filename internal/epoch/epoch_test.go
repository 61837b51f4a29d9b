package epoch

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/faultutil"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/rtree"
	"repro/internal/tune"
	"repro/internal/xrand"
)

var testBounds = geom.R(0, 0, 1000, 1000)

// pointFamilies are the inner point indexes the wrapper is exercised
// over — the digest-gated lineup of the sequential drivers.
func pointFamilies(n int) map[string]func() core.Index {
	p := core.Params{Bounds: testBounds, NumPoints: n}
	return map[string]func() core.Index{
		"inline": func() core.Index { return grid.MustNew(grid.CPSTuned(), testBounds, n) },
		"csr":    func() core.Index { return grid.MustNew(grid.CSR(), testBounds, n) },
		"csrxy":  func() core.Index { return grid.MustNew(grid.CSRXY(), testBounds, n) },
		"auto":   func() core.Index { return tune.NewAuto(p) },
	}
}

// boxFamilies are the inner box indexes.
func boxFamilies(n int) map[string]func() core.BoxIndex {
	p := core.Params{Bounds: testBounds, NumPoints: n}
	return map[string]func() core.BoxIndex{
		"boxcsr":   func() core.BoxIndex { return grid.MustNewBoxGrid(32, testBounds, n) },
		"boxcsr2l": func() core.BoxIndex { return grid.MustNewBoxGrid2L(32, testBounds, n) },
		"boxrtree": func() core.BoxIndex { return rtree.MustNewBoxTree(16) },
		"boxauto":  func() core.BoxIndex { return tune.NewAutoBox(p) },
	}
}

func randomPoints(r *xrand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(r.Range(testBounds.MinX, testBounds.MaxX), r.Range(testBounds.MinY, testBounds.MaxY))
	}
	return pts
}

func randomBoxes(r *xrand.Rand, n int) []geom.Rect {
	out := make([]geom.Rect, n)
	for i := range out {
		cx := r.Range(testBounds.MinX, testBounds.MaxX)
		cy := r.Range(testBounds.MinY, testBounds.MaxY)
		hw := r.Range(0, 30) / 2
		hh := r.Range(0, 30) / 2
		out[i] = geom.Rect{MinX: cx - hw, MinY: cy - hh, MaxX: cx + hw, MaxY: cy + hh}
	}
	return out
}

// randomMoves moves k distinct random objects of the oracle base table,
// without applying them (the caller owns both sides).
func randomMoves(r *xrand.Rand, oracle []geom.Point, k int) []geom.Move {
	perm := r.Perm(len(oracle))
	moves := make([]geom.Move, 0, k)
	for _, id := range perm[:k] {
		moves = append(moves, geom.Move{
			ID:  uint32(id),
			Old: oracle[id],
			New: geom.Pt(r.Range(testBounds.MinX, testBounds.MaxX), r.Range(testBounds.MinY, testBounds.MaxY)),
		})
	}
	return moves
}

func randomBoxMoves(r *xrand.Rand, oracle []geom.Rect, k int) []geom.BoxMove {
	perm := r.Perm(len(oracle))
	nr := randomBoxes(r, k)
	moves := make([]geom.BoxMove, 0, k)
	for j, id := range perm[:k] {
		moves = append(moves, geom.BoxMove{ID: uint32(id), Old: oracle[id], New: nr[j]})
	}
	return moves
}

func applyOracle(oracle []geom.Point, moves []geom.Move) {
	for _, m := range moves {
		oracle[m.ID] = m.New
	}
}

func applyBoxOracle(oracle []geom.Rect, moves []geom.BoxMove) {
	for _, m := range moves {
		oracle[m.ID] = m.New
	}
}

func collectPoints(x *Index, r geom.Rect) (map[uint32]bool, uint64, uint64) {
	got := make(map[uint32]bool)
	e, d := x.Query(r, func(id uint32) { got[id] = true })
	return got, e, d
}

// TestEpochMatchesBruteForce is the digest gate: across families and
// ticks, every query on the published epoch must match the brute-force
// oracle, and the published digest must match the oracle fold chain.
func TestEpochMatchesBruteForce(t *testing.T) {
	const n, ticks, batch = 2000, 8, 300
	for name, mk := range pointFamilies(n) {
		t.Run(name, func(t *testing.T) {
			r := xrand.New(11)
			oracle := randomPoints(r, n)
			x := NewIndex(mk, Options{})
			x.Build(oracle)
			wantDigest := SnapshotDigestPoints(oracle)
			for tick := 0; tick < ticks; tick++ {
				moves := randomMoves(r, oracle, batch)
				epoch, err := x.ApplyBatch(moves)
				if err != nil {
					t.Fatalf("tick %d: %v", tick, err)
				}
				if epoch != uint64(tick)+1 {
					t.Fatalf("tick %d published epoch %d", tick, epoch)
				}
				applyOracle(oracle, moves)
				wantDigest = FoldMoves(wantDigest, moves)
				for q := 0; q < 20; q++ {
					rect := geom.Square(geom.Pt(
						r.Range(testBounds.MinX, testBounds.MaxX),
						r.Range(testBounds.MinY, testBounds.MaxY)), 60)
					got, e, d := collectPoints(x, rect)
					if e != epoch || d != wantDigest {
						t.Fatalf("query saw epoch %d digest %x, want %d/%x", e, d, epoch, wantDigest)
					}
					for i := range oracle {
						if oracle[i].In(rect) != got[uint32(i)] {
							t.Fatalf("tick %d: id %d membership mismatch in %v", tick, i, rect)
						}
					}
				}
			}
			if s := x.Stats(); s.Epochs != ticks || s.Degraded != 0 || s.PanicsContained != 0 {
				t.Fatalf("clean run stats: %+v", s)
			}
		})
	}
}

// TestEpochBoxMatchesBruteForce is the digest gate for the box wrapper.
func TestEpochBoxMatchesBruteForce(t *testing.T) {
	const n, ticks, batch = 1500, 6, 200
	for name, mk := range boxFamilies(n) {
		t.Run(name, func(t *testing.T) {
			r := xrand.New(13)
			oracle := randomBoxes(r, n)
			x := NewBoxIndex(mk, Options{})
			x.Build(oracle)
			wantDigest := SnapshotDigestBoxes(oracle)
			for tick := 0; tick < ticks; tick++ {
				moves := randomBoxMoves(r, oracle, batch)
				if _, err := x.ApplyBatch(moves); err != nil {
					t.Fatalf("tick %d: %v", tick, err)
				}
				applyBoxOracle(oracle, moves)
				wantDigest = FoldBoxMoves(wantDigest, moves)
				for q := 0; q < 15; q++ {
					rect := geom.Square(geom.Pt(
						r.Range(testBounds.MinX, testBounds.MaxX),
						r.Range(testBounds.MinY, testBounds.MaxY)), 80)
					got := make(map[uint32]bool)
					e, d := x.Query(rect, func(id uint32) { got[id] = true })
					if e != uint64(tick)+1 || d != wantDigest {
						t.Fatalf("query saw epoch %d digest %x, want %d/%x", e, d, tick+1, wantDigest)
					}
					for i := range oracle {
						if oracle[i].Intersects(rect) != got[uint32(i)] {
							t.Fatalf("tick %d: id %d membership mismatch in %v", tick, i, rect)
						}
					}
				}
			}
		})
	}
}

// Batch sizes that keep every tick of a faultRound (1200 objects; carry
// plus a batch merged after a failed tick included) on one side of
// bulkPays.
const (
	replayBatch = 60
	bulkBatch   = 400
)

// faultRound runs one wrapper through ticks with an armed injector and
// verifies: no process crash (trivially), every successful tick's
// queries exactly match the oracle, failed ticks keep serving the prior
// oracle state, and the batch replays cleanly once the fault budget is
// spent. The batch size picks the apply path under test, and the
// apply-path counters must show that no tick took the other one.
func faultRound(t *testing.T, spec string, opts Options, batch int, wantDegraded, wantErr bool) Stats {
	t.Helper()
	const n = 1200
	r := xrand.New(29)
	oracle := randomPoints(r, n)
	published := append([]geom.Point(nil), oracle...)
	opts.Injector = faultutil.MustNew(5, spec)
	x := NewIndex(pointFamilies(n)["csr"], opts)
	reg := obs.New()
	x.Instrument(reg)
	x.Build(oracle)
	wantDigest := SnapshotDigestPoints(oracle)

	var pending []geom.Move
	sawErr := false
	for tick := 0; tick < 6; tick++ {
		moves := append(pending, randomMoves(r, published, batch)...)
		pending = nil
		epoch, err := x.ApplyBatch(moves)
		if err != nil {
			// Contained failure: the batch was not applied; the prior
			// epoch must keep serving and the batch replays next tick.
			sawErr = true
			pending = moves
		} else {
			applyOracle(published, moves)
			wantDigest = FoldMoves(wantDigest, moves)
			_ = epoch
		}
		// Every query agrees with the published oracle state.
		for q := 0; q < 10; q++ {
			rect := geom.Square(geom.Pt(
				r.Range(testBounds.MinX, testBounds.MaxX),
				r.Range(testBounds.MinY, testBounds.MaxY)), 70)
			got, _, d := collectPoints(x, rect)
			if d != wantDigest {
				t.Fatalf("tick %d: query digest %x, want %x", tick, d, wantDigest)
			}
			for i := range published {
				if published[i].In(rect) != got[uint32(i)] {
					t.Fatalf("tick %d: id %d membership mismatch after fault", tick, i)
				}
			}
		}
	}
	if len(pending) != 0 {
		t.Fatalf("batch never recovered: %d moves still pending", len(pending))
	}
	s := x.Stats()
	if wantDegraded && s.Degraded == 0 {
		t.Fatalf("spec %q: expected degradation, stats %+v", spec, s)
	}
	if !wantDegraded && s.Degraded != 0 {
		t.Fatalf("spec %q: unexpected degradation, stats %+v", spec, s)
	}
	if wantErr != sawErr {
		t.Fatalf("spec %q: sawErr=%v, want %v (stats %+v)", spec, sawErr, wantErr, s)
	}
	bulk, replay := reg.Counter("epoch.apply_bulk").Value(), reg.Counter("epoch.apply_replay").Value()
	if wantBulk := bulkPays(batch, n); (wantBulk && (bulk == 0 || replay != 0)) || (!wantBulk && (replay == 0 || bulk != 0)) {
		t.Fatalf("spec %q batch %d: %d bulk and %d replay applies, want only bulk=%v", spec, batch, bulk, replay, wantBulk)
	}
	return s
}

// TestFaultMatrix injects every mode at every pipeline site and demands
// graceful degradation: the wrapper keeps serving a valid epoch, the
// inner invariants hold (validate runs CheckInvariants before every
// publish), and the batch eventually lands. The batches stay on the
// replay path; TestFaultMatrixBulk repeats the apply and swap cases on
// the bulk path.
func TestFaultMatrix(t *testing.T) {
	t.Run("apply panic recovers in-tick", func(t *testing.T) {
		s := faultRound(t, "apply:panic*1", Options{}, replayBatch, true, false)
		if s.PanicsContained == 0 || s.Retries == 0 {
			t.Fatalf("stats %+v", s)
		}
	})
	t.Run("apply torn caught by probes", func(t *testing.T) {
		faultRound(t, "apply:torn*1", Options{}, replayBatch, true, false)
	})
	t.Run("apply delay is harmless", func(t *testing.T) {
		faultRound(t, "apply:delay:2ms*2", Options{}, replayBatch, false, false)
	})
	t.Run("swap panic retries publish", func(t *testing.T) {
		s := faultRound(t, "swap:panic*1", Options{}, replayBatch, true, false)
		if s.PanicsContained == 0 {
			t.Fatalf("stats %+v", s)
		}
	})
	t.Run("swap delay is harmless", func(t *testing.T) {
		faultRound(t, "swap:delay:2ms*2", Options{}, replayBatch, false, false)
	})
	t.Run("rebuild panics too then recovers", func(t *testing.T) {
		s := faultRound(t, "apply:panic*1, build:panic*1", Options{}, replayBatch, true, false)
		if s.PanicsContained < 2 {
			t.Fatalf("stats %+v", s)
		}
	})
	t.Run("torn rebuild caught then recovers", func(t *testing.T) {
		faultRound(t, "apply:torn*1, build:torn*1", Options{}, replayBatch, true, false)
	})
	t.Run("exhausted retries serve last good epoch", func(t *testing.T) {
		// Tick 0 burns both attempts (incremental apply panics, the
		// rebuild retry panics too) and fails outright; tick 1's merged
		// batch spends the last build fault on its first attempt and
		// lands on the retry.
		s := faultRound(t, "apply:panic*1, build:panic*2", Options{MaxRetries: 1}, replayBatch, true, true)
		if s.PanicsContained != 3 {
			t.Fatalf("stats %+v", s)
		}
	})
}

// TestFaultMatrixBulk drives the same sites through batches large
// enough for the bulk apply: a contained panic, a torn landing (the
// build is coherent with the truncated snapshot, so only the last-move
// probe can refuse it) and a failed swap each degrade the tick, recover
// through applyRebuild or a publish retry, and never serve anything but
// a published epoch (faultRound checks every query after every tick).
func TestFaultMatrixBulk(t *testing.T) {
	t.Run("apply panic", func(t *testing.T) {
		s := faultRound(t, "apply:panic*1", Options{}, bulkBatch, true, false)
		if s.PanicsContained != 1 || s.Retries != 1 {
			t.Fatalf("stats %+v", s)
		}
	})
	t.Run("apply torn", func(t *testing.T) {
		s := faultRound(t, "apply:torn*1", Options{}, bulkBatch, true, false)
		if s.PanicsContained != 0 || s.Retries != 1 {
			t.Fatalf("a torn bulk apply must fail validation, not panic or publish: %+v", s)
		}
	})
	t.Run("swap panic", func(t *testing.T) {
		s := faultRound(t, "swap:panic*1", Options{}, bulkBatch, true, false)
		if s.PanicsContained != 1 || s.Retries != 1 {
			t.Fatalf("stats %+v", s)
		}
	})
	t.Run("rebuild fails too", func(t *testing.T) {
		s := faultRound(t, "apply:torn*1, build:panic*1", Options{}, bulkBatch, true, false)
		if s.PanicsContained != 1 || s.Retries != 2 {
			t.Fatalf("stats %+v", s)
		}
	})
	t.Run("exhausted retries", func(t *testing.T) {
		s := faultRound(t, "apply:panic*1, build:panic*2", Options{MaxRetries: 1}, bulkBatch, true, true)
		if s.PanicsContained != 3 {
			t.Fatalf("stats %+v", s)
		}
	})
}

// TestExactlyOneEpochVisiblePerQuery hammers queries concurrently with
// publishes and asserts every query's (epoch, digest) pair matches the
// oracle fold chain for exactly that epoch — no query ever observes a
// blend of two epochs or an unpublished digest.
func TestExactlyOneEpochVisiblePerQuery(t *testing.T) {
	const n, ticks, batch, readers = 1500, 30, 200, 4
	r := xrand.New(31)
	oracle := randomPoints(r, n)
	x := NewIndex(pointFamilies(n)["csr"], Options{})
	x.Build(oracle)

	// digests[e] is the oracle digest of epoch e, appended before each
	// publish so readers can look theirs up.
	var mu sync.Mutex
	digests := []uint64{SnapshotDigestPoints(oracle)}

	var stop atomic.Bool
	var bad atomic.Pointer[string]
	var g sync.WaitGroup
	for w := 0; w < readers; w++ {
		w := w
		g.Add(1)
		go func() {
			defer g.Done()
			rr := xrand.New(100 + uint64(w))
			for !stop.Load() {
				rect := geom.Square(geom.Pt(
					rr.Range(testBounds.MinX, testBounds.MaxX),
					rr.Range(testBounds.MinY, testBounds.MaxY)), 50)
				e, d := x.Query(rect, func(uint32) {})
				mu.Lock()
				known := uint64(len(digests))
				var want uint64
				if e < known {
					want = digests[e]
				}
				mu.Unlock()
				if e >= known || d != want {
					msg := "query observed unpublished epoch/digest"
					bad.CompareAndSwap(nil, &msg)
					return
				}
			}
		}()
	}
	wantDigest := digests[0]
	for tick := 0; tick < ticks; tick++ {
		moves := randomMoves(r, oracle, batch)
		wantDigest = FoldMoves(wantDigest, moves)
		mu.Lock()
		digests = append(digests, wantDigest)
		mu.Unlock()
		if _, err := x.ApplyBatch(moves); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		applyOracle(oracle, moves)
	}
	stop.Store(true)
	g.Wait()
	if m := bad.Load(); m != nil {
		t.Fatal(*m)
	}
}

// TestApplyBeforeBuild and name plumbing.
func TestApplyBeforeBuildFails(t *testing.T) {
	x := NewIndex(pointFamilies(10)["csr"], Options{})
	if _, err := x.ApplyBatch(nil); err == nil || !strings.Contains(err.Error(), "before Build") {
		t.Fatalf("err = %v", err)
	}
	if x.Name() != "epoch" {
		t.Fatalf("pre-build name %q", x.Name())
	}
	x.Build(randomPoints(xrand.New(1), 10))
	if !strings.Contains(x.Name(), "epoch(") {
		t.Fatalf("post-build name %q", x.Name())
	}
	if x.Len() != 10 {
		t.Fatalf("Len = %d", x.Len())
	}
}

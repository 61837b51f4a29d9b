package epoch

import (
	"fmt"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// applyCounts reads the apply-path split of a registry.
func applyCounts(reg *obs.Registry) (bulk, replay int64) {
	return reg.Counter("epoch.apply_bulk").Value(), reg.Counter("epoch.apply_replay").Value()
}

// TestApplyPathBoundary pins the policy at its boundary through the
// public API: with carry and batch of k moves each, 2k*bulkShare just
// above the population takes the bulk path and just at it the replay
// path; the first tick (empty carry) and an empty batch replay. Every
// published state is checked against brute force and the oracle chain.
func TestApplyPathBoundary(t *testing.T) {
	const n = 2000
	for _, tc := range []struct {
		name     string
		k        int
		wantBulk int64
	}{
		{"just below", n / (2 * bulkShare), 0},
		{"just above", n/(2*bulkShare) + 1, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := xrand.New(71)
			oracle := randomPoints(r, n)
			x := NewIndex(pointFamilies(n)["csr"], Options{})
			reg := obs.New()
			x.Instrument(reg)
			x.Build(oracle)
			digest := SnapshotDigestPoints(oracle)
			const ticks = 4
			for tick := 0; tick <= ticks; tick++ {
				var moves []geom.Move
				if tick < ticks { // the last tick is an empty batch
					moves = randomMoves(r, oracle, tc.k)
				}
				if _, err := x.ApplyBatch(moves); err != nil {
					t.Fatal(err)
				}
				applyOracle(oracle, moves)
				digest = FoldMoves(digest, moves)
				rect := geom.Square(geom.Pt(r.Range(0, 1000), r.Range(0, 1000)), 150)
				got, _, d := collectPoints(x, rect)
				if d != digest {
					t.Fatalf("tick %d: digest %x, want %x", tick, d, digest)
				}
				for i := range oracle {
					if oracle[i].In(rect) != got[uint32(i)] {
						t.Fatalf("tick %d: id %d membership mismatch", tick, i)
					}
				}
			}
			// Tick 0 has no carry and the closing empty batch only its
			// carry: both are half the pending share and replay.
			bulk, replay := applyCounts(reg)
			if bulk != tc.wantBulk || bulk+replay != ticks+1 {
				t.Fatalf("k=%d: %d bulk + %d replay applies, want %d bulk of %d", tc.k, bulk, replay, tc.wantBulk, ticks+1)
			}
		})
	}
}

// pathTwins drives one move stream through two wrappers of the same
// family, one forced down the replay path and one down the bulk path,
// and demands they are indistinguishable: the same (epoch, digest)
// after every tick, the same result set for every query (which must
// also be what want computes from the oracle state), the same Stats.
// The stream mixes batch sizes on both sides of the policy, an empty
// batch, and a merged batch that moves one id twice.
func pathTwins[P any, M any](t *testing.T, replay, bulk *pub[P, M], ticks [][]M, land func(tick int), want func(r geom.Rect) map[uint32]bool) {
	t.Helper()
	r := xrand.New(5)
	for tick, moves := range ticks {
		e1, err1 := replay.applyBatchVia(moves, alwaysReplay)
		e2, err2 := bulk.applyBatchVia(moves, alwaysBulk)
		if err1 != nil || err2 != nil {
			t.Fatalf("tick %d: replay err %v, bulk err %v", tick, err1, err2)
		}
		_, d1 := replay.Epoch()
		_, d2 := bulk.Epoch()
		if e1 != e2 || d1 != d2 {
			t.Fatalf("tick %d: replay published (%d, %x), bulk (%d, %x)", tick, e1, d1, e2, d2)
		}
		land(tick)
		for q := 0; q < 12; q++ {
			rect := geom.Square(geom.Pt(r.Range(0, 1000), r.Range(0, 1000)), 120)
			exp := want(rect)
			for name, x := range map[string]*pub[P, M]{"replay": replay, "bulk": bulk} {
				got := map[uint32]bool{}
				buf, _, _ := x.QueryAppend(rect, nil)
				for _, id := range buf {
					if got[id] {
						t.Fatalf("tick %d %s: id %d reported twice", tick, name, id)
					}
					got[id] = true
				}
				if len(got) != len(exp) {
					t.Fatalf("tick %d %s: %d results, brute force %d", tick, name, len(got), len(exp))
				}
				for id := range exp {
					if !got[id] {
						t.Fatalf("tick %d %s: id %d missing", tick, name, id)
					}
				}
			}
		}
	}
	if s1, s2 := replay.Stats(), bulk.Stats(); s1 != s2 || s1.Epochs != uint64(len(ticks)) || s1.Degraded != 0 {
		t.Fatalf("stats diverge or degraded: replay %+v, bulk %+v", s1, s2)
	}
}

// twinBatchSizes is the differential stream's batch-size schedule over
// n objects; 0 is the empty batch.
func twinBatchSizes(n int) []int {
	return []int{n / 3, n / 50, 0, n, n / (2 * bulkShare), 1, n / 4}
}

func TestReplayAndBulkAgreePoints(t *testing.T) {
	const n = 1500
	for name, mk := range pointFamilies(n) {
		t.Run(name, func(t *testing.T) {
			r := xrand.New(83)
			oracle := randomPoints(r, n)
			a, b := NewIndex(mk, Options{}), NewIndex(mk, Options{})
			a.Build(oracle)
			b.Build(oracle)
			state := append([]geom.Point(nil), oracle...)
			var ticks [][]geom.Move
			for _, k := range twinBatchSizes(n) {
				moves := randomMoves(r, state, k)
				applyOracle(state, moves)
				ticks = append(ticks, moves)
			}
			// A batch merged after a failed tick: id 7 moves twice and
			// only its final position may be served.
			merged := randomMoves(r, state, 40)
			merged = append(merged, geom.Move{ID: 7, Old: state[7], New: geom.Pt(100, 100)},
				geom.Move{ID: 7, Old: geom.Pt(100, 100), New: geom.Pt(300, 700)})
			ticks = append(ticks, merged)

			pathTwins(t, &a.pub, &b.pub, ticks,
				func(tick int) { applyOracle(oracle, ticks[tick]) },
				func(rect geom.Rect) map[uint32]bool {
					exp := map[uint32]bool{}
					for i, p := range oracle {
						if p.In(rect) {
							exp[uint32(i)] = true
						}
					}
					return exp
				})
		})
	}
}

func TestReplayAndBulkAgreeBoxes(t *testing.T) {
	const n = 1200
	for name, mk := range boxFamilies(n) {
		t.Run(name, func(t *testing.T) {
			r := xrand.New(89)
			oracle := randomBoxes(r, n)
			a, b := NewBoxIndex(mk, Options{}), NewBoxIndex(mk, Options{})
			a.Build(oracle)
			b.Build(oracle)
			state := append([]geom.Rect(nil), oracle...)
			var ticks [][]geom.BoxMove
			for _, k := range twinBatchSizes(n) {
				moves := randomBoxMoves(r, state, k)
				applyBoxOracle(state, moves)
				ticks = append(ticks, moves)
			}
			merged := randomBoxMoves(r, state, 40)
			mid := geom.R(10, 10, 30, 30)
			merged = append(merged, geom.BoxMove{ID: 7, Old: state[7], New: mid},
				geom.BoxMove{ID: 7, Old: mid, New: geom.R(600, 600, 640, 610)})
			ticks = append(ticks, merged)

			pathTwins(t, &a.pub, &b.pub, ticks,
				func(tick int) { applyBoxOracle(oracle, ticks[tick]) },
				func(rect geom.Rect) map[uint32]bool {
					exp := map[uint32]bool{}
					for i, b := range oracle {
						if b.Intersects(rect) {
							exp[uint32(i)] = true
						}
					}
					return exp
				})
		})
	}
}

// TestApplyBatchDoesNotAllocate pins the steady-state writer tick at
// zero allocations on both apply paths (csr inner, whose build, update
// and buffered query are allocation-free): validate's id-indexed
// scratch and the probes' result buffer are owned by the wrapper.
func TestApplyBatchDoesNotAllocate(t *testing.T) {
	const n = 4000
	for _, k := range []int{n / 50, n / 2} {
		t.Run(fmt.Sprintf("batch=%d", k), func(t *testing.T) {
			r := xrand.New(97)
			oracle := randomPoints(r, n)
			x := NewIndex(pointFamilies(n)["csr"], Options{})
			reg := obs.New()
			x.Instrument(reg)
			x.Build(oracle)
			// Two batches over the same ids, alternated, so every run
			// moves points for real without generating inside the
			// measured region.
			there := randomMoves(r, oracle, k)
			back := make([]geom.Move, len(there))
			for i, m := range there {
				back[i] = geom.Move{ID: m.ID, Old: m.New, New: m.Old}
			}
			tick := 0
			step := func() {
				moves := there
				if tick%2 == 1 {
					moves = back
				}
				tick++
				if _, err := x.ApplyBatch(moves); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 6; i++ { // carry, scratch and overflow arenas reach their size
				step()
			}
			if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
				t.Errorf("ApplyBatch allocates %.1f times per tick at steady state, want 0", allocs)
			}
			bulk, replay := applyCounts(reg)
			if wantBulk := bulkPays(2*k, n); (wantBulk && replay > 1) || (!wantBulk && bulk != 0) {
				t.Errorf("batch %d took %d bulk and %d replay applies, want bulk=%v past the first tick", k, bulk, replay, wantBulk)
			}
		})
	}
}

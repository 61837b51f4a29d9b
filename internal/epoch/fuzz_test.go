package epoch

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/faultutil"
	"repro/internal/xrand"
)

// FuzzEpochQueryDuringUpdate interleaves reader goroutines with
// ApplyBatch/swap cycles under fuzzer-chosen seeds, batch sizes, and
// fault schedules, asserting the publication contract: every lease a
// reader takes — for 1 to 64 queries (stressLease) — names exactly one
// published epoch's oracle digest from its first query to its last, and
// that epoch is one of the (at most two) epochs adjacent to the moment
// the lease was taken — never a blend, never an unpublished state. The
// batch size also picks the apply path (bulkPays over 600 objects):
// the corpus holds both sides of it, with and without faults.
func FuzzEpochQueryDuringUpdate(f *testing.F) {
	f.Add(uint64(1), uint16(64), uint8(6), false)
	f.Add(uint64(42), uint16(200), uint8(10), false)
	f.Add(uint64(7), uint16(1), uint8(3), true)
	f.Add(uint64(99), uint16(500), uint8(8), true)
	f.Add(uint64(5), uint16(600), uint8(12), true) // whole population per tick: bulk
	f.Add(uint64(3), uint16(20), uint8(12), true)  // 1/15 pending: replay on every tick
	f.Fuzz(func(t *testing.T, seed uint64, batch uint16, ticks uint8, injectFaults bool) {
		const n, readers = 600, 3
		if batch == 0 {
			batch = 1
		}
		if int(batch) > n {
			batch = n
		}
		if ticks == 0 {
			ticks = 1
		}
		if ticks > 12 {
			ticks = 12
		}
		r := xrand.New(seed)
		oracle := randomPoints(r, n)
		opts := Options{}
		if injectFaults {
			opts.Injector = faultutil.MustNew(seed, "apply:torn@0.3, swap:panic*1@0.2")
		}
		x := NewIndex(pointFamilies(n)["csr"], opts)
		x.Build(oracle)

		// digests[e] is epoch e's oracle digest, appended before the
		// corresponding publish.
		var mu sync.Mutex
		digests := []uint64{SnapshotDigestPoints(oracle)}
		lookup := func(e uint64) (uint64, uint64, bool) {
			mu.Lock()
			defer mu.Unlock()
			if e >= uint64(len(digests)) {
				return 0, 0, false
			}
			return digests[e], uint64(len(digests)) - 1, true
		}

		var stop atomic.Bool
		var g sync.WaitGroup
		errc := make(chan string, readers)
		for w := 0; w < readers; w++ {
			w := w
			g.Add(1)
			go func() {
				defer g.Done()
				rr := xrand.New(seed ^ (uint64(w)+1)*0x9e3779b97f4a7c15)
				var buf []uint32
				for !stop.Load() {
					// Epochs published strictly before the lease was taken.
					mu.Lock()
					before := uint64(len(digests)) - 1
					mu.Unlock()
					e, d := stressLease(x, rr, 50, &buf)
					want, _, ok := lookup(e)
					if !ok || want != d {
						errc <- "leased digest does not match any published epoch"
						return
					}
					// The leased epoch must be adjacent to the moment of
					// the lease: it can never EXCEED what the oracle has
					// announced (checked above), and it can never regress
					// below the epoch live when the lease was taken minus
					// the one concurrent swap.
					if e+1 < before {
						// The pin protocol reads the CURRENT live buffer;
						// with one writer, at most one publish can race
						// the pin, so the lease can lag the announced
						// head by at most one epoch.
						errc <- "lease taken on an epoch older than the adjacent pair"
						return
					}
				}
			}()
		}
		digest := digests[0]
		failed := false
		for tick := 0; tick < int(ticks) && !failed; tick++ {
			moves := randomMoves(r, oracle, int(batch))
			digest = FoldMoves(digest, moves)
			mu.Lock()
			digests = append(digests, digest)
			mu.Unlock()
			if _, err := x.ApplyBatch(moves); err != nil {
				// A fault schedule that exhausts retries is a legal
				// outcome; roll the oracle back and stop publishing.
				mu.Lock()
				digests = digests[:len(digests)-1]
				mu.Unlock()
				digest = digests[len(digests)-1]
				failed = true
				continue
			}
			applyOracle(oracle, moves)
		}
		stop.Store(true)
		g.Wait()
		close(errc)
		for msg := range errc {
			t.Fatal(msg)
		}
	})
}

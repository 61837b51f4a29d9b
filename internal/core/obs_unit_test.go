package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// TestLatRecorderBoundedAgreement is the ISSUE 10 satellite contract at
// the driver level: once readers overflow the exact-sample cap, the
// percentiles come from the shared histogram, in bounded memory, and
// agree with the exact-sample interpolation within one bucket width.
func TestLatRecorderBoundedAgreement(t *testing.T) {
	old := maxExactLatSamples
	maxExactLatSamples = 64
	defer func() { maxExactLatSamples = old }()

	rng := xrand.New(7)
	hist := obs.NewHistogram()
	recs := []*latRecorder{{hist: hist}, {hist: hist}, {hist: hist}}
	var all []float64
	for i := 0; i < 30000; i++ {
		// Latency-shaped draws: tens of microseconds with a heavy tail.
		d := time.Duration(20000 * math.Exp(float64(rng.Float32()*3)))
		recs[i%len(recs)].record(d)
		all = append(all, float64(d))
	}

	var dropped int64
	for _, l := range recs {
		dropped += l.dropped
		if len(l.samples) > 64 {
			t.Fatalf("recorder retained %d exact samples past the cap", len(l.samples))
		}
	}
	if dropped == 0 {
		t.Fatal("test did not overflow the exact-sample cap")
	}

	p50, p95, p99 := latPercentiles(recs, hist)
	exact := stats.Percentiles(all, 0.50, 0.95, 0.99)
	for i, got := range []time.Duration{p50, p95, p99} {
		lo, hi := obs.BucketBounds(histBucketOf(int64(exact[i])))
		width := float64(hi - lo)
		if math.Abs(float64(got)-exact[i]) > width {
			t.Errorf("percentile %d: histogram %v vs exact %.0fns differs by more than one bucket width %.0f",
				i, got, exact[i], width)
		}
	}
}

// histBucketOf finds the bucket whose bounds contain v by scanning the
// exported geometry (the test must not reach into obs internals).
func histBucketOf(v int64) int {
	for i := 0; ; i++ {
		lo, hi := obs.BucketBounds(i)
		if v >= lo && (v < hi || hi == math.MaxInt64) {
			return i
		}
	}
}

// TestLatRecorderExactPathUnderCap pins the short-run behavior: below
// the cap nothing is dropped and the percentiles are the exact
// interpolated ones, bit for bit.
func TestLatRecorderExactPathUnderCap(t *testing.T) {
	hist := obs.NewHistogram()
	recs := []*latRecorder{{hist: hist}, {hist: hist}}
	var all []float64
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i * 1000)
		recs[i%2].record(d)
		all = append(all, float64(d))
	}
	p50, p95, p99 := latPercentiles(recs, hist)
	exact := stats.Percentiles(all, 0.50, 0.95, 0.99)
	if float64(p50) != exact[0] || float64(p95) != exact[1] || float64(p99) != exact[2] {
		t.Fatalf("exact path diverged: got (%v %v %v), want (%.0f %.0f %.0f)",
			p50, p95, p99, exact[0], exact[1], exact[2])
	}
}

// TestLatRecorderLapsPartitionTheChain pins the chained-stamp contract:
// n laps after a start record n intervals that add up to the time from
// that start to the last lap, none negative — for the recorder's first
// chain and for a later one, which the laps before it must not leak into.
func TestLatRecorderLapsPartitionTheChain(t *testing.T) {
	l := latRecorder{hist: obs.NewHistogram()}
	for chain := 0; chain < 2; chain++ {
		l.start()
		opened, first := l.prev, len(l.samples)
		for i := 0; i < 100; i++ {
			l.lap()
		}
		var sum time.Duration
		for _, d := range l.samples[first:] {
			if d < 0 {
				t.Fatalf("negative lap %v", d)
			}
			sum += d
		}
		if len(l.samples) != first+100 || sum != l.prev-opened {
			t.Fatalf("chain %d: %d laps summing to %v, chain ran %v", chain, len(l.samples)-first, sum, l.prev-opened)
		}
	}
	if l.count() != 200 {
		t.Fatalf("count() = %d after 200 laps", l.count())
	}
}

// TestConcurrentLatSampleTracksEveryQuery is the evidence behind
// sampling by position, and behind rotating the position. Every query of
// a stream is stamped (latSample = queryBlock) as the readers drain it in
// claimed blocks, and the p50 and p99 over the stamps sampleWindow would
// have taken with the production constant are held against the same
// run's p50 and p99 over all of them: within one histogram bucket width,
// at 1 and 3 readers. One run gives both figures, so host noise between
// runs is not in the comparison; what is left is sampling error on a
// timed run, so a reader count gets three attempts before it fails (one
// attempt in eighty misses on the reference host, none of 400 series all
// three). A window fixed on the first eight places of the block fails
// it every time: its p99 reads 18-25 % over the stream's.
func TestConcurrentLatSampleTracksEveryQuery(t *testing.T) {
	sample, oldCap := latSample, maxExactLatSamples
	maxExactLatSamples = 1 << 20
	defer func() { latSample, maxExactLatSamples = sample, oldCap }()

	const blocks, passes = 101, 24
	cfg := workload.DefaultUniform()
	cfg.NumPoints = blocks * queryBlock // full blocks only: a stamp's index says its place in its block
	cfg.SpaceSize = 7800                // the default stream's density
	gen := workload.MustNewGenerator(cfg)
	g := grid.MustNew(grid.CSR(), cfg.Bounds(), cfg.NumPoints)
	g.Build(gen.Positions(nil))
	queriers := make([]uint32, cfg.NumPoints)
	// One never-republished epoch, leased through the adapter: the
	// stamps are the same code whatever the lease is.
	leaser := func(*epochLog) EpochLeaser { return queryLease(g.QueryAppend) }

	attempt := func(readers int) (diffs []string) {
		states := newReaderStates(readers, 1, obs.NewHistogram(), leaser)
		served := make([]int, readers) // blocks each reader had drained before the pass
		var all, sampled []float64
		for pass := 0; pass <= passes; pass++ {
			// A new cut of the stream into blocks every pass: which
			// queries a window lands on must not repeat, or the sample is
			// the same few queries over and over and reads their cost.
			for i := range queriers {
				queriers[i] = uint32((i + 9*pass) % len(queriers))
			}
			latSample = queryBlock
			drainTick(states, gen.QueryRect, queriers)
			latSample = sample // sampleWindow below is the production one
			for w, st := range states {
				// Every block is full, so a reader's i-th stamp of the pass
				// is place i%queryBlock of its (i/queryBlock)-th block. Pass 0
				// grows the arrays and is not read; each later pass rewrites
				// the same few pages of stamps, so what is timed is the
				// queries and not the recorder's walk through cold memory.
				stamps := st.lat.samples
				if pass == 0 {
					stamps = nil
				}
				for i, d := range stamps {
					all = append(all, float64(d))
					if from, n := sampleWindow(served[w]+i/queryBlock, queryBlock); uint(i%queryBlock-from) < uint(n) {
						sampled = append(sampled, float64(d))
					}
				}
				served[w] += len(st.lat.samples) / queryBlock
				st.lat.samples = st.lat.samples[:0]
			}
		}
		if len(all) != passes*len(queriers) || len(sampled)*queryBlock != len(all)*sample {
			t.Fatalf("%d stamps, %d of them sampled, over %d queries", len(all), len(sampled), passes*len(queriers))
		}
		qs := []float64{0.50, 0.99}
		want, got := stats.Percentiles(all, qs...), stats.Percentiles(sampled, qs...)
		for i, q := range qs {
			lo, hi := obs.BucketBounds(histBucketOf(int64(want[i])))
			if math.Abs(got[i]-want[i]) > float64(hi-lo) {
				diffs = append(diffs, fmt.Sprintf("p%.0f: %.0f ns over the sample, %.0f ns over every query, bucket width %d",
					q*100, got[i], want[i], hi-lo))
			}
		}
		return diffs
	}
	for _, readers := range []int{1, 3} {
		var diffs []string
		for try := 0; try < 3; try++ {
			if diffs = attempt(readers); len(diffs) == 0 {
				break
			}
			t.Logf("%d readers, attempt %d: %v", readers, try+1, diffs)
		}
		if len(diffs) != 0 {
			t.Errorf("%d readers: the position sample does not track the stream: %v", readers, diffs)
		}
	}
}

// TestEpochLogMatchesPlainMap drives the last-observation fast path and
// a plain map with the reference semantics through the same observation
// stream (runs of one epoch, returns to older epochs, and same-epoch
// digest mismatches) and demands the same violations and the same
// first-digest table.
func TestEpochLogMatchesPlainMap(t *testing.T) {
	rng := xrand.New(3)
	l := epochLog{seen: map[uint64]uint64{}}
	ref := map[uint64]uint64{}
	var refBad int64
	ep := uint64(0)
	for i := 0; i < 5000; i++ {
		switch rng.Intn(10) {
		case 0:
			ep++
		case 1:
			if ep > 0 {
				ep--
			}
		}
		dg := ep * 31
		if rng.Intn(50) == 0 {
			dg++ // a blended read
		}
		l.observe(ep, dg)
		if prev, ok := ref[ep]; ok && prev != dg {
			refBad++
		} else {
			ref[ep] = dg
		}
	}
	if refBad == 0 {
		t.Fatal("stream produced no violations; the test is vacuous")
	}
	if l.bad != refBad || len(l.seen) != len(ref) {
		t.Fatalf("bad %d (want %d), %d epochs seen (want %d)", l.bad, refBad, len(l.seen), len(ref))
	}
	for e, d := range ref {
		if l.seen[e] != d {
			t.Fatalf("epoch %d: first digest %x, want %x", e, l.seen[e], d)
		}
	}
}

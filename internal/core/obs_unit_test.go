package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
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
// n laps after one start record n intervals that add up to the time
// from start to the last lap, none negative.
func TestLatRecorderLapsPartitionTheChain(t *testing.T) {
	l := latRecorder{hist: obs.NewHistogram()}
	l.start()
	for i := 0; i < 100; i++ {
		l.lap()
	}
	var sum time.Duration
	for _, d := range l.samples {
		if d < 0 {
			t.Fatalf("negative lap %v", d)
		}
		sum += d
	}
	if len(l.samples) != 100 || sum != l.prev {
		t.Fatalf("%d laps summing to %v, chain is at %v", len(l.samples), sum, l.prev)
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

package main

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/workload"
)

// smallBoxes is a box stream small enough for unit tests.
func smallBoxes(seed uint64, ticks int) workload.BoxConfig {
	c := workload.DefaultUniformBoxes()
	c.Seed = seed
	c.Ticks = ticks
	c.NumPoints = 3000
	c.SpaceSize = 6000
	return c
}

func TestBoxReplayMatchesLiveGenerator(t *testing.T) {
	cfg := smallBoxes(7, 6)
	p := core.ParamsFor(cfg.Config)
	newIndex := func() core.BoxIndex { return grid.MustNewBoxGrid2L(32, p.Bounds, p.NumPoints) }

	live := core.RunBoxes(newIndex(), workload.MustNewBoxGenerator(cfg), core.Options{})
	trace, err := recordBoxes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := newTickLog(1, cfg.Ticks)
	replayed := core.RunBoxes(newIndex(), newBoxReplay(trace, log), core.Options{})
	if digestOf(replayed) != digestOf(live) {
		t.Errorf("replayed %+v, live generator %+v", digestOf(replayed), digestOf(live))
	}
	if live.Pairs == 0 || live.Updates == 0 {
		t.Fatalf("degenerate stream: %+v", digestOf(live))
	}
	if len(log.ends) != cfg.Ticks {
		t.Errorf("tick log saw %d ticks, want %d", len(log.ends), cfg.Ticks)
	}
	// A second replay of the same trace starts from the initial state.
	again := core.RunBoxes(newIndex(), newBoxReplay(trace, newTickLog(1, cfg.Ticks)), core.Options{})
	if digestOf(again) != digestOf(live) {
		t.Errorf("second replay %+v, want %+v", digestOf(again), digestOf(live))
	}
}

func TestPointReplayMatchesLiveGenerator(t *testing.T) {
	cfg := smallBoxes(3, 5).Config
	live := core.Run(core.NewBruteForce(), workload.MustNewGenerator(cfg), core.Options{})
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replayed := core.Run(core.NewBruteForce(), newPointReplay(trace, newTickLog(1, cfg.Ticks)), core.Options{})
	if digestOf(replayed) != digestOf(live) {
		t.Errorf("replayed %+v, live generator %+v", digestOf(replayed), digestOf(live))
	}
}

func TestThinnedQueriersKeepObjectsAndUpdates(t *testing.T) {
	cfg := smallBoxes(5, 3).Config
	trace, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := core.Run(core.NewBruteForce(), newPointReplay(trace, newTickLog(1, cfg.Ticks)), core.Options{})
	src := newPointReplay(trace, newTickLog(1, cfg.Ticks))
	src.every = 4
	thin := core.Run(core.NewBruteForce(), src, core.Options{})
	if thin.Updates != full.Updates {
		t.Errorf("thinning changed the update stream: %d vs %d", thin.Updates, full.Updates)
	}
	want := int64(0)
	for _, tt := range trace.Ticks {
		want += int64((len(tt.Queriers) + 3) / 4)
	}
	if thin.Queries != want {
		t.Errorf("thinned run issued %d queries, want %d of %d", thin.Queries, want, full.Queries)
	}
	if got := thinned([]uint32{1, 2, 3}, 1, nil); len(got) != 3 {
		t.Errorf("k=1 must keep every querier, got %v", got)
	}
}

func TestTickLogGaps(t *testing.T) {
	base := time.Unix(1000, 0)
	at := func(ms time.Duration) time.Time { return base.Add(ms * time.Millisecond) }
	l := newTickLog(2, 5)
	// Five ticks, each followed by a 1 ms probe; the CPU clock runs at
	// half the wall clock's speed, as it does for a process that shares
	// its CPU.
	l.starts, l.cpuStarts = l.starts[:0], l.cpuStarts[:0]
	start := time.Duration(0)
	for _, end := range []time.Duration{10, 25, 45, 70, 100} {
		l.starts = append(l.starts, at(start))
		l.cpuStarts = append(l.cpuStarts, start*time.Millisecond/2)
		l.ends = append(l.ends, at(end))
		l.cpuEnds = append(l.cpuEnds, end*time.Millisecond/2)
		l.probeCPU = append(l.probeCPU, time.Millisecond/2)
		start = end + 1
	}
	l.starts = append(l.starts, at(start))
	l.cpuStarts = append(l.cpuStarts, start*time.Millisecond/2)

	got := l.gaps()
	want := []float64{19, 24, 29} // ticks 2, 3, 4: each from the end of the probe before it
	if len(got) != len(want) {
		t.Fatalf("gaps = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("gap %d = %v ms, want %v", i, got[i], want[i])
		}
	}
	if ticks, probes := l.cpuMs(2, 5); ticks != (19+24+29)/2.0 || probes != 1.5 {
		t.Errorf("measured ticks took %v ms of CPU and their probes %v, want 36 and 1.5", ticks, probes)
	}
	if ticks, probes := l.cpuMs(0, 2); ticks != (10+14)/2.0 || probes != 1 {
		t.Errorf("warm-up ticks took %v ms of CPU and their probes %v, want 12 and 1", ticks, probes)
	}
	if d := l.probeWall(3); d != time.Millisecond {
		t.Errorf("probe after tick 3 took %v of wall time, want 1ms", d)
	}
	if g := newTickLog(2, 5).gaps(); len(g) != 0 {
		t.Errorf("no ticks, but gaps = %v", g)
	}
}

func TestTickLogMarksEveryTickAndTheWarmBoundary(t *testing.T) {
	l := newTickLog(2, 4)
	l.probe = newProbe()
	seen := 0
	l.onTickEnd = func(end, next time.Time) {
		seen++
		if next.Before(end) {
			t.Error("next tick starts before this one ended")
		}
	}
	for i := 0; i < 4; i++ {
		if i == 1 && l.allocAtWarm != 0 {
			t.Error("allocation mark taken before the last warm-up tick")
		}
		l.tickEnded()
	}
	if len(l.ends) != 4 || len(l.starts) != 5 || len(l.cpuEnds) != 4 || len(l.cpuStarts) != 5 || len(l.probeCPU) != 4 || seen != 4 {
		t.Errorf("ends %d, starts %d, callbacks %d", len(l.ends), len(l.starts), seen)
	}
	if l.allocAtWarm == 0 {
		t.Error("no allocation mark at the end of the warm-up")
	}
	for i := range l.ends {
		if l.ends[i].Before(l.starts[i]) || l.starts[i+1].Before(l.ends[i]) ||
			l.cpuEnds[i] < l.cpuStarts[i] || l.cpuStarts[i+1] < l.cpuEnds[i] {
			t.Errorf("tick %d: clock readings out of order", i)
		}
	}
	if _, probes := l.cpuMs(0, 4); probes <= 0 {
		t.Error("four probes took no CPU time")
	}
}

// The probe's join must be the join: its pair count equals a brute-force
// count over the same points and squares, and repeats run for run.
func TestProbeCountsWhatBruteForceCounts(t *testing.T) {
	p := newProbe()
	want := 0
	for q := 0; q < probePoints; q += probeEvery {
		x0, x1 := p.x[q]-probeHalf, p.x[q]+probeHalf
		y0, y1 := p.y[q]-probeHalf, p.y[q]+probeHalf
		for i := range p.x {
			if p.x[i] >= x0 && p.x[i] <= x1 && p.y[i] >= y0 && p.y[i] <= y1 {
				want++
			}
		}
	}
	for rep := 0; rep < 3; rep++ {
		if p.timed() <= 0 {
			t.Errorf("run %d took no CPU time", rep)
		}
		if p.hits != want {
			t.Fatalf("run %d: probe counted %d pairs, brute force %d", rep, p.hits, want)
		}
	}
	if want < probePoints/probeEvery {
		t.Errorf("%d pairs: every query must at least find its own point", want)
	}
	if got := refMs(3*probeRefMs, probeRefMs); got != 3*probeRefMs {
		t.Errorf("at the reference speed a time reads as measured, got %v", got)
	}
	if got := refMs(10, 2*probeRefMs); got != 5 {
		t.Errorf("on a host half as fast 10 ms read %v, want 5", got)
	}
}

package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/workload"
)

// digest is what two runs over the same stream must agree on exactly.
type digest struct {
	pairs            int64
	hash             uint64
	queries, updates int64
}

func digestOf(r *core.Result) digest {
	return digest{pairs: r.Pairs, hash: r.Hash, queries: r.Queries, updates: r.Updates}
}

// run is one workload being measured in this process: its recorded
// stream, its reference digest, and the rounds measured so far.
type run struct {
	spec   spec
	seed   uint64
	params core.Params
	// points is the recorded stream of the point and service workloads
	// (and the point twin of box_uniform in the traced pass); boxes is
	// the recorded stream of box_uniform.
	points *workload.Trace
	boxes  *boxTrace
	// recordS and traceMB are the benchmark's own cost of materialising
	// the stream, reported apart from the program's set-up.
	recordS, traceMB float64
	// ref is the technique's digest over the full stream, agreed with an
	// independent index family; every round must reproduce it.
	ref      digest
	verified bool

	rounds []round // untraced rounds: the end-to-end numbers
	traced []round // traced rounds: never mixed into the above

	attempted, failed int // ticks
	failures          []string
	technique         string // the index as built, tuner decision included
}

// round is one driver call over the whole stream with a fresh index.
type round struct {
	tickMs  []float64         // wall time of every measured tick
	phases  []core.PhaseTimes // measured ticks, sequential drivers only
	tickRef float64           // CPU time per measured tick, in ms of the reference host
	probeMs float64           // CPU time of the probe beside the measured ticks, as measured
	setupS  float64           // factory call to end of warm-up: CPU time, in s of the reference host
	heapMB  float64           // live heap the round's index holds
	allocKB float64           // allocation per measured tick
	digest  digest
	conc    *core.ConcurrentResult // service driver only
}

func newRun(s spec, seed uint64) (*run, error) {
	r := &run{spec: s, seed: seed}
	cfg := s.seeded(seed, s.ticks())
	r.params = core.ParamsFor(cfg.Config)
	start := time.Now()
	if s.kind == seqBox {
		t, err := recordBoxes(cfg)
		if err != nil {
			return nil, fmt.Errorf("record %s: %w", s.name, err)
		}
		r.boxes = t
		r.traceMB = float64(t.bytes()) / 1e6
	} else {
		t, err := workload.Record(cfg.Config)
		if err != nil {
			return nil, fmt.Errorf("record %s: %w", s.name, err)
		}
		r.points = t
		r.traceMB = float64(pointTraceBytes(t)) / 1e6
	}
	r.recordS = time.Since(start).Seconds()
	return r, nil
}

// readers is the service workload's reader count: every CPU but the one
// the driver's updater goroutine occupies.
func readers() int {
	if n := runtime.GOMAXPROCS(0) - 1; n > 1 {
		return n
	}
	return 1
}

// driven is what one driver call hands back.
type driven struct {
	seq  *core.Result
	conc *core.ConcurrentResult
	idx  interface{ Name() string } // the factory's index, kept reachable for the heap reading
}

// drive replays the workload's stream through its driver with a fresh
// index from the technique's factory. With a tracer, the index handed to
// the driver is the tracer's forwarding decorator around it.
func (r *run) drive(log *tickLog, tr *tracer, opts core.Options) driven {
	switch r.spec.kind {
	case seqBox:
		made := r.spec.box(r.params)
		idx := made
		if tr != nil {
			idx = tr.wrapBox(made)
		}
		return driven{seq: core.RunBoxes(idx, newBoxReplay(r.boxes, log), opts), idx: made}
	case service:
		made := epoch.NewIndex(func() core.Index { return r.spec.point(r.params) }, epoch.Options{})
		var idx core.EpochIndex = made
		if tr != nil {
			idx = tr.wrapEpoch(made)
		}
		res := core.RunConcurrent(idx, newPointReplay(r.points, log), core.ConcurrentOptions{Readers: readers(), Obs: opts.Obs})
		return driven{conc: res, idx: made}
	default:
		made := r.spec.point(r.params)
		idx := made
		if tr != nil {
			idx = tr.wrapPoint(made)
		}
		return driven{seq: core.Run(idx, newPointReplay(r.points, log), opts), idx: made}
	}
}

func liveHeap() uint64 {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return mem.HeapAlloc
}

// measureRound runs one round and checks it against the reference. A
// panic out of the program under test fails the round's ticks instead of
// taking the benchmark down with no result.
func (r *run) measureRound(tr *tracer) (out round, err error) {
	ticks := r.spec.ticks()
	r.attempted += ticks
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("round panicked: %v", p)
		}
		if err != nil {
			r.fail(ticks, err.Error())
		}
	}()

	log := newTickLog(r.spec.warm, ticks)
	log.probe = hostProbe
	if tr != nil {
		tr.beginRound(r.spec.name, len(r.traced), log)
	}
	heap0 := liveHeap()
	log.begin()
	d := r.drive(log, tr, core.Options{KeepPerTick: true})
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	allocEnd := mem.TotalAlloc
	heap1 := liveHeap()
	runtime.KeepAlive(d.idx)

	if len(log.ends) != ticks {
		return out, fmt.Errorf("driver ran %d ticks, want %d", len(log.ends), ticks)
	}
	warm, measured := r.spec.warm, float64(r.spec.measured)
	setupCPU, warmProbes := log.cpuMs(0, warm)
	out.setupS = refMs(setupCPU, warmProbes/float64(warm)) / 1e3
	tickCPU, probes := log.cpuMs(warm, ticks)
	out.tickRef = refMs(tickCPU/measured, probes/measured)
	out.probeMs = probes / measured
	out.tickMs = log.gaps()
	out.heapMB = (float64(heap1) - float64(heap0)) / 1e6
	out.allocKB = float64(allocEnd-log.allocAtWarm) / 1e3 / measured
	out.conc = d.conc
	r.technique = d.idx.Name()

	if d.seq != nil {
		out.digest = digestOf(d.seq)
		// The probe ran inside ApplyUpdates, which the driver's update
		// phase times: take it out again.
		for t := range d.seq.PerTick {
			d.seq.PerTick[t].Update -= log.probeWall(t)
		}
		out.phases = d.seq.PerTick[warm:]
		if out.digest != r.ref {
			err = fmt.Errorf("digest %+v differs from the reference %+v", out.digest, r.ref)
		}
	} else {
		c := d.conc
		out.digest = digest{queries: c.Queries, updates: c.Updates}
		switch {
		case c.Violations != 0 || c.FailedTicks != 0 || c.Stats.Degraded != 0:
			err = fmt.Errorf("epoch consistency: %d violations, %d failed ticks, %d degraded",
				c.Violations, c.FailedTicks, c.Stats.Degraded)
		case c.Queries != r.ref.queries || c.Updates != r.ref.updates:
			err = fmt.Errorf("service ran %d queries / %d updates, the sequential run %d / %d",
				c.Queries, c.Updates, r.ref.queries, r.ref.updates)
		}
	}
	if tr != nil {
		tr.endRound(d.seq)
	}
	return out, err
}

func (r *run) fail(ticks int, why string) {
	r.failed += ticks
	r.failures = append(r.failures, r.spec.name+": "+why)
}

package main

import (
	"runtime"
	"time"

	"repro/internal/geom"
	"repro/internal/workload"
)

// This file holds the replaying sources. The program under test receives
// only a materialised stream: the generator (and its seed) run once, in
// benchmark code, before any timed region, so the drivers' query and
// update phases time the index and the driver — not the Bernoulli
// querier draws and velocity sampling of a live generator.

// tickLog is the benchmark's view of a driver run from the outside: one
// reading of the clocks per tick, taken when the driver hands the tick's
// update batch back through ApplyUpdates — the last thing every driver
// (sequential, parallel, concurrent) does in a tick. It is the only
// per-tick timing core.RunConcurrent offers, and it marks the end of the
// warm-up for set-up time and allocation accounting on every driver.
//
// A log with a probe measures it once after every tick, between that
// tick's reading and the next tick's start: a tick is then the stretch
// from the end of one probe to the start of the next (see probe.go).
type tickLog struct {
	warm  int // ticks excluded from timing
	probe *probe
	// ends[t] is the wall clock when tick t's batch was applied, and
	// starts[t+1] the wall clock when the probe after it had run, which
	// is when tick t+1 begins; starts[0] is when the log was made.
	// cpuEnds and cpuStarts are the process CPU clock at the same moments.
	ends, starts       []time.Time
	cpuEnds, cpuStarts []time.Duration
	probeCPU           []time.Duration // the probe after tick t
	// allocAtWarm is MemStats.TotalAlloc read as the last warm-up tick
	// ended (inside that excluded tick, so the stop-the-world read is
	// never charged to a measured one).
	allocAtWarm uint64
	// onTickEnd, when set, is called after each tick with its end and
	// the start of the next one (the tracer closes the tick's spans
	// there).
	onTickEnd func(end, next time.Time)
}

func newTickLog(warm, ticks int) *tickLog {
	l := &tickLog{
		warm:      warm,
		ends:      make([]time.Time, 0, ticks),
		starts:    make([]time.Time, 1, ticks+1),
		cpuEnds:   make([]time.Duration, 0, ticks),
		probeCPU:  make([]time.Duration, 0, ticks),
		cpuStarts: make([]time.Duration, 1, ticks+1),
	}
	l.begin()
	return l
}

// begin marks the start of tick 0: now. A log begins when it is made;
// a caller that does other work between making it and handing it to the
// driver begins it again.
func (l *tickLog) begin() { l.starts[0], l.cpuStarts[0] = time.Now(), processCPU() }

func (l *tickLog) tickEnded() {
	t := len(l.ends)
	if t == l.warm-1 {
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		l.allocAtWarm = mem.TotalAlloc
	}
	now, cpu := time.Now(), processCPU()
	l.ends = append(l.ends, now)
	l.cpuEnds = append(l.cpuEnds, cpu)
	if l.probe != nil {
		l.probeCPU = append(l.probeCPU, l.probe.timed())
		now, cpu = time.Now(), processCPU()
	}
	l.starts = append(l.starts, now)
	l.cpuStarts = append(l.cpuStarts, cpu)
	if l.onTickEnd != nil {
		l.onTickEnd(l.ends[t], now)
	}
}

// gaps returns the wall time of every measured tick, from its start to
// its end, in milliseconds.
func (l *tickLog) gaps() []float64 {
	out := make([]float64, 0, max(len(l.ends)-l.warm, 0))
	for t := l.warm; t < len(l.ends); t++ {
		out = append(out, ms(l.ends[t].Sub(l.starts[t])))
	}
	return out
}

// cpuMs returns the CPU time of ticks [lo, hi) and of the probes that
// followed them, each summed, in milliseconds.
func (l *tickLog) cpuMs(lo, hi int) (ticks, probes float64) {
	for t := lo; t < hi; t++ {
		ticks += ms(l.cpuEnds[t] - l.cpuStarts[t])
		probes += ms(l.probeCPU[t])
	}
	return ticks, probes
}

// probeWall is the wall time of the probe after tick t. It falls inside
// the driver's update phase, whose timer runs across ApplyUpdates.
func (l *tickLog) probeWall(t int) time.Duration { return l.starts[t+1].Sub(l.ends[t]) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// thinned keeps every k-th querier of a tick (all of them for k <= 1).
// The brute-force oracle costs a full scan per query, so it and the
// technique it checks replay the stream with thinned queriers: the
// objects and the updates are the full stream's.
func thinned(queriers []uint32, k int, into []uint32) []uint32 {
	if k <= 1 {
		return queriers
	}
	into = into[:0]
	for i := 0; i < len(queriers); i += k {
		into = append(into, queriers[i])
	}
	return into
}

// pointReplay replays a recorded point trace and logs tick ends.
type pointReplay struct {
	*workload.Player
	log   *tickLog
	every int // querier thinning, see thinned
	thin  []uint32
}

var _ workload.Source = (*pointReplay)(nil)

func newPointReplay(t *workload.Trace, log *tickLog) *pointReplay {
	return &pointReplay{Player: workload.NewPlayer(t), log: log}
}

// Queriers implements workload.Source.
func (p *pointReplay) Queriers() []uint32 {
	p.thin = thinned(p.Player.Queriers(), p.every, p.thin)
	return p.thin
}

// ApplyUpdates implements workload.Source.
func (p *pointReplay) ApplyUpdates(batch []workload.Update) {
	p.Player.ApplyUpdates(batch)
	p.log.tickEnded()
}

// boxTickTrace is the recorded event stream of one box tick.
type boxTickTrace struct {
	queriers []uint32
	updates  []workload.BoxUpdate
}

// boxTrace is a materialised box workload: internal/workload records
// point streams only, so the box twin lives here.
type boxTrace struct {
	cfg     workload.BoxConfig
	initial []geom.Rect
	// centres are the objects' initial kinematic positions, which the
	// query squares are centred on. The box generator's centres are the
	// point workload of the embedded Config byte for byte, so they are
	// read off a point generator rather than recovered inexactly from
	// the MBRs.
	centres []geom.Point
	ticks   []boxTickTrace
}

// recordBoxes runs a box generator for cfg.Ticks ticks and keeps the
// whole stream.
func recordBoxes(cfg workload.BoxConfig) (*boxTrace, error) {
	g, err := workload.NewBoxGenerator(cfg)
	if err != nil {
		return nil, err
	}
	pg, err := workload.NewGenerator(cfg.Config)
	if err != nil {
		return nil, err
	}
	t := &boxTrace{
		cfg:     cfg,
		initial: g.Rects(nil),
		centres: pg.Positions(nil),
		ticks:   make([]boxTickTrace, 0, cfg.Ticks),
	}
	for i := 0; i < cfg.Ticks; i++ {
		tt := boxTickTrace{
			queriers: append([]uint32(nil), g.Queriers()...),
			updates:  append([]workload.BoxUpdate(nil), g.Updates()...),
		}
		g.ApplyUpdates(tt.updates)
		t.ticks = append(t.ticks, tt)
	}
	return t, nil
}

// bytes is the stream's heap footprint, reported as workload.trace_mb.
func (t *boxTrace) bytes() int64 {
	n := int64(len(t.initial)) * (16 + 8)
	for _, tt := range t.ticks {
		n += int64(len(tt.queriers))*4 + int64(len(tt.updates))*36
	}
	return n
}

func pointTraceBytes(t *workload.Trace) int64 {
	n := int64(len(t.Initial)) * 16
	for _, tt := range t.Ticks {
		n += int64(len(tt.Queriers))*4 + int64(len(tt.Updates))*20
	}
	return n
}

// boxReplay replays a boxTrace through workload.BoxSource.
type boxReplay struct {
	trace   *boxTrace
	rects   []geom.Rect
	centres []geom.Point
	tick    int
	log     *tickLog
	every   int // querier thinning, see thinned
	thin    []uint32
}

var _ workload.BoxSource = (*boxReplay)(nil)

func newBoxReplay(t *boxTrace, log *tickLog) *boxReplay {
	return &boxReplay{
		trace:   t,
		rects:   append([]geom.Rect(nil), t.initial...),
		centres: append([]geom.Point(nil), t.centres...),
		log:     log,
	}
}

// Config implements workload.BoxSource.
func (p *boxReplay) Config() workload.Config { return p.trace.cfg.Config }

// NumBoxes implements workload.BoxSource.
func (p *boxReplay) NumBoxes() int { return len(p.rects) }

// RefreshRects implements workload.BoxSource.
func (p *boxReplay) RefreshRects(dst []geom.Rect, lo, hi int) { copy(dst[lo:hi], p.rects[lo:hi]) }

// Queriers implements workload.BoxSource.
func (p *boxReplay) Queriers() []uint32 {
	if p.tick >= len(p.trace.ticks) {
		return nil
	}
	p.thin = thinned(p.trace.ticks[p.tick].queriers, p.every, p.thin)
	return p.thin
}

// QueryRect implements workload.BoxSource: the square of side QuerySize
// centred on the object's kinematic position, as the generator draws it.
func (p *boxReplay) QueryRect(id uint32) geom.Rect {
	return geom.Square(p.centres[id], p.trace.cfg.QuerySize)
}

// Updates implements workload.BoxSource.
func (p *boxReplay) Updates() []workload.BoxUpdate {
	if p.tick >= len(p.trace.ticks) {
		return nil
	}
	u := p.trace.ticks[p.tick].updates
	p.tick++
	return u
}

// ApplyUpdates implements workload.BoxSource.
func (p *boxReplay) ApplyUpdates(batch []workload.BoxUpdate) {
	for _, u := range batch {
		p.rects[u.ID] = u.Rect
		p.centres[u.ID] = u.Pos
	}
	p.log.tickEnded()
}

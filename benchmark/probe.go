package main

import (
	"syscall"
	"time"
)

// This file is what keeps the headline numbers steady on a shared host.
//
// The benchmark's machine is a few virtual CPUs of a host it shares. Two
// things happen to it that have nothing to do with the program: the
// hypervisor takes the CPU away for milliseconds at a time (steal, and
// inside the guest plain preemption), and the core runs slower for
// seconds or minutes while a neighbour keeps its sibling thread, its
// cache or its memory busy. A wall-clock tick time, whatever quantile of
// it, follows both: two sets of ten runs of the same code spread by 30 to
// 65% of the median on the driver's machine.
//
// So the gated times are read off the process CPU clock, which stops
// while the process is not running (the guest kernel discounts steal:
// CONFIG_PARAVIRT_TIME_ACCOUNTING), and are divided by the cost of a
// fixed piece of work — the probe below — run after every tick on the
// same clock. What slows the tick while it runs slows the probe next to
// it by much the same factor, and the ratio keeps still. README.md has
// the measurements behind the probe's size and the way it is timed.

// processCPU is the CPU time the process has consumed, user and system,
// all threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("benchmark: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// probeRefMs is the probe's CPU time on the reference host (a quiet 2-vCPU
// KVM guest on a 2.1 GHz Xeon), in milliseconds. A time divided by the
// probe's measured cost and multiplied by this constant reads in
// milliseconds of the reference host; on that host, quiet, it is the CPU
// time as measured. The constant only fixes the unit: a comparison of two
// commits does not depend on it.
const probeRefMs = 0.82

const (
	probePoints = 1 << 16
	probeSide   = 128 // cells per axis
	probeEvery  = 64  // every 64th point asks a query
)

// probe is a frozen miniature of the program's own work: a counting-sort
// grid build over fixed points followed by range queries over it, written
// here so that no change to the repository can change it. Every run does
// exactly the same work on the same data.
type probe struct {
	x, y  []float32
	cell  []uint32
	start []uint32 // CSR row starts, probeSide*probeSide+1
	ids   []uint32
	// hits is the number of (query, point) pairs of the last run. It
	// keeps the compiler from dropping the work, and a test checks it
	// against a brute-force count.
	hits int
}

func newProbe() *probe {
	p := &probe{
		x:     make([]float32, probePoints),
		y:     make([]float32, probePoints),
		cell:  make([]uint32, probePoints),
		start: make([]uint32, probeSide*probeSide+1),
		ids:   make([]uint32, probePoints),
	}
	s := uint64(0x9E3779B97F4A7C15)
	next := func() float32 {
		s = s*6364136223846793005 + 1442695040888963407
		return float32(s>>40) / (1 << 24) // [0, 1)
	}
	for i := range p.x {
		p.x[i], p.y[i] = next(), next()
	}
	p.run() // touch every page once
	return p
}

// probeHalf is half the side of a query square: one and a half cells.
const probeHalf = 1.5 / probeSide

func cellOf(v float32) int {
	c := int(v * probeSide)
	return min(max(c, 0), probeSide-1)
}

// run builds the grid and joins every probeEvery-th point's square
// against it.
func (p *probe) run() {
	clear(p.start)
	for i := range p.x {
		c := uint32(cellOf(p.x[i])*probeSide + cellOf(p.y[i]))
		p.cell[i] = c
		p.start[c+1]++
	}
	for c := 1; c < len(p.start); c++ {
		p.start[c] += p.start[c-1]
	}
	// Scatter from the back so every row start ends where it began.
	for i := len(p.cell) - 1; i >= 0; i-- {
		c := p.cell[i]
		p.start[c+1]--
		p.ids[p.start[c+1]] = uint32(i)
	}
	// The scatter used start[c+1] as row c's fill cursor, counting down
	// from the row's end to its start: start is now shifted by one row.
	copy(p.start, p.start[1:])
	p.start[len(p.start)-1] = probePoints

	hits := 0
	for q := 0; q < probePoints; q += probeEvery {
		x0, x1 := p.x[q]-probeHalf, p.x[q]+probeHalf
		y0, y1 := p.y[q]-probeHalf, p.y[q]+probeHalf
		cy0, cy1 := cellOf(y0), cellOf(y1)
		for cx := cellOf(x0); cx <= cellOf(x1); cx++ {
			// Cells of one column are adjacent rows of the CSR.
			for _, id := range p.ids[p.start[cx*probeSide+cy0]:p.start[cx*probeSide+cy1+1]] {
				if px, py := p.x[id], p.y[id]; px >= x0 && px <= x1 && py >= y0 && py <= y1 {
					hits++
				}
			}
		}
	}
	p.hits = hits
}

// touch reads one word of every cache line of the probe's data.
func (p *probe) touch() {
	sum := 0
	for i := 0; i < probePoints; i += 16 { // 16 four-byte words a line
		sum += int(p.x[i]) + int(p.y[i]) + int(p.cell[i]) + int(p.ids[i])
	}
	for i := 0; i < len(p.start); i += 16 {
		sum += int(p.start[i])
	}
	p.hits += sum & 1 // run overwrites it
}

// timed is one measurement of the host's speed: the CPU time of one run
// over data already in the cache. Untouched, the run would start by
// fetching its megabyte back from wherever the tick before it pushed
// it, and that cost follows the neighbours' cache traffic far more than
// the program's ticks do: beside two memory-streaming threads the cold
// probe read 6 to 10% slower after a box_uniform or service_mixed tick
// whose own CPU time had not changed.
func (p *probe) timed() time.Duration {
	p.touch()
	start := processCPU()
	p.run()
	return processCPU() - start
}

// hostProbe is the probe every tick log and set-up measurement runs.
var hostProbe = newProbe()

// slowdown measures the probe n times and returns how many times slower
// than the reference host this one is just now: the host's speed around
// a one-off measurement.
func slowdown(n int) float64 {
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += hostProbe.timed()
	}
	return ms(sum) / float64(n) / probeRefMs
}

// refMs converts a CPU time in milliseconds, measured between probes
// that cost probeMs each, into milliseconds of the reference host.
func refMs(cpuMs, probeMs float64) float64 { return cpuMs / (probeMs / probeRefMs) }

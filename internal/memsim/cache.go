// Package memsim is the hardware-profiling substitute for the paper's
// Table 3. The original study read CPI, instruction counts, and L1/L2/L3
// data cache misses from the CPU's performance counters; a pure-Go
// reproduction has no such counters, so this package provides a
// trace-driven memory-hierarchy simulator instead: a three-level
// set-associative LRU cache model plus a simple instruction/CPI cost
// model. Instrumented re-implementations of the Simple Grid (gridsim.go)
// replay the paper's default workload through it, before and after the
// re-implementation, which preserves exactly the comparison Table 3
// makes — how many memory touches and instructions each implementation
// needs — without claiming cycle accuracy.
package memsim

import "fmt"

// CacheConfig describes one cache level.
type CacheConfig struct {
	Name      string
	SizeBytes int
	Ways      int
	LineBytes int
}

// Validate reports the first problem with the configuration, or nil.
func (c CacheConfig) Validate() error {
	switch {
	case c.SizeBytes <= 0:
		return fmt.Errorf("memsim: %s size must be positive", c.Name)
	case c.Ways <= 0:
		return fmt.Errorf("memsim: %s associativity must be positive", c.Name)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("memsim: %s line size must be a positive power of two, got %d", c.Name, c.LineBytes)
	case c.SizeBytes%(c.Ways*c.LineBytes) != 0:
		return fmt.Errorf("memsim: %s size %d not divisible by ways*line", c.Name, c.SizeBytes)
	}
	sets := c.SizeBytes / (c.Ways * c.LineBytes)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("memsim: %s set count %d must be a power of two", c.Name, sets)
	}
	return nil
}

// Cache is a set-associative cache with true-LRU replacement. Tags store
// the full line number; a zero slot means empty (line numbers are offset
// by 1 to keep 0 free).
type Cache struct {
	cfg       CacheConfig
	sets      int
	setMask   uint64
	lineShift uint
	tags      []uint64 // sets*ways, ordered most- to least-recently used per set
	accesses  uint64
	misses    uint64
}

// NewCache builds a cache from the configuration.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	c := &Cache{
		cfg:       cfg,
		sets:      sets,
		setMask:   uint64(sets - 1),
		lineShift: log2(uint64(cfg.LineBytes)),
		tags:      make([]uint64, sets*cfg.Ways),
	}
	return c, nil
}

func log2(v uint64) uint {
	var s uint
	for v > 1 {
		v >>= 1
		s++
	}
	return s
}

// Access touches the cache line containing the given line number and
// reports whether it hit. On a miss the line is installed, evicting the
// set's least-recently-used entry.
func (c *Cache) Access(line uint64) bool {
	c.accesses++
	tag := line + 1 // keep 0 as the empty marker
	set := int(line&c.setMask) * c.cfg.Ways
	ways := c.tags[set : set+c.cfg.Ways]
	for i, t := range ways {
		if t == tag {
			// Move to front (most recently used).
			copy(ways[1:i+1], ways[:i])
			ways[0] = tag
			return true
		}
	}
	c.misses++
	copy(ways[1:], ways[:len(ways)-1])
	ways[0] = tag
	return false
}

// Accesses returns the number of accesses so far.
func (c *Cache) Accesses() uint64 { return c.accesses }

// Misses returns the number of misses so far.
func (c *Cache) Misses() uint64 { return c.misses }

// Reset clears contents and counters.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = 0
	}
	c.accesses, c.misses = 0, 0
}

// HierarchyConfig describes the simulated machine: three cache levels and
// the latency model used to derive CPI.
type HierarchyConfig struct {
	L1, L2, L3 CacheConfig
	// BaseCPI is the cycles-per-instruction of a miss-free execution
	// (superscalar cores retire several instructions per cycle).
	BaseCPI float64
	// Latencies in cycles charged per miss serviced at each point.
	L2HitCycles float64
	L3HitCycles float64
	MemCycles   float64
}

// DefaultHierarchy models the paper's quad-core Intel i7 (Sandy
// Bridge-class): 32 KiB 8-way L1d, 256 KiB 8-way L2, 8 MiB 16-way L3,
// 64-byte lines.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1:          CacheConfig{Name: "L1d", SizeBytes: 32 << 10, Ways: 8, LineBytes: 64},
		L2:          CacheConfig{Name: "L2", SizeBytes: 256 << 10, Ways: 8, LineBytes: 64},
		L3:          CacheConfig{Name: "L3", SizeBytes: 8 << 20, Ways: 16, LineBytes: 64},
		BaseCPI:     0.4,
		L2HitCycles: 12,
		L3HitCycles: 40,
		MemCycles:   180,
	}
}

// Hierarchy threads accesses through the three levels (inclusive,
// write-allocate, writes modelled like reads for miss accounting, as PMU
// data-cache-miss counters do).
type Hierarchy struct {
	cfg          HierarchyConfig
	l1, l2, l3   *Cache
	instructions uint64
	memAccesses  uint64
}

// NewHierarchy builds the simulated machine.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	l1, err := NewCache(cfg.L1)
	if err != nil {
		return nil, err
	}
	l2, err := NewCache(cfg.L2)
	if err != nil {
		return nil, err
	}
	l3, err := NewCache(cfg.L3)
	if err != nil {
		return nil, err
	}
	if l1.lineShift != l2.lineShift || l2.lineShift != l3.lineShift {
		return nil, fmt.Errorf("memsim: all levels must share one line size")
	}
	return &Hierarchy{cfg: cfg, l1: l1, l2: l2, l3: l3}, nil
}

// MustNewHierarchy is NewHierarchy for known-good configurations.
func MustNewHierarchy(cfg HierarchyConfig) *Hierarchy {
	h, err := NewHierarchy(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Touch accesses [addr, addr+size) once, line by line.
func (h *Hierarchy) Touch(addr, size uint64) {
	if size == 0 {
		return
	}
	first := addr >> h.l1.lineShift
	last := (addr + size - 1) >> h.l1.lineShift
	for line := first; line <= last; line++ {
		if h.l1.Access(line) {
			continue
		}
		if h.l2.Access(line) {
			continue
		}
		if h.l3.Access(line) {
			continue
		}
		h.memAccesses++
	}
}

// Read and Write both count as data accesses; PMU miss counters make the
// same simplification. Separate names keep call sites self-documenting.
func (h *Hierarchy) Read(addr, size uint64) { h.Touch(addr, size) }

// Write models a write-allocate store.
func (h *Hierarchy) Write(addr, size uint64) { h.Touch(addr, size) }

// Exec accounts n executed instructions.
func (h *Hierarchy) Exec(n int) { h.instructions += uint64(n) }

// Instructions returns the executed-instruction count.
func (h *Hierarchy) Instructions() uint64 { return h.instructions }

// Profile is the Table 3 row: CPI, total instructions, and data cache
// misses per level.
type Profile struct {
	CPI          float64
	Instructions uint64
	L1Misses     uint64
	L2Misses     uint64
	L3Misses     uint64
}

// Report derives the profile from the counters: every instruction costs
// BaseCPI cycles, every L1 miss serviced by L2 adds L2HitCycles, and so
// on down the hierarchy.
func (h *Hierarchy) Report() Profile {
	l1m, l2m, l3m := h.l1.Misses(), h.l2.Misses(), h.l3.Misses()
	cycles := float64(h.instructions) * h.cfg.BaseCPI
	cycles += float64(l1m-l2m) * h.cfg.L2HitCycles // L1 misses that hit in L2
	cycles += float64(l2m-l3m) * h.cfg.L3HitCycles // L2 misses that hit in L3
	cycles += float64(l3m) * h.cfg.MemCycles       // misses all the way to DRAM
	cpi := 0.0
	if h.instructions > 0 {
		cpi = cycles / float64(h.instructions)
	}
	return Profile{
		CPI:          cpi,
		Instructions: h.instructions,
		L1Misses:     l1m,
		L2Misses:     l2m,
		L3Misses:     l3m,
	}
}

// Reset clears all counters and cache contents.
func (h *Hierarchy) Reset() {
	h.l1.Reset()
	h.l2.Reset()
	h.l3.Reset()
	h.instructions = 0
	h.memAccesses = 0
}

// String summarizes a profile on one line.
func (p Profile) String() string {
	return fmt.Sprintf("CPI %.2f, %d ins, misses L1 %d / L2 %d / L3 %d",
		p.CPI, p.Instructions, p.L1Misses, p.L2Misses, p.L3Misses)
}

// Package obs is the engine's instrumentation layer: a registry of
// padded sharded counters, gauges, and fixed-bucket log-scale latency
// histograms, plus phase spans timed by a caller-supplied clock hook and
// an opt-in HTTP debug endpoint (see http.go).
//
// # Hot-path contract
//
// Every instrument mutation — Counter.Inc/Add, Gauge.Set/Add,
// Histogram.Record, Registry.Enter/Exit — is annotated
// //joinlint:hotpath and proven allocation-free by the escape gate, so
// the kernels and drivers may call them on their innermost paths. All
// hot methods are nil-receiver no-ops: a disabled registry (nil
// *Registry) hands out nil instruments, and a mutation on a nil
// instrument compiles down to a pointer test and a return. Disabling
// observability therefore costs one predictable branch per call site,
// not a build tag.
//
// # Clock
//
// Spans never read time.Now on the hot path (the hotpath analyzer
// rejects it); they sample the registry's clock hook, a monotonic
// nanosecond counter installed at New and replaceable via SetClock for
// deterministic tests.
//
// # Naming
//
// Instrument names are dot-separated, prefixed by the owning subsystem
// ("core.tick.build_ns", "epoch.epochs_published", "shard.query_fanout",
// "tune.selections"). Duration-valued instruments carry an _ns
// suffix. Requesting a name twice returns the same instrument, so
// independent components (e.g. the two inner indexes of one epoch
// wrapper) aggregate into one series by construction.
package obs

import (
	"sort"
	"sync"
	"time"
)

// Registry owns a process's instruments. The zero registry is not
// usable; construct with New. A nil *Registry is the disabled state:
// every accessor returns a nil instrument and every mutation no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	labels   map[string]string

	// clock is the monotonic nanosecond hook spans sample; it exists so
	// hot-path spans need no time.Now (and so tests can step time by
	// hand).
	clock func() int64
	start time.Time
}

// New returns an enabled registry whose clock reads the monotonic
// nanoseconds since New.
func New() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		labels:   make(map[string]string),
		start:    time.Now(),
	}
	start := r.start
	r.clock = func() int64 { return int64(time.Since(start)) }
	return r
}

// SetClock replaces the span clock hook (monotonic nanoseconds).
// Intended for tests; not safe concurrently with spans in flight.
func (r *Registry) SetClock(clock func() int64) {
	if r == nil || clock == nil {
		return
	}
	r.clock = clock
}

// Now samples the registry clock (0 when disabled). Exported so callers
// timing multi-instrument sections can share one clock read.
//
//joinlint:hotpath
func (r *Registry) Now() int64 {
	if r == nil {
		return 0
	}
	return r.clock()
}

// Counter returns the named counter, creating it on first request.
// Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = NewCounter()
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first request. Returns
// nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = NewGauge()
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first request.
// Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// SetLabel records a static string fact ("tune.choice" → the selected
// family). Labels are snapshot metadata, not hot-path instruments.
func (r *Registry) SetLabel(name, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.labels[name] = value
}

// Span is an open phase measurement: the histogram it will feed and the
// clock value at entry. The zero Span (from a disabled registry) exits
// as a no-op. Spans are plain values — passing them allocates nothing.
type Span struct {
	h  *Histogram
	t0 int64
}

// Enter opens a span against h at the current clock. Nil registry or
// nil histogram yields the inert zero span.
//
//joinlint:hotpath
func (r *Registry) Enter(h *Histogram) Span {
	if r == nil || h == nil {
		return Span{}
	}
	return Span{h: h, t0: r.clock()}
}

// Exit closes the span, recording the elapsed clock into its histogram.
//
//joinlint:hotpath
func (r *Registry) Exit(s Span) {
	if r == nil || s.h == nil {
		return
	}
	s.h.Record(r.clock() - s.t0)
}

// Instrumentable is implemented by indexes and wrappers that accept
// instrumentation after construction. Instrument must be called before
// the component is used (drivers call it ahead of Build); implementations
// need not support late or concurrent re-instrumentation.
type Instrumentable interface {
	Instrument(*Registry)
}

// Instrument offers the registry to x when x accepts one. A nil
// registry is not offered: components keep their standalone instruments.
func Instrument(x any, r *Registry) {
	if r == nil {
		return
	}
	if in, ok := x.(Instrumentable); ok {
		in.Instrument(r)
	}
}

// sortedKeys returns m's keys in deterministic order for snapshots.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

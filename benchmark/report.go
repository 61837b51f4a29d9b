package main

import (
	"fmt"
	"io"
	"math"
	"os/exec"
	"runtime"
	"strings"
)

// def declares one metric of the benchmark. BENCHMARK.json repeats the
// names, units, directions and bounds; a test keeps the two in step.
type def struct {
	name, unit string
	better     string  // "lower" or "higher"
	bound      float64 // end-to-end only: the share by which it may get worse
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. A failed operation is not a metric of its own: failed
// ticks are counted against attempted ticks in every result, and any
// failure makes the run incorrect.
var endToEnd = []def{
	{"tick_ms", "ms", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.15},
}

// perLayer are the layer metrics of the traced run, grouped by the
// repository's modules. They carry no bound.
var perLayer = layerDefs()

func layerDefs() []def {
	var out []def
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, def{name: n, unit: unit, better: better})
		}
	}
	add("ms", "lower", "core.build_ms", "core.query_ms", "core.update_ms", "core.self_ms",
		"core.tick_ms_p10", "core.tick_ms_p50", "core.tick_ms_p99", "core.parallel_tick_ms_w2")
	add("count", "higher", "core.tick_samples")
	add("count", "lower", "core.queries_per_tick", "core.updates_per_tick", "core.pairs_per_tick")
	add("kB", "lower", "core.alloc_kb_per_tick")
	for _, g := range []string{"grid.csr", "grid.csrxy", "grid.inline", "grid.box2l", "grid.boxcsr", "rtree.box", "shard.1x1"} {
		add("us", "lower", g+".build_us")
		add("ns", "lower", g+".query_ns", g+".update_ns")
		if g != "shard.1x1" {
			add("B", "lower", g+".bytes_per_object")
		}
	}
	add("ns", "lower", "grid.csr.query_emit_ns", "grid.csr.query_batch_ns",
		"grid.box2l.query_emit_ns", "grid.box2l.query_batch_ns")
	add("count", "lower", "grid.results_per_query", "grid.box2l.replication")
	add("ms", "lower", "rtree.tick_ms", "binsearch.tick_ms", "crtree.tick_ms", "kdtrie.tick_ms",
		"grid.original.tick_ms", "grid.tuned.tick_ms")
	add("ms", "lower", "tune.calibrate_ms", "tune.select_ms")
	add("%", "lower", "tune.tax_pct", "tune.regret_pct")
	add("us", "lower", "epoch.build_us")
	add("ns", "lower", "epoch.query_ns", "epoch.apply_ns_per_move")
	add("%", "lower", "epoch.query_tax_pct")
	add("us", "lower", "epoch.query_us_p50", "epoch.query_us_p99")
	add("count", "lower", "epoch.epochs_per_tick", "epoch.retries", "epoch.degraded", "epoch.panics_contained")
	add("%", "lower", "shard.1x1.tax_pct")
	add("ms", "lower", "shard.auto.tick_ms")
	add("count", "higher", "shard.auto.side")
	add("%", "lower", "obs.overhead_pct", "trace.overhead_pct")
	add("count", "higher", "trace.spans")
	add("ms", "lower", "host.probe_ms")
	add("s", "lower", "workload.record_s")
	add("MB", "lower", "workload.trace_mb")
	return out
}

// metric is one measured value with what stands behind it.
type metric struct {
	def   def
	value float64
	n     int     // samples behind the value
	med   float64 // median and MAD over rounds, where the value is a minimum of rounds
	mad   float64
	note  string
	set   bool
}

// metricSet holds the metrics of one class for one workload, in the
// order they were declared.
type metricSet struct {
	defs []def
	m    map[string]*metric
}

func newMetricSet(defs []def) *metricSet {
	s := &metricSet{defs: defs, m: make(map[string]*metric, len(defs))}
	for _, d := range defs {
		s.m[d.name] = &metric{def: d, med: math.NaN(), mad: math.NaN()}
	}
	return s
}

// get panics on an undeclared name: metric names are the benchmark's
// contract and a typo must not create a new one.
func (s *metricSet) get(name string) *metric {
	m, ok := s.m[name]
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	return m
}

func (s *metricSet) set(name string, v float64, n int) {
	m := s.get(name)
	m.value, m.n, m.set = v, n, true
}

// setSample files a min-of-rounds figure with its median and MAD.
func (s *metricSet) setSample(name string, x sample) {
	m := s.get(name)
	m.value, m.n, m.med, m.mad, m.set = x.min(), x.n(), x.med(), x.mad(), true
}

func (s *metricSet) note(name, text string) { s.get(name).note = text }

// missing lists declared metrics that were never measured or are not
// numbers: a result with holes is no result.
func (s *metricSet) missing() []string {
	var out []string
	for _, d := range s.defs {
		if m := s.m[d.name]; !m.set || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			out = append(out, d.name)
		}
	}
	return out
}

func (s *metricSet) print(w io.Writer, workload string) {
	for _, d := range s.defs {
		m := s.m[d.name]
		line := fmt.Sprintf("  %-15s %-28s %14.4f %-5s n=%d", workload, d.name, m.value, d.unit, m.n)
		if !math.IsNaN(m.med) {
			line += fmt.Sprintf("  median %.4f  MAD %.4f", m.med, m.mad)
		}
		if d.bound > 0 {
			line += fmt.Sprintf("  bound +%.0f%%", d.bound*100)
		}
		if m.note != "" {
			line += "  [" + m.note + "]"
		}
		fmt.Fprintln(w, line)
	}
}

// wire is the metrics object of the result line.
func (s *metricSet) wire(prefix string, into map[string]wireMetric) {
	for _, d := range s.defs {
		into[prefix+d.name] = wireMetric{Value: s.m[d.name].value, Unit: d.unit}
	}
}

type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance is carried by every result and by trace.json.
type provenance struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GitSHA     string `json:"git_sha"`
	Seed       uint64 `json:"seed"`
	// Techniques maps a workload to its index as built, the tuner's
	// decision included; Shares to the measured build/query/update
	// shares of its tick.
	Techniques map[string]string     `json:"techniques"`
	Shares     map[string][3]float64 `json:"phase_shares,omitempty"`
}

func newProvenance(seed uint64) provenance {
	return provenance{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitSHA:     gitSHA(),
		Seed:       seed,
		Techniques: map[string]string{},
		Shares:     map[string][3]float64{},
	}
}

// gitSHA is best effort: the benchmark also runs from plain checkouts.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

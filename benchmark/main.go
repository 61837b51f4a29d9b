// Command benchmark is the repository's benchmark: four tick workloads
// replayed through the drivers in internal/core, end-to-end metrics with
// fixed regression bounds measured with tracing off, and a separate
// traced pass that attributes each tick to the layers underneath (grid,
// tune, epoch, shard, core). Every join result is checked against the
// brute-force oracle and an independent index family before anything is
// timed; any mismatch fails the run. See README.md.
//
//	bash benchmark/run.sh                         # every workload, both passes
//	bash benchmark/run.sh -selfcheck              # A/A: two end-to-end sets must agree
//	bash benchmark/run.sh --workload point_churn --seed 7 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/tune"
)

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Uint64("seed", 1, "workload seed; the program under test sees only the generated stream")
		seconds      = flag.Float64("seconds", 25, "seconds of rounds measured per workload and pass")
		rounds       = flag.Int("rounds", 0, "fixed number of rounds per workload and pass (0: as many as -seconds allows)")
		trace        = flag.Int("trace", -1, "0: end-to-end metrics only; 1: traced pass and per-layer metrics only; -1: both")
		selfcheck    = flag.Bool("selfcheck", false, "measure the end-to-end set twice and fail unless the two agree within the bounds")
		outDir       = flag.String("out", "out", "directory for trace.json and result.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	selected := specs
	if *workloadFlag != "all" {
		s, err := specByName(*workloadFlag)
		if err != nil {
			fatal(err)
		}
		selected = []spec{s}
	}

	// The tuner calibrates once per process; time it apart, here, and
	// charge it to every workload's set-up. Like every gated time it is
	// CPU time against the probe's, which runs on either side of it.
	before := slowdown(calibrateProbes)
	start := processCPU()
	tune.Calibrate()
	cpu := processCPU() - start
	calibrateS := cpu.Seconds() / ((before + slowdown(calibrateProbes)) / 2)

	b := &bench{budget: budget{seconds: *seconds, rounds: *rounds}, calibrateS: calibrateS, prov: newProvenance(*seed)}
	for _, s := range selected {
		r, err := newRun(s, *seed)
		if err != nil {
			fatal(err)
		}
		b.runs = append(b.runs, r)
	}

	if *selfcheck {
		if !b.selfcheck() {
			os.Exit(1)
		}
		return
	}

	res := result{Workloads: map[string]*workloadResult{}}
	line := resultLine{Metrics: map[string]wireMetric{}}
	prefix := func(r *run) string {
		if len(b.runs) == 1 {
			return ""
		}
		return r.spec.name + "/"
	}
	for _, r := range b.runs {
		res.Workloads[r.spec.name] = &workloadResult{}
	}
	if *trace != 1 {
		sets := b.endToEndPass()
		fmt.Println("end-to-end (tracing off):")
		for i, r := range b.runs {
			set := sets[i]
			set.print(os.Stdout, r.spec.name)
			fmt.Printf("  %-15s join rate %.0f pairs/ms at %d objects, %d ticks in %d rounds; the probe cost %.3f ms, %.2f of the reference host's\n",
				r.spec.name, r.pairsPerTick()/set.get("tick_ms").value, r.params.NumPoints, set.get("tick_ms").n, len(r.rounds),
				r.probeMs(), r.probeMs()/probeRefMs)
			b.need(set)
			set.wire(prefix(r), line.Metrics)
			res.Workloads[r.spec.name].EndToEnd = wireOf(set)
		}
	}
	if *trace != 0 {
		tr := newTracer()
		fmt.Println("per-layer (traced pass):")
		for _, r := range b.runs {
			set, err := b.tracedPass(r, tr)
			if err != nil {
				fatal(err)
			}
			set.print(os.Stdout, r.spec.name)
			b.need(set)
			set.wire(prefix(r), line.Metrics)
			res.Workloads[r.spec.name].PerLayer = wireOf(set)
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		if err := tr.write(filepath.Join(*outDir, "trace.json"), b.prov); err != nil {
			fatal(err)
		}
	}

	for _, r := range b.runs {
		line.Attempted += r.attempted
		line.Failed += r.failed
		for _, f := range r.failures {
			fmt.Println("FAILED", f)
		}
		res.Workloads[r.spec.name].Attempted = r.attempted
		res.Workloads[r.spec.name].Failed = r.failed
	}
	line.Correct = line.Failed == 0
	res.Provenance = b.prov // filled in by the passes
	fmt.Printf("provenance: %+v\n", b.prov)
	if len(b.missing) > 0 {
		fatal(fmt.Errorf("metrics not measured: %v", b.missing))
	}
	if err := writeJSON(filepath.Join(*outDir, "result.json"), res); err != nil {
		fatal(err)
	}
	out, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !line.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// calibrateProbes is how many probe runs stand on either side of the
// one-off calibration (about 15 ms each side).
const calibrateProbes = 16

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

// result is result.json: everything the run measured, by workload.
type result struct {
	Provenance provenance                 `json:"provenance"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	EndToEnd  map[string]wireMetric `json:"end_to_end,omitempty"`
	PerLayer  map[string]wireMetric `json:"per_layer,omitempty"`
}

func wireOf(s *metricSet) map[string]wireMetric {
	m := map[string]wireMetric{}
	s.wire("", m)
	return m
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// budget is how long a pass measures a workload.
type budget struct {
	seconds float64
	rounds  int
}

// more reports whether a workload that has run n rounds since start
// should run another.
func (b budget) more(n int, spent time.Duration) bool {
	if b.rounds > 0 {
		return n < b.rounds
	}
	return n == 0 || spent.Seconds() < b.seconds
}

// bench is one invocation: the selected workloads and what they share.
type bench struct {
	runs       []*run
	budget     budget
	calibrateS float64
	prov       provenance
	missing    []string
}

func (b *bench) need(s *metricSet) { b.missing = append(b.missing, s.missing()...) }

// endToEndPass verifies every workload, then measures rounds with
// tracing off. Rounds of the workloads are interleaved (w1r1, w2r1, ...,
// w1r2, ...) so each samples the whole wall-clock window of the
// invocation rather than its own slice of it.
func (b *bench) endToEndPass() []*metricSet {
	for _, r := range b.runs {
		r.verify()
		r.rounds = nil
	}
	spent := make([]time.Duration, len(b.runs))
	done := make([]bool, len(b.runs))
	for again := true; again; {
		again = false
		for i, r := range b.runs {
			if done[i] || !b.budget.more(len(r.rounds), spent[i]) {
				continue
			}
			again = true
			start := time.Now()
			rd, err := r.measureRound(nil)
			if err != nil {
				// The run is incorrect already; more rounds of this
				// workload add nothing.
				done[i] = true
				continue
			}
			r.rounds = append(r.rounds, rd)
			spent[i] += time.Since(start)
		}
	}
	sets := make([]*metricSet, len(b.runs))
	for i, r := range b.runs {
		sets[i] = b.endToEndSet(r)
	}
	return sets
}

// endToEndSet reduces a workload's untraced rounds to its end-to-end
// metrics: medians over rounds of the per-round quantities.
func (b *bench) endToEndSet(r *run) *metricSet {
	set := newMetricSet(endToEnd)
	var tick, setup, heap sample
	for _, rd := range r.rounds {
		tick.add(rd.tickRef)
		setup.add(rd.setupS)
		heap.add(rd.heapMB)
	}
	set.set("tick_ms", tick.med(), tick.n()*r.spec.measured)
	set.set("setup_s", b.calibrateS+setup.med(), setup.n())
	set.set("heap_mb", heap.med(), heap.n())
	b.prov.Techniques[r.spec.name] = r.technique
	if sh, ok := r.phaseShares(); ok {
		b.prov.Shares[r.spec.name] = sh
	}
	return set
}

// probeMs is the probe's CPU time beside the measured ticks of the
// untraced rounds, as measured: the host's speed during the run.
func (r *run) probeMs() float64 {
	var probe sample
	for _, rd := range r.rounds {
		probe.add(rd.probeMs)
	}
	return probe.med()
}

// pairsPerTick is the join's result size per tick, from the reference
// digest (the service workload's own pair count depends on scheduling).
func (r *run) pairsPerTick() float64 { return float64(r.ref.pairs) / float64(r.spec.ticks()) }

// phaseShares is the measured build/query/update split of the tick over
// every measured tick of the untraced rounds.
func (r *run) phaseShares() (sh [3]float64, ok bool) {
	var sum core.PhaseTimes
	for _, rd := range r.rounds {
		for _, p := range rd.phases {
			sum.Build += p.Build
			sum.Query += p.Query
			sum.Update += p.Update
		}
	}
	total := float64(sum.Total())
	if total == 0 {
		return sh, false
	}
	return [3]float64{float64(sum.Build) / total, float64(sum.Query) / total, float64(sum.Update) / total}, true
}

// tracedPass measures one workload's per-layer metrics: traced rounds
// paired with untraced ones (their difference is the tracing overhead),
// then the ladder and the driver probes.
func (b *bench) tracedPass(r *run, tr *tracer) (*metricSet, error) {
	r.verify()
	r.rounds, r.traced = nil, nil
	// Pairs take half the budget, and there are at least two of them; the
	// ladder and the probes take the rest.
	half := budget{seconds: b.budget.seconds / 2, rounds: b.budget.rounds}
	tr.selfMs = nil
	tr.opMs = [numOps][]float64{}
	spansBefore := len(tr.spans)
	start := time.Now()
	for n := 0; half.more(n, time.Since(start)) || (half.rounds == 0 && n < 2); n++ {
		plain, err := r.measureRound(nil)
		if err != nil {
			break
		}
		traced, err := r.measureRound(tr)
		if err != nil {
			break
		}
		r.rounds = append(r.rounds, plain)
		r.traced = append(r.traced, traced)
	}
	set := newMetricSet(perLayer)
	if len(r.traced) == 0 {
		return set, nil // the failure is already on the run
	}

	var plainTicks, tracedTicks [][]float64
	var phases [3][]float64
	var alloc sample
	for i := range r.traced {
		alloc.add(r.rounds[i].allocKB)
		plainTicks = append(plainTicks, r.rounds[i].tickMs)
		tracedTicks = append(tracedTicks, r.traced[i].tickMs)
		if r.traced[i].digest != r.rounds[i].digest {
			r.fail(r.spec.ticks(), fmt.Sprintf("traced digest %+v differs from untraced %+v", r.traced[i].digest, r.rounds[i].digest))
		}
		for _, p := range r.rounds[i].phases {
			phases[0] = append(phases[0], ms(p.Build))
			phases[1] = append(phases[1], ms(p.Query))
			phases[2] = append(phases[2], ms(p.Update))
		}
	}
	plain, traced := pool(plainTicks), pool(tracedTicks)
	if r.spec.kind == service {
		// The service driver has no phases of its own: its tick is the
		// reader drain overlapped with ApplyBatch, so the phase rows are
		// the decorator's busy time per op class.
		phases = tr.opMs
	}
	for i, name := range []string{"core.build_ms", "core.query_ms", "core.update_ms"} {
		set.set(name, quantile(phases[i], 0.10), len(phases[i]))
	}
	set.set("core.self_ms", median(tr.selfMs), len(tr.selfMs))
	set.set("core.tick_ms_p10", quantile(plain, 0.10), len(plain))
	set.set("core.tick_ms_p50", quantile(plain, 0.50), len(plain))
	set.set("core.tick_ms_p99", quantile(plain, 0.99), len(plain))
	set.set("core.tick_samples", float64(len(plain)), len(plain))
	n := float64(r.spec.ticks())
	set.set("core.queries_per_tick", float64(r.ref.queries)/n, r.spec.ticks())
	set.set("core.updates_per_tick", float64(r.ref.updates)/n, r.spec.ticks())
	set.set("core.pairs_per_tick", r.pairsPerTick(), r.spec.ticks())
	set.set("core.alloc_kb_per_tick", alloc.med(), alloc.n())
	set.set("trace.overhead_pct", pct(quantile(traced, 0.10), quantile(plain, 0.10)), len(traced))
	set.set("trace.spans", float64(len(tr.spans)-spansBefore), len(r.traced))
	set.set("tune.calibrate_ms", b.calibrateS*1e3, 1)
	set.set("host.probe_ms", r.probeMs(), len(r.rounds))
	b.prov.Techniques[r.spec.name] = r.technique
	if sh, ok := r.phaseShares(); ok {
		b.prov.Shares[r.spec.name] = sh
	}
	if err := r.layerPass(set); err != nil {
		return nil, err
	}
	return set, nil
}

// selfcheck measures the end-to-end set twice with the same binary and
// reports whether the two agree: every metric within its bound, every
// exact count identical.
func (b *bench) selfcheck() bool {
	// counts are the exact quantities of each workload's first round.
	counts := func() (out []digest) {
		for _, r := range b.runs {
			if len(r.rounds) > 0 {
				out = append(out, r.rounds[0].digest)
			}
		}
		return out
	}
	a := b.endToEndPass()
	ca := counts()
	c := b.endToEndPass()
	cb := counts()
	if len(ca) != len(b.runs) || len(cb) != len(b.runs) {
		for _, r := range b.runs {
			for _, f := range r.failures {
				fmt.Println("FAILED", f)
			}
		}
		fmt.Println("selfcheck FAILED: a workload completed no round")
		return false
	}
	ok := true
	fmt.Printf("selfcheck (seed %d): two end-to-end sets from one binary\n", b.prov.Seed)
	fmt.Printf("  %-15s %-20s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "differ", "bound")
	for i, r := range b.runs {
		for _, d := range endToEnd {
			va, vb := a[i].get(d.name).value, c[i].get(d.name).value
			diff := math.Abs(va-vb) / math.Min(va, vb)
			verdict := ""
			if !(diff <= d.bound) {
				verdict = "  DISAGREE"
				ok = false
			}
			fmt.Printf("  %-15s %-20s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", r.spec.name, d.name, va, vb, diff*100, d.bound*100, verdict)
		}
		if ca[i] != cb[i] {
			fmt.Printf("  %-15s counts differ: %+v vs %+v  DISAGREE\n", r.spec.name, ca[i], cb[i])
			ok = false
		}
		if r.failed > 0 {
			ok = false
			for _, f := range r.failures {
				fmt.Println("FAILED", f)
			}
		}
	}
	if ok {
		fmt.Println("selfcheck passed")
	} else {
		fmt.Println("selfcheck FAILED")
	}
	return ok
}

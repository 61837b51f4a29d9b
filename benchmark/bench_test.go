package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/tune"
)

// tiny is a workload of each driver kind small enough to run every pass
// in a unit test.
func tiny(kind driverKind) spec {
	return spec{
		name: "tiny", why: "test", kind: kind, cfg: smallBoxes(21, 0),
		point: tune.AutoFactory, box: tune.AutoBoxFactory, warm: 2, measured: 4,
	}
}

// Both passes, on every driver kind, measure every declared metric, fail
// nothing, and leave a readable trace.
func TestPassesMeasureEveryDeclaredMetric(t *testing.T) {
	for _, kind := range []driverKind{seqPoint, seqBox, service} {
		r, err := newRun(tiny(kind), 21)
		if err != nil {
			t.Fatal(err)
		}
		b := &bench{runs: []*run{r}, budget: budget{rounds: 2}, calibrateS: 0.1, prov: newProvenance(21)}

		set := b.endToEndPass()[0]
		if miss := set.missing(); len(miss) > 0 {
			t.Errorf("kind %d: end-to-end metrics not measured: %v", kind, miss)
		}
		if len(r.rounds) != 2 {
			t.Errorf("kind %d: %d rounds, want 2", kind, len(r.rounds))
		}
		if n := set.get("tick_ms").n; n != 2*r.spec.measured {
			t.Errorf("kind %d: tick_ms pooled %d ticks, want %d", kind, n, 2*r.spec.measured)
		}
		for _, d := range endToEnd {
			if v := set.get(d.name).value; !(v > 0) {
				t.Errorf("kind %d: %s = %v, want a positive number", kind, d.name, v)
			}
		}

		tr := newTracer()
		layers, err := b.tracedPass(r, tr)
		if err != nil {
			t.Fatal(err)
		}
		if miss := layers.missing(); len(miss) > 0 {
			t.Errorf("kind %d: per-layer metrics not measured: %v", kind, miss)
		}
		if r.failed != 0 || r.attempted == 0 {
			t.Errorf("kind %d: %d of %d ticks failed: %v", kind, r.failed, r.attempted, r.failures)
		}
		if b.prov.Techniques["tiny"] == "" {
			t.Errorf("kind %d: no technique in the provenance", kind)
		}

		path := filepath.Join(t.TempDir(), "trace.json")
		if err := tr.write(path, b.prov); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Spans []span `json:"spans"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("trace.json: %v", err)
		}
		if len(doc.Spans) == 0 || float64(len(doc.Spans)) != layers.get("trace.spans").value {
			t.Errorf("kind %d: %d spans on disk, trace.spans says %v", kind, len(doc.Spans), layers.get("trace.spans").value)
		}
	}
}

// A wrong reference must fail the round's ticks rather than pass quietly.
func TestDigestMismatchFailsTheRound(t *testing.T) {
	r, err := newRun(tiny(seqPoint), 21)
	if err != nil {
		t.Fatal(err)
	}
	r.verify()
	if r.failed != 0 {
		t.Fatalf("verification failed: %v", r.failures)
	}
	r.ref.hash++
	before := r.attempted
	if _, err := r.measureRound(nil); err == nil {
		t.Error("round with a foreign digest reported no error")
	}
	if r.failed != r.spec.ticks() || r.attempted != before+r.spec.ticks() {
		t.Errorf("failed %d of %d attempted, want the round's %d ticks", r.failed, r.attempted-before, r.spec.ticks())
	}
}

func TestBudget(t *testing.T) {
	if !(budget{seconds: 5}).more(0, 1e12) {
		t.Error("a workload must get its first round however late it starts")
	}
	if (budget{seconds: 5}).more(3, 6e9) {
		t.Error("budget of 5 s not spent after 6 s")
	}
	if !(budget{seconds: 5, rounds: 4}).more(3, 6e9) || (budget{seconds: 5, rounds: 4}).more(4, 0) {
		t.Error("a fixed round count must override the clock")
	}
}

func TestUndeclaredMetricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("setting an undeclared metric did not panic")
		}
	}()
	newMetricSet(endToEnd).set("tick_millis", 1, 1)
}

// BENCHMARK.json at the repository root repeats the program's workload
// and metric tables; the two must not drift.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metricDecl struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDecl `json:"end_to_end"`
		PerLayer []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) || !reflect.DeepEqual(doc.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, program has %d", len(doc.Workloads), len(specs))
	}
	for i, s := range specs {
		if w := doc.Workloads[i]; w.Name != s.name || w.Why != s.why {
			t.Errorf("workload %d: declared %q (%q), program has %q (%q)", i, w.Name, w.Why, s.name, s.why)
		}
		if len(s.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", s.name, len(s.why))
		}
	}
	check := func(class string, declared []metricDecl, defs []def, bounded bool) {
		if len(declared) != len(defs) {
			t.Errorf("%s: %d declared, program has %d", class, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			m := declared[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: declared %+v, program has %+v", class, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.bound) {
				t.Errorf("%s %s: bound declared %v, program has %v", class, d.name, m.Bound, d.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	seen := map[string]bool{}
	for _, d := range append(append([]def{}, endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
}

package main

import (
	"testing"

	"repro/internal/binsearch"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/tune"
	"repro/internal/workload"
)

// The decorators must not change which kernel the driver runs: for every
// kernel and both drivers, traced and untraced digests are identical,
// and the calls land in the op class they belong to.
func TestDecoratorsForwardEveryKernel(t *testing.T) {
	cfg := smallBoxes(11, 4)
	p := core.ParamsFor(cfg.Config)
	points, err := workload.Record(cfg.Config)
	if err != nil {
		t.Fatal(err)
	}
	boxes, err := recordBoxes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for _, kernel := range []core.QueryKernel{core.KernelAuto, core.KernelEmit, core.KernelBatch} {
		for _, workers := range []int{1, 2} {
			opts := core.Options{Kernel: kernel}
			log := func() *tickLog { return newTickLog(1, cfg.Ticks) }

			plain := core.RunParallel(tune.NewAuto(p), newPointReplay(points, log()), opts, workers)
			l := log()
			tr.beginRound("points", 0, l)
			traced := core.RunParallel(tr.wrapPoint(tune.NewAuto(p)), newPointReplay(points, l), opts, workers)
			if digestOf(traced) != digestOf(plain) {
				t.Errorf("points kernel=%v workers=%d: traced %+v, plain %+v", kernel, workers, digestOf(traced), digestOf(plain))
			}
			checkTicks(t, tr, cfg.Ticks, plain)

			plainB := core.RunBoxesParallel(tune.NewAutoBox(p), newBoxReplay(boxes, log()), opts, workers)
			l = log()
			tr.beginRound("boxes", 0, l)
			tracedB := core.RunBoxesParallel(tr.wrapBox(tune.NewAutoBox(p)), newBoxReplay(boxes, l), opts, workers)
			if digestOf(tracedB) != digestOf(plainB) {
				t.Errorf("boxes kernel=%v workers=%d: traced %+v, plain %+v", kernel, workers, digestOf(tracedB), digestOf(plainB))
			}
			checkTicks(t, tr, cfg.Ticks, plainB)
		}
	}
}

// checkTicks asserts the tracer saw one build per tick and every result
// and update the driver reported.
func checkTicks(t *testing.T, tr *tracer, ticks int, res *core.Result) {
	t.Helper()
	if len(tr.ticks) != ticks {
		t.Fatalf("tracer closed %d ticks, want %d", len(tr.ticks), ticks)
	}
	var results, updates int64
	for _, tt := range tr.ticks {
		if tt.ops[opBuild].calls != 1 {
			t.Errorf("builds in one tick = %d, want 1", tt.ops[opBuild].calls)
		}
		results += tt.ops[opQuery].results
		updates += tt.ops[opUpdate].results
		if tt.end < tt.start {
			t.Error("tick ends before it starts")
		}
	}
	if results != res.Pairs || updates != res.Updates {
		t.Errorf("decorator saw %d results / %d updates, driver reported %d / %d", results, updates, res.Pairs, res.Updates)
	}
}

// An index without the optional capabilities must be driven through the
// same fallbacks traced as untraced.
func TestDecoratorOverMinimalIndex(t *testing.T) {
	cfg := smallBoxes(13, 3).Config
	points, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for _, workers := range []int{1, 2} {
		plain := core.RunParallel(binsearch.New(), newPointReplay(points, newTickLog(1, cfg.Ticks)), core.Options{}, workers)
		l := newTickLog(1, cfg.Ticks)
		tr.beginRound("minimal", 0, l)
		d := tr.wrapPoint(binsearch.New())
		if d.CanBatchUpdates(1 << 20) {
			t.Error("decorator offers batch updates its inner index does not have")
		}
		traced := core.RunParallel(d, newPointReplay(points, l), core.Options{}, workers)
		if digestOf(traced) != digestOf(plain) {
			t.Errorf("workers=%d: traced %+v, plain %+v", workers, digestOf(traced), digestOf(plain))
		}
	}
}

func TestSpansNestAndSelfTimeIsWhatChildrenLeave(t *testing.T) {
	cfg := smallBoxes(17, 4).Config
	p := core.ParamsFor(cfg)
	points, err := workload.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	l := newTickLog(1, cfg.Ticks)
	tr.beginRound("w", 2, l)
	idx := grid.MustNew(grid.CSR(), p.Bounds, p.NumPoints)
	res := core.Run(tr.wrapPoint(idx), newPointReplay(points, l), core.Options{KeepPerTick: true})
	tr.endRound(res)

	byID := map[string]span{}
	for _, s := range tr.spans {
		if _, dup := byID[s.ID]; dup {
			t.Errorf("duplicate span id %s", s.ID)
		}
		byID[s.ID] = s
	}
	// tick + 3 phases + 3 ops per tick.
	if want := cfg.Ticks * 7; len(tr.spans) != want {
		t.Errorf("%d spans, want %d", len(tr.spans), want)
	}
	for _, s := range tr.spans {
		if s.EndNs < s.StartNs {
			t.Errorf("span %s ends before it starts", s.ID)
		}
		if s.Parent == "" {
			continue
		}
		parent, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %s has unknown parent %s", s.ID, s.Parent)
			continue
		}
		if s.Calls > 0 && s.BusyNs > parent.EndNs-parent.StartNs {
			t.Errorf("span %s is busy %d ns inside a parent of %d ns", s.ID, s.BusyNs, parent.EndNs-parent.StartNs)
		}
	}
	if _, ok := byID["w/2/0/core.query/index.query"]; !ok {
		t.Error("no query span under tick 0's query phase")
	}
	if len(tr.selfMs) != cfg.Ticks-1 {
		t.Errorf("self time for %d ticks, want the %d measured ones", len(tr.selfMs), cfg.Ticks-1)
	}
	for i, ms := range tr.selfMs {
		total := res.PerTick[i+1].Total().Seconds() * 1e3
		if ms < 0 || ms > total {
			t.Errorf("tick %d: self %v ms outside [0, %v]", i+1, ms, total)
		}
	}
}

func TestOpStatAndUnion(t *testing.T) {
	var o opStat
	o.record(100, 150, 3)
	o.record(120, 140, 2) // a concurrent call ending earlier must not pull last back
	got := o.freeze()
	if got != (opTick{calls: 2, results: 5, busy: 70, first: 100, last: 150}) {
		t.Errorf("frozen %+v", got)
	}
	if again := o.freeze(); again != (opTick{}) {
		t.Errorf("freeze did not reset: %+v", again)
	}
	a := opTick{calls: 1, first: 0, last: 10}
	b := opTick{calls: 1, first: 5, last: 30}
	if u := unionNs(a, b); u != 30 {
		t.Errorf("overlapping union = %d, want 30", u)
	}
	if u := unionNs(a, opTick{calls: 1, first: 20, last: 30}); u != 20 {
		t.Errorf("disjoint union = %d, want 20", u)
	}
	if u := unionNs(a, opTick{}); u != 10 {
		t.Errorf("union with an op that never ran = %d, want 10", u)
	}
}

package tune

import (
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/workload"
)

// Auto and AutoBox defer structure choice to Build, so the buffered
// capabilities must survive two layers: the adaptive wrapper's own
// interface set (checked at runtime here, not just by the compile-time
// assertions) and the delegation to whatever inner structure the cost
// model picked.

func capabilityRects(queriers []uint32, rectOf func(id uint32) geom.Rect) []geom.Rect {
	rects := make([]geom.Rect, len(queriers))
	for i, q := range queriers {
		rects[i] = rectOf(q)
	}
	return rects
}

func assertBufferedKernels(t *testing.T, name string,
	query func(r geom.Rect, emit func(id uint32)),
	queryAppend func(r geom.Rect, buf []uint32) []uint32,
	queryBatch func(rects []geom.Rect, offsets, buf []uint32) ([]uint32, []uint32),
	rects []geom.Rect) {
	t.Helper()

	// Per-query digest agreement between emit and append.
	var buf []uint32
	for i, r := range rects {
		var want uint64
		wantN := 0
		query(r, func(id uint32) { want = core.MixPair(want, 0, id); wantN++ })
		buf = queryAppend(r, buf[:0])
		var got uint64
		for _, id := range buf {
			got = core.MixPair(got, 0, id)
		}
		if got != want || len(buf) != wantN {
			t.Fatalf("%s query %d: QueryAppend digest %x (%d ids), Query digest %x (%d ids)",
				name, i, got, len(buf), want, wantN)
		}
	}

	// The batch kernel over the whole schedule agrees per slot.
	offsets, flat := queryBatch(rects, nil, buf[:0])
	if len(offsets) != len(rects)+1 {
		t.Fatalf("%s: QueryBatch returned %d offsets for %d rects", name, len(offsets), len(rects))
	}
	for i, r := range rects {
		var want uint64
		query(r, func(id uint32) { want = core.MixPair(want, 0, id) })
		var got uint64
		for _, id := range flat[offsets[i]:offsets[i+1]] {
			got = core.MixPair(got, 0, id)
		}
		if got != want {
			t.Fatalf("%s batch slot %d: digest %x, want %x", name, i, got, want)
		}
	}

	// Zero allocations per buffered query at steady state.
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		buf = queryAppend(rects[i%len(rects)], buf[:0])
		i++
	})
	if allocs != 0 {
		t.Errorf("%s: QueryAppend allocates %.1f times per query at steady state, want 0", name, allocs)
	}
}

func TestAutoForwardsBufferedKernels(t *testing.T) {
	cfg := workload.DefaultUniform()
	cfg.NumPoints = 3000
	cfg.SpaceSize = 6000
	cfg.Ticks = 1
	gen := workload.MustNewGenerator(cfg)

	var idx core.Index = NewAuto(core.Params{Bounds: cfg.Bounds(), NumPoints: cfg.NumPoints})
	qa, ok := idx.(core.QueryAppender)
	if !ok {
		t.Fatalf("%T does not forward core.QueryAppender", idx)
	}
	idx.Build(gen.Positions(nil))
	rects := capabilityRects(gen.Queriers(), gen.QueryRect)
	assertBufferedKernels(t, idx.Name(), idx.Query, qa.QueryAppend, core.QueryBatchOf(idx, idx.Query), rects)
}

func TestAutoBoxForwardsBufferedKernels(t *testing.T) {
	cfg := workload.DefaultUniformBoxes()
	cfg.NumPoints = 3000
	cfg.SpaceSize = 6000
	cfg.Ticks = 1
	gen := workload.MustNewBoxGenerator(cfg)

	var idx core.BoxIndex = NewAutoBox(core.Params{Bounds: cfg.Bounds(), NumPoints: cfg.NumPoints})
	qa, ok := idx.(core.QueryAppender)
	if !ok {
		t.Fatalf("%T does not forward core.QueryAppender", idx)
	}
	idx.Build(gen.Rects(nil))
	rects := capabilityRects(gen.Queriers(), gen.QueryRect)
	assertBufferedKernels(t, idx.Name(), idx.Query, qa.QueryAppend, core.QueryBatchOf(idx, idx.Query), rects)
}

// An adaptive index that has not seen a snapshot answers like every
// unbuilt family: no results from any kernel, no panic — the same
// pre-build state Len, MemoryBytes, CheckInvariants and CanBatchUpdates
// always handled.
func TestAutoAnswersEmptyBeforeFirstBuild(t *testing.T) {
	p := core.Params{Bounds: geom.R(0, 0, 1000, 1000), NumPoints: 100}
	auto, boxauto := NewAuto(p), NewAutoBox(p)
	for _, tc := range []struct {
		name string
		idx  interface {
			core.QueryAppender
			core.Counter
			core.MemoryReporter
			core.InvariantChecker
			Name() string
			Query(r geom.Rect, emit func(id uint32))
			CanBatchUpdates(n int) bool
			Choice() (Choice, bool)
		}
		update func()
	}{
		{"auto", auto, func() {
			auto.Update(3, geom.Pt(1, 1), geom.Pt(2, 2))
			auto.UpdateBatch([]geom.Move{{ID: 3, Old: geom.Pt(1, 1), New: geom.Pt(2, 2)}}, 1)
		}},
		{"boxauto", boxauto, func() {
			boxauto.Update(3, geom.R(1, 1, 2, 2), geom.R(2, 2, 3, 3))
			boxauto.UpdateBatch([]geom.BoxMove{{ID: 3, Old: geom.R(1, 1, 2, 2), New: geom.R(2, 2, 3, 3)}}, 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			idx, all := tc.idx, geom.R(0, 0, 1000, 1000)
			tc.update() // moves of objects it never indexed: ignored, as by any unbuilt family
			idx.Query(all, func(id uint32) { t.Errorf("Query emitted %d", id) })
			if buf := idx.QueryAppend(all, []uint32{7}); len(buf) != 1 || buf[0] != 7 {
				t.Errorf("QueryAppend returned %v, want the caller's [7] untouched", buf)
			}
			offsets, buf := core.QueryBatchOf(idx, idx.Query)([]geom.Rect{all, all}, nil, nil)
			if len(offsets) != 3 || offsets[2] != 0 || len(buf) != 0 {
				t.Errorf("QueryBatch returned offsets %v, %d ids; want [0 0 0], none", offsets, len(buf))
			}
			if _, chosen := idx.Choice(); chosen || idx.Name() != tc.name {
				t.Errorf("unbuilt index reports a choice: %q", idx.Name())
			}
			if idx.Len() != 0 || idx.MemoryBytes() != 0 || idx.CanBatchUpdates(1<<20) || idx.CheckInvariants() != nil {
				t.Errorf("unbuilt index: Len %d, MemoryBytes %d, CanBatchUpdates %v, CheckInvariants %v",
					idx.Len(), idx.MemoryBytes(), idx.CanBatchUpdates(1<<20), idx.CheckInvariants())
			}
		})
	}
}

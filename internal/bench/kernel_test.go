package bench

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/workload"
)

// The kernel digest matrix: every family must report the identical
// result set through all three query kernels — the classic per-result
// callback (Query), the buffered append (QueryAppend), and the batched
// CSR form (QueryBatch) — on contrasting workloads. Digests are
// order-insensitive (core.MixPair folds commutatively), so layouts are
// free to reorder results; they are not free to drop, duplicate, or
// invent them.

// kernelPointWorkloads returns three contrasting point snapshots:
// uniform at the default query extent, clustered (Gaussian hotspots),
// and uniform with coarse queries that cover whole cells (the regime
// where the contained-cell bulk-copy fast path actually fires).
func kernelPointWorkloads() map[string]workload.Config {
	uniform := workload.DefaultUniform()
	uniform.NumPoints = 3000
	uniform.SpaceSize = 6000
	uniform.Ticks = 1

	gauss := workload.DefaultGaussian()
	gauss.NumPoints = 3000
	gauss.SpaceSize = 6000
	gauss.Ticks = 1

	coarse := uniform
	coarse.QuerySize = 1200

	return map[string]workload.Config{"uniform": uniform, "gauss": gauss, "coarse": coarse}
}

// kernelQueries snapshots one tick's query set. Generator.Queriers()
// draws fresh randomness per call, so the matrix must capture the set
// once and replay it against every technique.
func kernelQueries(queriers []uint32, rectOf func(id uint32) geom.Rect) ([]uint32, []geom.Rect) {
	qs := append([]uint32(nil), queriers...)
	rects := make([]geom.Rect, len(qs))
	for i, q := range qs {
		rects[i] = rectOf(q)
	}
	return qs, rects
}

// kernelDigests reports the order-insensitive fold of every query
// through each of the three kernels. buf and offsets are reused across
// calls on purpose — the matrix doubles as an aliasing check for
// buffer reuse.
func kernelDigests(idx interface {
	Query(r geom.Rect, emit func(id uint32))
}, queriers []uint32, rects []geom.Rect) map[string]uint64 {
	qa := core.QueryAppendOf(idx, idx.Query)
	qb := core.QueryBatchOf(idx, idx.Query)

	var emitD uint64
	for i, q := range queriers {
		q := q
		idx.Query(rects[i], func(id uint32) { emitD = core.MixPair(emitD, q, id) })
	}

	var appendD uint64
	var buf []uint32
	for i, q := range queriers {
		buf = qa(rects[i], buf[:0])
		for _, id := range buf {
			appendD = core.MixPair(appendD, q, id)
		}
	}

	var batchD uint64
	offsets, flat := qb(rects, nil, buf[:0])
	for i, q := range queriers {
		for _, id := range flat[offsets[i]:offsets[i+1]] {
			batchD = core.MixPair(batchD, q, id)
		}
	}

	return map[string]uint64{"emit": emitD, "append": appendD, "batch": batchD}
}

// finePointPresets are the presets behind lineup keys grid-tuned,
// grid-csr and grid-csrxy at cps=256, four times finer than their tuned
// cps=64: about one entry per cell, the granularity at which the
// layouts' contiguity claims were made.
func finePointPresets() []NamedTechnique {
	var out []NamedTechnique
	for key, preset := range map[string]func() grid.Config{"inline": grid.CPSTuned, "csr": grid.CSR, "csrxy": grid.CSRXY} {
		cfg := preset()
		cfg.CPS = 256
		out = append(out, NamedTechnique{Key: key + "/cps=256", Make: func(p core.Params) core.Index {
			return grid.MustNew(cfg, p.Bounds, p.NumPoints)
		}})
	}
	return out
}

func TestKernelDigestMatrixPoints(t *testing.T) {
	for wname, wcfg := range kernelPointWorkloads() {
		gen, err := workload.NewGenerator(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		pts := gen.Positions(nil)
		queriers, rects := kernelQueries(gen.Queriers(), gen.QueryRect)
		p := core.ParamsFor(wcfg)

		// The brute-force oracle anchors the whole workload: every
		// technique × kernel cell must land on this digest.
		oracle := core.NewBruteForce()
		oracle.Build(pts)
		want := kernelDigests(oracle, queriers, rects)["emit"]

		for _, tech := range append(Techniques(), finePointPresets()...) {
			idx := tech.Make(p)
			idx.Build(pts)
			for kernel, got := range kernelDigests(idx, queriers, rects) {
				if got != want {
					t.Errorf("%s/%s/%s: digest %x, oracle %x", wname, tech.Key, kernel, got, want)
				}
			}
		}
	}
}

// kernelBoxWorkloads mirrors kernelPointWorkloads for the MBR lineup,
// adds the window-join extents either side of the default 400, and the
// two mixes that pull the adaptive selector (lineup key boxauto, which
// reads them through core.ParamsFor) away from its default decision:
// many small queriers, and few queriers among many updaters.
func kernelBoxWorkloads() map[string]workload.BoxConfig {
	uniform := workload.DefaultUniformBoxes()
	uniform.NumPoints = 2500
	uniform.SpaceSize = 6000
	uniform.Ticks = 1

	gauss := workload.DefaultGaussianBoxes()
	gauss.NumPoints = 2500
	gauss.SpaceSize = 6000
	gauss.Ticks = 1

	out := map[string]workload.BoxConfig{"uniform": uniform, "gauss": gauss}
	for _, qext := range []float32{200, 800, 1200, 1600} {
		c := uniform
		c.QuerySize = qext
		out[fmt.Sprintf("qext=%g", qext)] = c
	}

	queryHeavy := uniform
	queryHeavy.Queriers, queryHeavy.Updaters = 0.9, 0.1
	queryHeavy.MinSide, queryHeavy.MaxSide = 20, 80
	out["queryheavy-smallext"] = queryHeavy

	updateHeavy := uniform
	updateHeavy.Queriers, updateHeavy.Updaters = 0.1, 0.9
	out["updateheavy"] = updateHeavy

	return out
}

// fineBoxPresets are the two box grids at cps=256, where an MBR of the
// default extents is replicated into several cells.
func fineBoxPresets() []NamedBoxTechnique {
	return []NamedBoxTechnique{
		{Key: "boxcsr/cps=256", Make: func(p core.Params) core.BoxIndex {
			return grid.MustNewBoxGrid(256, p.Bounds, p.NumPoints)
		}},
		{Key: "boxcsr2l/cps=256", Make: func(p core.Params) core.BoxIndex {
			return grid.MustNewBoxGrid2L(256, p.Bounds, p.NumPoints)
		}},
	}
}

func TestKernelDigestMatrixBoxes(t *testing.T) {
	for wname, wcfg := range kernelBoxWorkloads() {
		gen, err := workload.NewBoxGenerator(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		boxes := gen.Rects(nil)
		queriers, rects := kernelQueries(gen.Queriers(), gen.QueryRect)
		p := core.ParamsFor(wcfg.Config)

		oracle := core.NewBruteForceBoxes()
		oracle.Build(boxes)
		want := kernelDigests(oracle, queriers, rects)["emit"]

		for _, tech := range append(BoxTechniques(), fineBoxPresets()...) {
			idx := tech.Make(p)
			idx.Build(boxes)
			for kernel, got := range kernelDigests(idx, queriers, rects) {
				if got != want {
					t.Errorf("%s/%s/%s: digest %x, oracle %x", wname, tech.Key, kernel, got, want)
				}
			}
		}
	}
}

// TestDriverKernelHashesAgree runs the full tick driver under every
// forced query kernel and demands identical (pairs, hash) results: the
// kernel flag may only change speed, never answers. shard-auto routes
// queries through the parallel fan-out/merge driver, so the matrix
// covers the sequential and parallel execution paths.
func TestDriverKernelHashesAgree(t *testing.T) {
	wcfg := workload.DefaultUniform()
	wcfg.NumPoints = 3000
	wcfg.SpaceSize = 6000
	wcfg.Ticks = 2
	trace, err := workload.Record(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	kernels := []core.QueryKernel{core.KernelAuto, core.KernelEmit, core.KernelAppend, core.KernelBatch}
	for _, key := range []string{"grid-csr", "auto", "shard-auto"} {
		tech, err := TechniqueByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		var wantPairs int64
		var wantHash uint64
		for i, kernel := range kernels {
			idx := tech.Make(core.Params{Bounds: wcfg.Bounds(), NumPoints: wcfg.NumPoints})
			res := core.Run(idx, workload.NewPlayer(trace), core.Options{Kernel: kernel})
			if i == 0 {
				wantPairs, wantHash = res.Pairs, res.Hash
				continue
			}
			if res.Pairs != wantPairs || res.Hash != wantHash {
				t.Errorf("%s kernel=%s: pairs=%d hash=%x, want pairs=%d hash=%x",
					key, kernel, res.Pairs, res.Hash, wantPairs, wantHash)
			}
		}
	}
}

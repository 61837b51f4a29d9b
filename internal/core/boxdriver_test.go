package core

import (
	"fmt"
	"testing"

	"repro/internal/grid"
	"repro/internal/rtree"
	"repro/internal/workload"
)

func testBoxConfig() workload.BoxConfig {
	cfg := workload.DefaultUniformBoxes()
	cfg.NumPoints = 700
	cfg.Ticks = 10
	cfg.SpaceSize = 2000
	cfg.MaxSpeed = 50
	cfg.QuerySize = 150
	cfg.MinSide = 5
	cfg.MaxSide = 240
	return cfg
}

// boxLineup instantiates every BoxIndex implementation for the given
// workload: the brute-force oracle, the CSR box grid and its two-layer
// class-partitioned variant at several granularities, and the STR box
// R-tree at several fanouts.
func boxLineup(cfg workload.BoxConfig) []BoxIndex {
	return []BoxIndex{
		NewBruteForceBoxes(),
		grid.MustNewBoxGrid(8, cfg.Bounds(), cfg.NumPoints),
		grid.MustNewBoxGrid(32, cfg.Bounds(), cfg.NumPoints),
		grid.MustNewBoxGrid2L(8, cfg.Bounds(), cfg.NumPoints),
		grid.MustNewBoxGrid2L(32, cfg.Bounds(), cfg.NumPoints),
		rtree.MustNewBoxTree(4),
		rtree.MustNewBoxTree(rtree.DefaultFanout),
	}
}

// TestBoxJoinDigestMatrix is the acceptance-criterion property test:
// every BoxIndex implementation, under the sequential and the parallel
// driver, across workload kinds and extent distributions, must produce
// the identical (pairs, digest) join result. The brute-force oracle is
// duplicate-free by construction, so digest equality also proves zero
// duplicate emissions from the replicating grid.
func TestBoxJoinDigestMatrix(t *testing.T) {
	configs := []workload.BoxConfig{
		testBoxConfig(),
		func() workload.BoxConfig {
			c := testBoxConfig()
			c.Config.Kind = workload.Gaussian
			c.Hotspots = 5
			c.Extent = workload.ExtentGaussian
			return c
		}(),
		func() workload.BoxConfig {
			c := testBoxConfig()
			c.Config.Kind = workload.Simulation
			c.Hotspots = 4
			return c
		}(),
	}
	for _, cfg := range configs {
		t.Run(fmt.Sprintf("%s-%s", cfg.Kind, cfg.Extent), func(t *testing.T) {
			// The reference result: brute force under the sequential
			// driver on a fresh (deterministic) generator.
			ref := RunBoxes(NewBruteForceBoxes(), workload.MustNewBoxGenerator(cfg), Options{})
			if ref.Pairs == 0 {
				t.Fatal("reference run found no pairs; workload too sparse to be meaningful")
			}
			for _, idx := range boxLineup(cfg) {
				res := RunBoxes(idx, workload.MustNewBoxGenerator(cfg), Options{})
				if res.Pairs != ref.Pairs || res.Hash != ref.Hash {
					t.Errorf("sequential %s: (%d, %#x), want (%d, %#x)",
						res.Technique, res.Pairs, res.Hash, ref.Pairs, ref.Hash)
				}
			}
			for _, workers := range []int{2, 4} {
				for _, idx := range boxLineup(cfg) {
					res := RunBoxesParallel(idx, workload.MustNewBoxGenerator(cfg), Options{}, workers)
					if res.Pairs != ref.Pairs || res.Hash != ref.Hash {
						t.Errorf("parallel(%d) %s: (%d, %#x), want (%d, %#x)",
							workers, res.Technique, res.Pairs, res.Hash, ref.Pairs, ref.Hash)
					}
				}
			}
		})
	}
}

// TestBoxJoinDuplicateFreeEmission drives the full tick loop with pair
// collection on and verifies no (querier, found) pair is reported twice
// within a tick — the end-to-end form of the grid's duplicate-emission
// regression test.
func TestBoxJoinDuplicateFreeEmission(t *testing.T) {
	cfg := testBoxConfig()
	// Large extents relative to the space so MBRs span many cells.
	cfg.MinSide = 200
	cfg.MaxSide = 900
	cfg.Ticks = 4
	type pair struct{ q, id uint32 }
	seen := make(map[pair]int)
	idx := grid.MustNewBoxGrid(16, cfg.Bounds(), cfg.NumPoints)
	res := RunBoxes(idx, workload.MustNewBoxGenerator(cfg), Options{
		CollectPairs: func(q, id uint32) {
			seen[pair{q, id}]++
		},
	})
	// Each tick queries a fresh map would need per-tick delimiting; the
	// workload issues each querier at most once per tick, so a pair can
	// legitimately repeat across ticks but at most cfg.Ticks times.
	for p, n := range seen {
		if n > cfg.Ticks {
			t.Fatalf("pair (%d, %d) reported %d times over %d ticks", p.q, p.id, n, cfg.Ticks)
		}
	}
	// Cross-check against the oracle digest: duplicates would shift it.
	ref := RunBoxes(NewBruteForceBoxes(), workload.MustNewBoxGenerator(cfg), Options{})
	if res.Pairs != ref.Pairs || res.Hash != ref.Hash {
		t.Fatalf("box grid digest (%d, %#x) disagrees with oracle (%d, %#x)",
			res.Pairs, res.Hash, ref.Pairs, ref.Hash)
	}
}

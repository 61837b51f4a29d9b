// Boxjoin: an MBR self-join over extended objects — the workload the
// non-point extension exists for.
//
// A fleet of delivery drones each occupies a rectangular airspace
// corridor (its MBR). Every frame, every drone must know which other
// corridors overlap its own: the classic spatial self-join over
// rectangles, the operation at the heart of R-tree join and partitioning
// papers. The example runs it three ways on identical MBRs:
//
//   - brute force: every drone tests every other (the oracle);
//
//   - the two-layer classed rectangle grid: MBRs replicated per
//     overlapped cell by a counting-sort build, interior query cells
//     emitted test-free thanks to the class partition;
//
//   - the STR-packed box R-tree: no replication, each corridor in
//     exactly one leaf of a bulk-loaded packing.
//
//   - the adaptive selector (internal/tune): samples the corridors on
//     its first build and becomes the two-layer grid at the granularity
//     its rule gives the fleet's population — the example prints the
//     pick, the statistics it saw and the rule.
//
// All four must find the identical pair set; the real indexes just get
// there orders of magnitude sooner — and which of them *wins* is the
// paper's "implementation matters" question in miniature.
//
// Run with:
//
//	go run ./examples/boxjoin            # full size
//	go run ./examples/boxjoin -quick     # tiny smoke-test parameters
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/rtree"
	"repro/internal/tune"
	"repro/internal/workload"
)

const cps = 64

func main() {
	quick := flag.Bool("quick", false, "tiny population and frame count (CI smoke run)")
	flag.Parse()
	drones, frames := 12_000, 8
	if *quick {
		drones, frames = 800, 2
	}

	cfg := workload.DefaultUniformBoxes()
	cfg.NumPoints = drones
	cfg.SpaceSize = 22_000
	cfg.Ticks = frames
	cfg.MinSide = 80  // smallest corridor
	cfg.MaxSide = 600 // largest corridor
	cfg.Queriers = 0  // the self-join probes every MBR itself
	cfg.Updaters = 0.4

	src, err := workload.NewBoxGenerator(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The two-layer classed rectangle grid vs the STR box R-tree — the
	// grid-vs-R-tree pairing of the study — plus the adaptive selector
	// racing as its own contender, with brute force as oracle. The
	// self-join probes every corridor with its own MBR, so the hints
	// describe a 100%-querier tick with corridor-sized windows; and
	// because each frame rebuilds from scratch (motion enters through
	// the generator, never through Update calls), the update fraction
	// the index will see is zero.
	bg := grid.MustNewBoxGrid2L(cps, cfg.Bounds(), drones)
	bt := rtree.MustNewBoxTree(rtree.DefaultFanout)
	auto := tune.NewAutoBox(core.Params{
		Bounds:    cfg.Bounds(),
		NumPoints: drones,
		Hints: core.WorkloadHints{
			QuerySize: (cfg.MinSide + cfg.MaxSide) / 2,
			Queriers:  1,
			Updaters:  0,
			Ticks:     frames,
		},
	})
	oracle := core.NewBruteForceBoxes()

	fmt.Printf("boxjoin: %d drone corridors (%g-%g units) over %d frames, grid %dx%d, rtree fanout %d\n\n",
		drones, cfg.MinSide, cfg.MaxSide, frames, cps, cps, bt.Fanout())
	fmt.Printf("%8s  %12s  %12s  %12s  %12s  %10s  %s\n", "frame", "grid", "rtree", "auto", "brute force", "overlaps", "check")

	var rects []geom.Rect
	var gridTotal, rtreeTotal, autoTotal, bruteTotal time.Duration
	for frame := 0; frame < frames; frame++ {
		rects = src.Rects(rects)

		// Self-join per index: build once, probe each MBR.
		start := time.Now()
		bg.Build(rects)
		gridPairs, gridSum := selfJoin(bg, rects)
		gridTime := time.Since(start)
		gridTotal += gridTime

		start = time.Now()
		bt.Build(rects)
		rtreePairs, rtreeSum := selfJoin(bt, rects)
		rtreeTime := time.Since(start)
		rtreeTotal += rtreeTime

		start = time.Now()
		auto.Build(rects)
		autoPairs, autoSum := selfJoin(auto, rects)
		autoTime := time.Since(start)
		autoTotal += autoTime

		start = time.Now()
		oracle.Build(rects)
		brutePairs, bruteSum := selfJoin(oracle, rects)
		bruteTime := time.Since(start)
		bruteTotal += bruteTime

		check := "OK"
		if gridPairs != brutePairs || gridSum != bruteSum ||
			rtreePairs != brutePairs || rtreeSum != bruteSum ||
			autoPairs != brutePairs || autoSum != bruteSum {
			check = "MISMATCH"
		}
		fmt.Printf("%8d  %12s  %12s  %12s  %12s  %10d  %s\n", frame, gridTime.Round(time.Microsecond),
			rtreeTime.Round(time.Microsecond), autoTime.Round(time.Microsecond),
			bruteTime.Round(time.Microsecond), gridPairs, check)
		if check != "OK" {
			log.Fatalf("frame %d: grid (%d, %d), rtree (%d, %d), auto (%d, %d), oracle (%d, %d)",
				frame, gridPairs, gridSum, rtreePairs, rtreeSum, autoPairs, autoSum, brutePairs, bruteSum)
		}

		// Advance the fleet.
		src.ApplyUpdates(src.Updates())
	}

	choice, ok := auto.Choice()
	if !ok {
		log.Fatal("auto never selected a structure")
	}
	fmt.Printf("\nadaptive selector (what it saw and why it chose):\n%s\n", choice.Explain())
	fmt.Printf("\nreplication factor: %.2f cells per corridor (rtree: 1.00 by construction)\n",
		bg.ReplicationFactor())
	fmt.Printf("totals: grid %s, rtree %s, auto %s, brute force %s (grid %.0fx, rtree %.0fx, auto %.0fx vs brute)\n",
		gridTotal.Round(time.Millisecond), rtreeTotal.Round(time.Millisecond),
		autoTotal.Round(time.Millisecond), bruteTotal.Round(time.Millisecond),
		float64(bruteTotal)/float64(gridTotal), float64(bruteTotal)/float64(rtreeTotal),
		float64(bruteTotal)/float64(autoTotal))
	fmt.Println("all frames verified against brute force")
}

// selfJoin probes idx with every MBR and counts unordered overlap pairs
// (i < j), plus an order-independent checksum for the cross-check.
func selfJoin(idx core.BoxIndex, rects []geom.Rect) (pairs int64, sum uint64) {
	for i := range rects {
		q := uint32(i)
		idx.Query(rects[i], func(id uint32) {
			if id > q { // count each unordered pair once, skip self
				pairs++
				sum += uint64(q)*2654435761 + uint64(id)
			}
		})
	}
	return pairs, sum
}

// Command profilegrid reproduces Table 3: the memory-hierarchy profile of
// Simple Grid before and after the re-implementation, measured on the
// simulated cache hierarchy (the substitute for the paper's CPU
// performance counters — see DESIGN.md).
//
// The two profiled configurations default to the paper's Before/After
// pair but both the tuning and the simulated layout are flags, so any
// kind pairing the simulator supports (original, refactored, intrusive,
// rtree — the STR R-tree, putting the study's grid-vs-R-tree axis on
// the same footing) can be profiled head to head.
//
// After the simulated profile, the same trace is replayed through the
// real implementations on the measuring host and the wall-clock query
// phase reported; -querykernel emit|append|batch selects the query
// kernel for that replay (the simulator itself counts memory accesses
// and cannot see the callback-vs-buffer difference).
//
// Examples:
//
//	profilegrid                          # paper configurations, scaled ticks
//	profilegrid -scale 1.0               # full 100-tick replay (slow)
//	profilegrid -before-cps 20 -after-cps 128
//	profilegrid -after-kind intrusive    # refactored vs handle-based u-grid
//	profilegrid -after-kind rtree -after-bs 16  # tuned grid vs STR R-tree
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/memsim"
	"repro/internal/rtree"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "profilegrid:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("profilegrid", flag.ContinueOnError)
	var (
		points     = fs.Int("points", workload.DefaultNumPoints, "number of moving objects")
		scale      = fs.Float64("scale", 0.1, "tick-count scale in (0,1]")
		seed       = fs.Uint64("seed", 1, "workload random seed")
		beforeBS   = fs.Int("before-bs", 4, "bucket size of the 'before' grid")
		beforeCPS  = fs.Int("before-cps", 13, "cells per side of the 'before' grid")
		beforeKind = fs.String("before-kind", "original", "simulated layout of the 'before' technique: original, refactored, intrusive or rtree (rtree reads the fanout from -before-bs)")
		afterBS    = fs.Int("after-bs", 20, "bucket size of the 'after' grid")
		afterCPS   = fs.Int("after-cps", 64, "cells per side of the 'after' grid")
		afterKind  = fs.String("after-kind", "refactored", "simulated layout of the 'after' technique: original, refactored, intrusive or rtree (rtree reads the fanout from -after-bs)")
		l1KB       = fs.Int("l1-kb", 32, "L1d size in KiB")
		l2KB       = fs.Int("l2-kb", 256, "L2 size in KiB")
		l3MB       = fs.Int("l3-mb", 8, "L3 size in MiB")
		kernelKey  = fs.String("querykernel", "auto", "query kernel for the host replay ("+core.QueryKernelKeys+"): emit = per-result callback, append = buffered, batch = multi-query")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scale <= 0 || *scale > 1 {
		return fmt.Errorf("scale must be in (0,1], got %g", *scale)
	}
	kernel, kerr := core.ParseQueryKernel(*kernelKey)
	if kerr != nil {
		return kerr
	}
	bKind, err := parseKind(*beforeKind)
	if err != nil {
		return err
	}
	aKind, err := parseKind(*afterKind)
	if err != nil {
		return err
	}

	wcfg := workload.DefaultUniform()
	wcfg.Seed = *seed
	wcfg.NumPoints = *points
	wcfg.Ticks = int(float64(wcfg.Ticks)**scale + 0.5)
	if wcfg.Ticks < 2 {
		wcfg.Ticks = 2
	}
	fmt.Fprintf(os.Stderr, "recording workload: %d points, %d ticks\n", wcfg.NumPoints, wcfg.Ticks)
	fmt.Fprintf(os.Stderr, "kernels: %s\n", grid.KernelTier())
	trace, err := workload.Record(wcfg)
	if err != nil {
		return err
	}

	hier := memsim.DefaultHierarchy()
	hier.L1.SizeBytes = *l1KB << 10
	hier.L2.SizeBytes = *l2KB << 10
	hier.L3.SizeBytes = *l3MB << 20

	before := memsim.GridSimConfig{Kind: bKind, BS: *beforeBS, CPS: *beforeCPS}
	after := memsim.GridSimConfig{Kind: aKind, BS: *afterBS, CPS: *afterCPS}

	fmt.Fprintf(os.Stderr, "profiling before (%s, bs=%d cps=%d)...\n", before.Kind, before.BS, before.CPS)
	bres, err := memsim.ProfileGrid(before, trace, hier, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "profiling after (%s, bs=%d cps=%d)...\n", after.Kind, after.BS, after.CPS)
	ares, err := memsim.ProfileGrid(after, trace, hier, 0)
	if err != nil {
		return err
	}
	if bres.Pairs != ares.Pairs {
		return fmt.Errorf("join results diverge: %d vs %d pairs", bres.Pairs, ares.Pairs)
	}

	table := stats.NewTable(
		fmt.Sprintf("Profiling (simulated %dKiB/%dKiB/%dMiB hierarchy): %d points, %d ticks",
			*l1KB, *l2KB, *l3MB, wcfg.NumPoints, wcfg.Ticks),
		"Simple Grid", "CPI", "Total INS", "L1 Misses", "L2 Misses", "L3 Misses",
	)
	addRow := func(name string, p memsim.Profile) {
		table.AddRow(name,
			fmt.Sprintf("%.2f", p.CPI),
			fmt.Sprintf("%d", p.Instructions),
			fmt.Sprintf("%d", p.L1Misses),
			fmt.Sprintf("%d", p.L2Misses),
			fmt.Sprintf("%d", p.L3Misses))
	}
	addRow("Before", bres.Profile)
	addRow("After", ares.Profile)
	fmt.Print(table.Format())
	b, a := bres.Profile, ares.Profile
	fmt.Printf("\nreductions: INS %.1fx, L1 %.1fx, L2 %.1fx, L3 %.1fx, CPI %.2f -> %.2f\n",
		safeRatio(float64(b.Instructions), float64(a.Instructions)),
		safeRatio(float64(b.L1Misses), float64(a.L1Misses)),
		safeRatio(float64(b.L2Misses), float64(a.L2Misses)),
		safeRatio(float64(b.L3Misses), float64(a.L3Misses)),
		b.CPI, a.CPI)
	fmt.Printf("join check: both implementations found %d pairs over %d queries\n", bres.Pairs, bres.Queries)

	// Host companion: the same trace replayed through the real
	// implementations on this machine's actual memory hierarchy, with
	// the selected query kernel. The simulator charges the buffered and
	// callback kernels identically (it counts accesses, not call
	// overhead), so this is where -querykernel emit vs append shows up.
	hBefore, err := hostIndex(bKind, *beforeBS, *beforeCPS, wcfg)
	if err != nil {
		return err
	}
	hAfter, err := hostIndex(aKind, *afterBS, *afterCPS, wcfg)
	if err != nil {
		return err
	}
	hb := core.Run(hBefore, workload.NewPlayer(trace), core.Options{Kernel: kernel})
	ha := core.Run(hAfter, workload.NewPlayer(trace), core.Options{Kernel: kernel})
	if hb.Pairs != ha.Pairs || hb.Hash != ha.Hash {
		return fmt.Errorf("host replay diverges: %d pairs (digest %#x) vs %d pairs (digest %#x)",
			hb.Pairs, hb.Hash, ha.Pairs, ha.Hash)
	}
	bq := perQueryNs(hb)
	aq := perQueryNs(ha)
	fmt.Printf("host replay (kernel=%s): query phase %.0f -> %.0f ns/query (%.2fx), tick %.4fs -> %.4fs\n",
		kernel, bq, aq, safeRatio(bq, aq), hb.AvgTick().Seconds(), ha.AvgTick().Seconds())
	return nil
}

// perQueryNs is the replay's average wall time per range query.
func perQueryNs(r *core.Result) float64 {
	if r.Queries == 0 {
		return 0
	}
	return float64(r.Totals.Query.Nanoseconds()) / float64(r.Queries)
}

// hostIndex maps a simulated grid kind to its real in-tree counterpart
// at the same tuning, for the host replay.
func hostIndex(k memsim.GridKind, bs, cps int, wcfg workload.Config) (core.Index, error) {
	switch k {
	case memsim.GridOriginal:
		return grid.New(grid.Config{Layout: grid.LayoutLinked, Scan: grid.ScanFull, BS: bs, CPS: cps}, wcfg.Bounds(), wcfg.NumPoints)
	case memsim.GridRefactored:
		return grid.New(grid.Config{Layout: grid.LayoutInline, Scan: grid.ScanRange, BS: bs, CPS: cps}, wcfg.Bounds(), wcfg.NumPoints)
	case memsim.GridIntrusive:
		return grid.New(grid.Config{Layout: grid.LayoutIntrusive, Scan: grid.ScanRange, BS: bs, CPS: cps}, wcfg.Bounds(), wcfg.NumPoints)
	case memsim.GridRTree:
		return rtree.New(bs)
	}
	return nil, fmt.Errorf("no host counterpart for simulated kind %v", k)
}

func parseKind(s string) (memsim.GridKind, error) {
	switch s {
	case "original":
		return memsim.GridOriginal, nil
	case "refactored":
		return memsim.GridRefactored, nil
	case "intrusive":
		return memsim.GridIntrusive, nil
	case "rtree":
		return memsim.GridRTree, nil
	}
	return 0, fmt.Errorf("unknown grid kind %q (have original, refactored, intrusive, rtree)", s)
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Command experiments regenerates the paper's tables and figures.
//
// Each experiment prints the same rows/series the paper reports, as an
// aligned text table; -csv-dir additionally writes one CSV per artifact
// for plotting.
//
// Examples:
//
//	experiments -list
//	experiments -run fig2a -scale 0.1
//	experiments -run all -scale 1.0 -csv-dir results/   # full paper scale
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		runIDs = fs.String("run", "all", "comma-separated experiment IDs, \"all\" (paper artifacts) or \"extensions\"")
		list   = fs.Bool("list", false, "list experiments and exit")
		scale  = fs.Float64("scale", 0.1, "tick-count scale in (0,1]; 1.0 = paper parameters")
		seed   = fs.Uint64("seed", 1, "workload random seed")
		csvDir = fs.String("csv-dir", "", "directory to write per-experiment CSVs into")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-7s %s\n", e.ID, e.Title)
		}
		for _, e := range bench.AllExtensions() {
			fmt.Printf("%-7s %s\n", e.ID, e.Title)
		}
		return nil
	}

	cfg := bench.Config{Scale: *scale, Seed: *seed}
	if err := cfg.Validate(); err != nil {
		return err
	}

	var selected []bench.Experiment
	switch *runIDs {
	case "all":
		selected = bench.All()
	case "extensions":
		selected = bench.AllExtensions()
	default:
		for _, id := range strings.Split(*runIDs, ",") {
			id = strings.TrimSpace(id)
			e, ok := bench.ByID(id)
			if !ok {
				e, ok = bench.ExtensionByID(id)
			}
			if !ok {
				return fmt.Errorf("unknown experiment %q (try -list)", id)
			}
			selected = append(selected, e)
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	for _, e := range selected {
		fmt.Printf("=== %s: %s\n", e.ID, e.Title)
		fmt.Printf("    paper shape: %s\n", e.PaperShape)
		start := time.Now()
		art, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Printf("    completed in %.1fs (scale %.2f)\n\n", time.Since(start).Seconds(), *scale)
		fmt.Println(indent(art.Format(), "    "))
		if *csvDir != "" {
			path := filepath.Join(*csvDir, e.ID+".csv")
			if err := os.WriteFile(path, []byte(art.CSV()), 0o644); err != nil {
				return err
			}
			fmt.Printf("    wrote %s\n\n", path)
		}
	}
	return nil
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n")
}

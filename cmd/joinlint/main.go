// Command joinlint is the project's static-analysis multichecker: the
// four contract analyzers (capforward, containedgo, hotpath,
// determinism) plus the three compiler-probe gates (escape, inline, BCE)
// from internal/joinlint, wired behind one CLI.
//
// Analyze (the default):
//
//	go run ./cmd/joinlint ./...
//	go run ./cmd/joinlint -analyzers capforward,hotpath ./internal/grid
//
// Compiler-probe gates (the escape gate proves every
// //joinlint:hotpath kernel allocation-free and, from the same compiler
// output, the inline gate every //joinlint:inline function inlinable; the
// BCE gate pins the //joinlint:bce loops' bounds-check counts against the
// checked-in baseline):
//
//	go run ./cmd/joinlint -escapes -bce ./...
//	go run ./cmd/joinlint -escapes -bce -json ./...   # machine-readable summary
//	go run ./cmd/joinlint -bce -write-bce-baseline ./...  # regenerate the pin
//
// The binary also speaks the go vet -vettool protocol, so the analyzer
// suite runs under vet's caching and package iteration:
//
//	go build -o /tmp/joinlint ./cmd/joinlint
//	go vet -vettool=/tmp/joinlint ./...
//
// Exit status: 0 clean, 1 findings or gate failures, 2 usage/load
// errors.
package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/joinlint"
)

func main() {
	// The go vet protocol probes the tool before handing it a config:
	// -V=full must print an identity line, -flags the tool's flag set.
	for _, arg := range os.Args[1:] {
		if arg == "-V=full" || arg == "--V=full" {
			// The version doubles as the vet cache key, so it must
			// change whenever the tool's behavior does: hash the binary.
			fmt.Printf("joinlint version %s\n", selfID())
			return
		}
	}
	if len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg") {
		os.Exit(runVetTool(os.Args[1], os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("joinlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		escapes   = fs.Bool("escapes", false, "run the escape gate: every //joinlint:hotpath function must be free of heap escapes; and the inline gate: every //joinlint:inline function must be reported inlinable")
		bce       = fs.Bool("bce", false, "run the BCE gate: every //joinlint:bce function's bounds-check count must not exceed the baseline")
		jsonOut   = fs.Bool("json", false, "with -escapes/-bce, print the machine-readable per-function probe summary to stdout")
		baseline  = fs.String("bce-baseline", "internal/joinlint/bce_baseline.json", "BCE baseline file, relative to the module root")
		writeBase = fs.Bool("write-bce-baseline", false, "with -bce, regenerate the baseline instead of gating against it")
		analyzers = fs.String("analyzers", "", "comma-separated analyzer subset (default: all of capforward, containedgo, hotpath, determinism)")
		flagsMode = fs.Bool("flags", false, "print the vet-protocol flag description (internal: used by go vet)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *flagsMode {
		fmt.Fprintln(stdout, "[]")
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	// The source importer resolves module-local import paths through
	// the go command relative to the working directory, so everything
	// runs from the module root; it also keeps compiler diagnostic
	// paths aligned with the collected annotations.
	root, err := joinlint.ModuleRoot("")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if err := os.Chdir(root); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *escapes || *bce {
		return runGates(root, patterns, *escapes, *bce, *jsonOut, *baseline, *writeBase, stdout, stderr)
	}

	sel, err := joinlint.ByName(splitList(*analyzers))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	pkgs, err := joinlint.NewLoader().Load(root, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	diags := joinlint.RunAnalyzers(pkgs, sel)
	for _, d := range diags {
		fmt.Fprintln(stderr, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "joinlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

func runGates(root string, patterns []string, escapes, bce, jsonOut bool, baselinePath string, writeBase bool, stdout, stderr io.Writer) int {
	report, err := joinlint.Probe(root, patterns, escapes, bce)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if jsonOut {
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		stdout.Write(buf.Bytes())
	}
	failed := false
	if escapes {
		errs := joinlint.EscapeGate(report)
		for _, e := range errs {
			fmt.Fprintln(stderr, e)
		}
		if len(errs) > 0 {
			failed = true
		} else {
			hot := countFuncs(report, func(f *joinlint.FuncProbe) bool { return f.Hotpath })
			fmt.Fprintf(stderr, "escape gate: %d hotpath function(s) allocation-free\n", hot)
		}
		errs = joinlint.InlineGate(report)
		for _, e := range errs {
			fmt.Fprintln(stderr, e)
		}
		if len(errs) > 0 {
			failed = true
		} else {
			inl := countFuncs(report, func(f *joinlint.FuncProbe) bool { return f.Inline })
			fmt.Fprintf(stderr, "inline gate: %d inline function(s) inlinable\n", inl)
		}
	}
	if bce {
		if writeBase {
			if err := joinlint.WriteBCEBaseline(baselinePath, report); err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			fmt.Fprintf(stderr, "bce gate: baseline written to %s\n", baselinePath)
		} else {
			base, err := joinlint.LoadBCEBaseline(baselinePath)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			errs, improved := joinlint.BCEGate(report, base)
			for _, e := range errs {
				fmt.Fprintln(stderr, e)
			}
			for _, s := range improved {
				fmt.Fprintf(stderr, "bce gate: improvement: %s\n", s)
			}
			if len(errs) > 0 {
				failed = true
			} else {
				pinned := countFuncs(report, func(f *joinlint.FuncProbe) bool { return f.BCE })
				fmt.Fprintf(stderr, "bce gate: %d function(s) at or below baseline\n", pinned)
			}
		}
	}
	if failed {
		return 1
	}
	return 0
}

// countFuncs counts the report's functions carrying the picked annotation.
func countFuncs(r *joinlint.ProbeReport, pick func(*joinlint.FuncProbe) bool) int {
	n := 0
	for _, f := range r.Functions {
		if pick(f) {
			n++
		}
	}
	return n
}

// selfID returns a content hash of the running executable, or a fixed
// fallback when it cannot be read (go vet then just caches less well).
func selfID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unhashed"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unhashed"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unhashed"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

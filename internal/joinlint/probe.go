package joinlint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// This file holds the three compiler-probe gates. They do not inspect
// the AST for violations: they ask the real compiler. The escape gate
// parses `go build -gcflags=-m` and fails if any //joinlint:hotpath
// function heap-allocates — proving the zero-alloc contract from the
// compiler's own escape analysis, in agreement with (but without
// running) the AllocsPerRun tests. The inline gate reads the same output
// and fails if any //joinlint:inline function is not reported "can
// inline": the per-point mappers sit a few nodes under the inliner's
// budget, and one more field selector turns each into a call with a
// struct copy, once per point per tick. The BCE gate parses
// `go build -gcflags=-d=ssa/check_bce` and pins the bounds-check count
// of every //joinlint:bce function against a checked-in baseline, so a
// refactor that quietly re-introduces a check into a hand-optimized
// CSR or class-span inner loop fails CI instead of surfacing as a
// bench regression hours later.

// FuncProbe is the probe result for one annotated function. File is
// module-root-relative; the JSON stream is the machine-readable
// summary future bench PRs diff to see which hot loops are still
// check- and allocation-free.
type FuncProbe struct {
	Package   string `json:"package"`
	Func      string `json:"func"`
	File      string `json:"file"`
	StartLine int    `json:"start_line"`
	EndLine   int    `json:"end_line"`
	Hotpath   bool   `json:"hotpath"`
	BCE       bool   `json:"bce"`
	Inline    bool   `json:"inline"`
	// CanInline records that the compiler reported the function "can
	// inline" (set by the -m probe; meaningful for inline functions).
	CanInline bool `json:"can_inline"`
	// Escapes holds one "file:line: message" per heap escape the
	// compiler reported inside the function (hotpath functions only).
	Escapes []string `json:"escapes"`
	// BoundsChecks holds one "file:line: message" per bounds check the
	// compiler could not eliminate (bce functions only).
	BoundsChecks []string `json:"bounds_checks"`
}

// Key identifies the function in baselines: "package.func".
func (f *FuncProbe) Key() string { return f.Package + "." + f.Func }

// ProbeReport aggregates a gate run.
type ProbeReport struct {
	// Packages are the import paths carrying at least one annotation —
	// the set the probe builds rebuilt with diagnostic flags.
	Packages  []string     `json:"packages"`
	Functions []*FuncProbe `json:"functions"`
}

// WriteJSON emits the machine-readable summary.
func (r *ProbeReport) WriteJSON(w *bytes.Buffer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// CompilerDiag is one parsed file:line:col diagnostic from the
// compiler's stderr.
type CompilerDiag struct {
	File    string
	Line    int
	Col     int
	Message string
}

var diagRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// ParseCompilerDiagnostics extracts every file:line:col diagnostic from
// raw `go build` output, skipping package headers ("# repro/...") and
// indented explanation lines (-m=2 style).
func ParseCompilerDiagnostics(out []byte) []CompilerDiag {
	var diags []CompilerDiag
	for _, line := range strings.Split(string(out), "\n") {
		m := diagRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		diags = append(diags, CompilerDiag{File: m[1], Line: ln, Col: col, Message: m[4]})
	}
	return diags
}

// IsHeapEscape reports whether a -gcflags=-m diagnostic records a heap
// allocation: "x escapes to heap" or "moved to heap: x". Lines like
// "leaking param: buf" or "x does not escape" are analysis notes, not
// allocations, and are excluded.
func IsHeapEscape(d CompilerDiag) bool {
	return strings.Contains(d.Message, "escapes to heap") ||
		strings.HasPrefix(d.Message, "moved to heap:")
}

// isCanInline reports whether a -gcflags=-m diagnostic, which the compiler
// puts on the line of the func keyword, declares that function inlinable.
func isCanInline(d CompilerDiag) bool {
	return strings.HasPrefix(d.Message, "can inline ")
}

// IsBoundsCheck reports whether a -d=ssa/check_bce diagnostic records a
// retained bounds check ("Found IsInBounds" / "Found IsSliceInBounds").
func IsBoundsCheck(d CompilerDiag) bool {
	return strings.HasPrefix(d.Message, "Found Is")
}

// CollectAnnotated parses the packages matching patterns (no
// type-checking — the probes only need positions) and returns a probe
// entry for every function annotated //joinlint:hotpath,
// //joinlint:bce or //joinlint:inline, plus the sorted set of import
// paths carrying at least one annotation. dir is the module root ("" for the working
// directory); File fields come back relative to it, matching the
// compiler's diagnostic paths.
func CollectAnnotated(dir string, patterns []string) ([]*FuncProbe, []string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if dir == "" {
		dir = "."
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	var funcs []*FuncProbe
	pkgSet := map[string]bool{}
	for _, lp := range listed {
		for _, name := range lp.GoFiles {
			path := filepath.Join(lp.Dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			ix := parseDirectives(fset, []*ast.File{f})
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				_, hot := funcDirective(fset, ix, fn, dirHotPath)
				_, bce := funcDirective(fset, ix, fn, dirBCE)
				_, inl := funcDirective(fset, ix, fn, dirInline)
				if !hot && !bce && !inl {
					continue
				}
				rel, err := filepath.Rel(absDir, path)
				if err != nil {
					rel = path
				}
				funcs = append(funcs, &FuncProbe{
					Package:      lp.ImportPath,
					Func:         funcDisplayName(fn),
					File:         rel,
					StartLine:    fset.Position(fn.Pos()).Line,
					EndLine:      fset.Position(fn.End()).Line,
					Hotpath:      hot,
					BCE:          bce,
					Inline:       inl,
					Escapes:      []string{},
					BoundsChecks: []string{},
				})
				pkgSet[lp.ImportPath] = true
			}
		}
	}
	pkgs := make([]string, 0, len(pkgSet))
	for p := range pkgSet {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	sort.Slice(funcs, func(i, j int) bool {
		if funcs[i].File != funcs[j].File {
			return funcs[i].File < funcs[j].File
		}
		return funcs[i].StartLine < funcs[j].StartLine
	})
	return funcs, pkgs, nil
}

// funcDisplayName renders "(*Grid).QueryAppend" / "csrStore.appendRuns"
// / "FoldMoves" from a declaration.
func funcDisplayName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	recv := fn.Recv.List[0].Type
	return "(" + typeExprString(recv) + ")." + fn.Name.Name
}

func typeExprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return "*" + typeExprString(e.X)
	case *ast.IndexExpr: // generic receiver T[P]
		return typeExprString(e.X)
	case *ast.IndexListExpr:
		return typeExprString(e.X)
	default:
		return fmt.Sprintf("%T", e)
	}
}

// runCompilerProbe rebuilds pkgs with the given -gcflags value and
// returns the combined diagnostics output. The build cache replays
// compiler diagnostics, so repeated gate runs stay fast.
func runCompilerProbe(dir, gcflags string, pkgs []string) ([]byte, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	args := append([]string{"build", "-gcflags=" + gcflags}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build -gcflags=%s: %v\n%s", gcflags, err, out)
	}
	return out, nil
}

// attribute appends each matching diagnostic to the annotated function
// whose line range contains it. pick selects the annotation kind, and
// classify the diagnostic kind.
func attribute(funcs []*FuncProbe, diags []CompilerDiag, pick func(*FuncProbe) bool, classify func(CompilerDiag) bool, sink func(*FuncProbe, string)) {
	for _, d := range diags {
		if !classify(d) {
			continue
		}
		for _, f := range funcs {
			if !pick(f) || f.File != d.File || d.Line < f.StartLine || d.Line > f.EndLine {
				continue
			}
			sink(f, fmt.Sprintf("%s:%d: %s", d.File, d.Line, d.Message))
		}
	}
}

// Probe runs the requested compiler probes over every annotated
// function reachable from patterns and returns the attributed report.
// dir must be the module root so the compiler's relative diagnostic
// paths line up with the collected files.
func Probe(dir string, patterns []string, escapes, bce bool) (*ProbeReport, error) {
	funcs, pkgs, err := CollectAnnotated(dir, patterns)
	if err != nil {
		return nil, err
	}
	if escapes {
		out, err := runCompilerProbe(dir, "-m", pkgs)
		if err != nil {
			return nil, err
		}
		diags := ParseCompilerDiagnostics(out)
		attribute(funcs, diags,
			func(f *FuncProbe) bool { return f.Hotpath },
			IsHeapEscape,
			func(f *FuncProbe, s string) { f.Escapes = append(f.Escapes, s) })
		for _, d := range diags {
			for _, f := range funcs {
				if f.Inline && isCanInline(d) && f.File == d.File && f.StartLine == d.Line {
					f.CanInline = true
				}
			}
		}
	}
	if bce {
		out, err := runCompilerProbe(dir, "-d=ssa/check_bce", pkgs)
		if err != nil {
			return nil, err
		}
		attribute(funcs, ParseCompilerDiagnostics(out),
			func(f *FuncProbe) bool { return f.BCE },
			IsBoundsCheck,
			func(f *FuncProbe, s string) { f.BoundsChecks = append(f.BoundsChecks, s) })
	}
	return &ProbeReport{Packages: pkgs, Functions: funcs}, nil
}

// EscapeGate returns one error per //joinlint:hotpath function that
// heap-allocates. An empty result is the proof the zero-alloc kernels
// rely on: no hidden allocation can have crept into any annotated
// kernel, however it is called.
func EscapeGate(r *ProbeReport) []error {
	var errs []error
	for _, f := range r.Functions {
		if !f.Hotpath || len(f.Escapes) == 0 {
			continue
		}
		errs = append(errs, fmt.Errorf("escape gate: %s %s heap-allocates (%d escapes):\n\t%s",
			f.Package, f.Func, len(f.Escapes), strings.Join(f.Escapes, "\n\t")))
	}
	return errs
}

// InlineGate returns one error per //joinlint:inline function the compiler
// did not report inlinable. It reads the escape probe's output, so it is
// meaningful only on a report made with escapes on.
func InlineGate(r *ProbeReport) []error {
	var errs []error
	for _, f := range r.Functions {
		if f.Inline && !f.CanInline {
			errs = append(errs, fmt.Errorf("inline gate: %s %s (%s:%d) is annotated //joinlint:inline, but the compiler does not report it \"can inline\"; go build -gcflags=-m=2 names its cost",
				f.Package, f.Func, f.File, f.StartLine))
		}
	}
	return errs
}

// BCEBaseline pins each //joinlint:bce function's allowed bounds-check
// count: "package.func" -> count.
type BCEBaseline map[string]int

// LoadBCEBaseline reads the checked-in baseline.
func LoadBCEBaseline(path string) (BCEBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b BCEBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("joinlint: parsing BCE baseline %s: %v", path, err)
	}
	return b, nil
}

// WriteBCEBaseline regenerates the baseline from a report.
func WriteBCEBaseline(path string, r *ProbeReport) error {
	b := BCEBaseline{}
	for _, f := range r.Functions {
		if f.BCE {
			b[f.Key()] = len(f.BoundsChecks)
		}
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// BCEGate compares a report against the baseline: more bounds checks
// than pinned is a regression, an unpinned annotated function needs a
// baseline entry (run with -write-bce-baseline), and an improvement is
// reported so the baseline can be tightened.
func BCEGate(r *ProbeReport, baseline BCEBaseline) (errs []error, improved []string) {
	for _, f := range r.Functions {
		if !f.BCE {
			continue
		}
		want, ok := baseline[f.Key()]
		n := len(f.BoundsChecks)
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("bce gate: %s has no baseline entry; run cmd/joinlint -bce -write-bce-baseline and commit the result", f.Key()))
		case n > want:
			errs = append(errs, fmt.Errorf("bce gate: %s retained %d bounds checks, baseline pins %d:\n\t%s",
				f.Key(), n, want, strings.Join(f.BoundsChecks, "\n\t")))
		case n < want:
			improved = append(improved, fmt.Sprintf("%s: %d bounds checks, baseline allows %d (tighten the baseline)", f.Key(), n, want))
		}
	}
	// A stale baseline entry (function renamed or de-annotated) fails
	// too: otherwise the pin silently stops pinning anything.
	current := map[string]bool{}
	for _, f := range r.Functions {
		if f.BCE {
			current[f.Key()] = true
		}
	}
	var stale []string
	for k := range baseline {
		if !current[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		errs = append(errs, fmt.Errorf("bce gate: baseline entry %s matches no //joinlint:bce function; remove it or restore the annotation", k))
	}
	return errs, improved
}

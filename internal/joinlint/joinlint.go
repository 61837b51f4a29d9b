// Package joinlint holds the project's static analyzers and
// compiler-probe gates: go vet-class tooling that enforces, at lint
// time, the structural contracts the paper's "implementation matters"
// findings rest on. Each analyzer pins a discipline a runtime test
// family currently guards —
//
//   - capforward turns the per-wrapper capability tests (QueryAppend /
//     BuildParallel / UpdateBatch forwarding) into a compile-time
//     guarantee for every future wrapper;
//   - containedgo keeps parallel sections routed through
//     parutil.Group / ForEachShard / GoErr so a worker panic is
//     contained instead of killing the process;
//   - hotpath forbids the per-result indirection and hidden-allocation
//     patterns (interface boxing, escaping closures, defer, map
//     iteration, fmt/log) in the annotated query kernels;
//   - determinism keeps digest-feeding build/fold paths free of map
//     iteration order, wall-clock reads, and unseeded randomness.
//
// Two compiler probes complement the AST analyzers (probe.go): the
// escape gate parses `go build -gcflags=-m` and fails if any
// //joinlint:hotpath function heap-allocates, and the BCE gate parses
// `-gcflags=-d=ssa/check_bce` and pins the bounds-check count of the
// //joinlint:bce loops against a checked-in baseline.
//
// The framework below is a deliberately small stdlib-only analogue of
// golang.org/x/tools/go/analysis (this module builds offline with no
// third-party dependencies): an Analyzer is a named Run function over a
// type-checked Pass, and diagnostics are plain positions + messages.
// cmd/joinlint wires every analyzer and both probes into one CLI.
package joinlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named static check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer so the suite can migrate to
// the real framework if the dependency ever becomes available.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and in
	// //joinlint:allow suppression directives.
	Name string
	// Doc is the one-line contract the analyzer enforces.
	Doc string
	// Run analyzes one package and reports findings through the pass.
	Run func(*Pass)
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{CapForward, ContainedGo, HotPath, Determinism}
}

// ByName returns the analyzers selected by names, or All() when names
// is empty. Unknown names are an error.
func ByName(names []string) ([]*Analyzer, error) {
	if len(names) == 0 {
		return All(), nil
	}
	var sel []*Analyzer
	for _, n := range names {
		found := false
		for _, a := range All() {
			if a.Name == n {
				sel = append(sel, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("joinlint: unknown analyzer %q", n)
		}
	}
	return sel, nil
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// directives indexes every //joinlint: comment by file and line
	// (see directive.go).
	directives directiveIndex
	diags      *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless a suppression directive
// covers that line (a //joinlint:allow <analyzer> <reason> — or, for
// containedgo, //joinlint:uncontained <reason> — on the same line or
// the line immediately above).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressed(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// suppressed reports whether a directive on the diagnostic's line (or
// the line above it) allows this analyzer's findings there.
func (p *Pass) suppressed(pos token.Position) bool {
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, d := range p.directives.at(pos.Filename, line) {
			if d.suppresses(p.Analyzer.Name) {
				return true
			}
		}
	}
	return false
}

// RunAnalyzers applies every analyzer to every package and returns the
// findings sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if pkg.Directives == nil {
			pkg.Directives = parseDirectives(pkg.Fset, pkg.Files)
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Pkg,
				Info:       pkg.Info,
				directives: pkg.Directives,
				diags:      &diags,
			}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

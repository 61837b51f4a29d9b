package joinlint

import (
	"go/ast"
	"go/token"
	"strings"
)

// The //joinlint: directive grammar. Directives are ordinary line
// comments and take effect on their own line and the line below (so
// both trailing and preceding placement work):
//
//	//joinlint:hotpath            — marks a function as a hot query
//	                                kernel: the hotpath analyzer checks
//	                                its body and the escape gate pins it
//	                                allocation-free.
//	//joinlint:bce                — marks a function whose inner loops'
//	                                bounds-check count the BCE gate pins
//	                                against the checked-in baseline.
//	//joinlint:inline             — marks a function the inline gate
//	                                requires the compiler to report
//	                                inlinable.
//	//joinlint:deterministic      — marks a digest-feeding build/fold
//	                                path for the determinism analyzer.
//	//joinlint:uncontained <why>  — allows a raw go statement or bare
//	                                sync.WaitGroup that containedgo
//	                                would otherwise flag. The reason is
//	                                mandatory.
//	//joinlint:allow <name> <why> — suppresses analyzer <name>'s
//	                                findings on the covered lines. The
//	                                reason is mandatory.
const directivePrefix = "//joinlint:"

// directive names that annotate (rather than suppress).
const (
	dirHotPath       = "hotpath"
	dirBCE           = "bce"
	dirInline        = "inline"
	dirDeterministic = "deterministic"
	dirUncontained   = "uncontained"
	dirAllow         = "allow"
)

// Directive is one parsed //joinlint: comment.
type Directive struct {
	Name string // "hotpath", "bce", "inline", "deterministic", "uncontained", "allow"
	Args string // everything after the name, trimmed
	Pos  token.Position
}

// suppresses reports whether this directive silences findings of the
// named analyzer: uncontained covers containedgo, and allow covers the
// analyzer it names. A missing reason never suppresses — the analyzers
// flag it instead, so an undocumented escape hatch cannot exist.
func (d Directive) suppresses(analyzer string) bool {
	switch d.Name {
	case dirUncontained:
		return analyzer == containedGoName && d.Args != ""
	case dirAllow:
		name, reason, _ := strings.Cut(d.Args, " ")
		return name == analyzer && strings.TrimSpace(reason) != ""
	}
	return false
}

// directiveIndex maps file -> line -> directives on that line.
type directiveIndex map[string]map[int][]Directive

func (ix directiveIndex) at(file string, line int) []Directive {
	return ix[file][line]
}

// parseDirectives scans every comment in the files for //joinlint:
// directives.
func parseDirectives(fset *token.FileSet, files []*ast.File) directiveIndex {
	ix := make(directiveIndex)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				name, args, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Pos())
				byLine := ix[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]Directive)
					ix[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], Directive{
					Name: name,
					Args: strings.TrimSpace(args),
					Pos:  pos,
				})
			}
		}
	}
	return ix
}

// funcDirective returns the annotation directive of the given name
// attached to fn: in its doc comment, or on the line of (or just
// above) the func keyword.
func (p *Pass) funcDirective(fn *ast.FuncDecl, name string) (Directive, bool) {
	return funcDirective(p.Fset, p.directives, fn, name)
}

func funcDirective(fset *token.FileSet, ix directiveIndex, fn *ast.FuncDecl, name string) (Directive, bool) {
	pos := fset.Position(fn.Pos())
	lines := []int{pos.Line, pos.Line - 1}
	if fn.Doc != nil {
		for l := fset.Position(fn.Doc.Pos()).Line; l < pos.Line; l++ {
			lines = append(lines, l)
		}
	}
	for _, line := range lines {
		for _, d := range ix.at(pos.Filename, line) {
			if d.Name == name {
				return d, true
			}
		}
	}
	return Directive{}, false
}

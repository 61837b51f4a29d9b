package joinlint

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the backtick-quoted patterns of a `// want ...`
// expectation comment.
var wantRe = regexp.MustCompile("`([^`]*)`")

// expectation is one expected diagnostic: a pattern anchored to a line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// collectWants parses every `// want` comment of the fixture package
// into expectations.
func collectWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				pats := wantRe.FindAllStringSubmatch(text, -1)
				if len(pats) == 0 {
					t.Fatalf("%s:%d: want comment without backtick-quoted patterns", pos.Filename, pos.Line)
				}
				for _, m := range pats {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	return wants
}

// checkFixture runs one analyzer over a testdata package and matches
// the diagnostics against the fixture's want comments, analysistest
// style: every diagnostic must be expected, every expectation must
// fire.
func checkFixture(t *testing.T, name string, analyzer *Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", name)
	pkg, err := NewLoader().LoadDir(dir, "repro/internal/joinlint/testdata/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{analyzer})
	wants := collectWants(t, pkg)

	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.pattern.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic:\n  %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

func TestCapForwardFixture(t *testing.T)  { checkFixture(t, "capforward", CapForward) }
func TestContainedGoFixture(t *testing.T) { checkFixture(t, "containedgo", ContainedGo) }
func TestHotPathFixture(t *testing.T)     { checkFixture(t, "hotpath", HotPath) }
func TestDeterminismFixture(t *testing.T) { checkFixture(t, "determinism", Determinism) }

// TestCapForwardFlagsMissingQueryAppend pins the acceptance case by
// name: a wrapper that stores an inner index and forwards Query but not
// QueryAppend must be flagged for core.QueryAppender specifically.
func TestCapForwardFlagsMissingQueryAppend(t *testing.T) {
	pkg, err := NewLoader().LoadDir(filepath.Join("testdata", "capforward"), "repro/internal/joinlint/testdata/capforward")
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{CapForward})
	for _, d := range diags {
		if strings.Contains(d.Message, "BrokenWrap") && strings.Contains(d.Message, "core.QueryAppender") {
			return
		}
	}
	t.Fatalf("capforward did not flag BrokenWrap for missing core.QueryAppender; got %d diagnostics: %v", len(diags), diags)
}

// TestCapForwardVisitsShardEngines pins that the shard engines stay in
// the analyzer's sight now that they are thin named structs over one
// generic router: a type alias would be skipped, and an embedding the
// inner-index search cannot see through would silently exempt them.
func TestCapForwardVisitsShardEngines(t *testing.T) {
	root, err := ModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := NewLoader().Load(root, "./internal/shard")
	if err != nil || len(pkgs) != 1 {
		t.Fatalf("loading internal/shard: %d packages, %v", len(pkgs), err)
	}
	wrappers, ifaces := capWrappers(pkgs[0].Pkg)
	for name, contract := range map[string]string{"Index": "IndexOf", "BoxIndex": "IndexOf"} {
		found := false
		for _, w := range wrappers {
			if w.Name() == name {
				ptr := types.NewPointer(w.Type())
				inst, _ := instanceFor(ptr, ifaces[contract])
				found = implements(ptr, inst)
			}
		}
		if !found {
			t.Errorf("capforward does not hold shard.%s to core.%s's capabilities", name, contract)
		}
	}
}

// TestRealTreeIsClean is the in-repo contract: the production packages
// carry no joinlint findings. (The same invariant the CI lint job
// enforces via cmd/joinlint; duplicating it here keeps plain `go test`
// sufficient to catch regressions.)
func TestRealTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := ModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := NewLoader().Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("expected to load the whole module, got %d packages", len(pkgs))
	}
	diags := RunAnalyzers(pkgs, All())
	for _, d := range diags {
		t.Errorf("finding in production tree: %s", d)
	}
}

// TestDirectiveParsing pins the grammar corner cases.
func TestDirectiveParsing(t *testing.T) {
	pkg, err := NewLoader().LoadDir(filepath.Join("testdata", "hotpath"), "repro/internal/joinlint/testdata/hotpath")
	if err != nil {
		t.Fatal(err)
	}
	var annotated []string
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if _, ok := funcDirective(pkg.Fset, pkg.Directives, fn, dirHotPath); ok {
				annotated = append(annotated, fn.Name.Name)
			}
		}
	}
	want := []string{"deferred", "closes", "rangesMap", "logs", "stamps", "boxesArg", "boxesDecl", "boxesAssign", "boxesReturn", "boxesComposite", "clean", "suppressed"}
	if fmt.Sprint(annotated) != fmt.Sprint(want) {
		t.Errorf("annotated functions = %v, want %v", annotated, want)
	}
}

func TestSuppression(t *testing.T) {
	cases := []struct {
		d        Directive
		analyzer string
		want     bool
	}{
		{Directive{Name: "uncontained", Args: "some reason"}, "containedgo", true},
		{Directive{Name: "uncontained", Args: ""}, "containedgo", false},
		{Directive{Name: "uncontained", Args: "some reason"}, "hotpath", false},
		{Directive{Name: "allow", Args: "hotpath measured exception"}, "hotpath", true},
		{Directive{Name: "allow", Args: "hotpath"}, "hotpath", false}, // no reason
		{Directive{Name: "allow", Args: "hotpath reason"}, "determinism", false},
		{Directive{Name: "hotpath", Args: ""}, "hotpath", false}, // annotation, not suppression
	}
	for _, tc := range cases {
		if got := tc.d.suppresses(tc.analyzer); got != tc.want {
			t.Errorf("(%q %q).suppresses(%q) = %v, want %v", tc.d.Name, tc.d.Args, tc.analyzer, got, tc.want)
		}
	}
}

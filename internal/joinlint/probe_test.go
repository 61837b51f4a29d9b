package joinlint

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// canned -gcflags=-m output: package headers, analysis notes, and two
// real allocations.
const cannedEscapeOutput = `# repro/internal/grid
internal/grid/csr.go:370:42: leaking param: buf to result ~r0 level=0
internal/grid/csr.go:370:13: st does not escape
internal/grid/grid.go:620:25: r does not escape
internal/grid/hypothetical.go:42:9: &scratch{} escapes to heap
internal/grid/hypothetical.go:50:2: moved to heap: buf
# repro/internal/rtree
internal/rtree/rtree.go:300:30: leaking param: buf to result ~r0 level=0
`

const cannedBCEOutput = `# repro/internal/grid
internal/grid/csr.go:380:15: Found IsInBounds
internal/grid/csr.go:385:20: Found IsSliceInBounds
internal/grid/csr.go:390:11: Proved IsInBounds
`

func TestParseCompilerDiagnostics(t *testing.T) {
	diags := ParseCompilerDiagnostics([]byte(cannedEscapeOutput))
	if len(diags) != 6 {
		t.Fatalf("parsed %d diagnostics, want 6 (package headers must be skipped): %v", len(diags), diags)
	}
	first := diags[0]
	if first.File != "internal/grid/csr.go" || first.Line != 370 || first.Col != 42 {
		t.Errorf("first diagnostic = %+v", first)
	}
	if !strings.HasPrefix(first.Message, "leaking param") {
		t.Errorf("first message = %q", first.Message)
	}
}

func TestEscapeClassification(t *testing.T) {
	cases := []struct {
		msg  string
		want bool
	}{
		{"leaking param: buf to result ~r0 level=0", false},
		{"st does not escape", false},
		{"&scratch{} escapes to heap", true},
		{"moved to heap: buf", true},
		{"func literal escapes to heap", true},
		{"inlining call to release", false},
	}
	for _, tc := range cases {
		if got := IsHeapEscape(CompilerDiag{Message: tc.msg}); got != tc.want {
			t.Errorf("IsHeapEscape(%q) = %v, want %v", tc.msg, got, tc.want)
		}
	}
}

func TestBoundsCheckClassification(t *testing.T) {
	cases := []struct {
		msg  string
		want bool
	}{
		{"Found IsInBounds", true},
		{"Found IsSliceInBounds", true},
		{"Proved IsInBounds", false},
		{"moved to heap: buf", false},
	}
	for _, tc := range cases {
		if got := IsBoundsCheck(CompilerDiag{Message: tc.msg}); got != tc.want {
			t.Errorf("IsBoundsCheck(%q) = %v, want %v", tc.msg, got, tc.want)
		}
	}
}

func TestAttribute(t *testing.T) {
	funcs := []*FuncProbe{
		{Package: "p", Func: "hot", File: "internal/grid/hypothetical.go", StartLine: 40, EndLine: 55, Hotpath: true, Escapes: []string{}},
		{Package: "p", Func: "other", File: "internal/grid/hypothetical.go", StartLine: 60, EndLine: 70, Hotpath: true, Escapes: []string{}},
		{Package: "p", Func: "notHot", File: "internal/grid/csr.go", StartLine: 360, EndLine: 400, Hotpath: false, Escapes: []string{}},
	}
	attribute(funcs, ParseCompilerDiagnostics([]byte(cannedEscapeOutput)),
		func(f *FuncProbe) bool { return f.Hotpath },
		IsHeapEscape,
		func(f *FuncProbe, s string) { f.Escapes = append(f.Escapes, s) })

	if len(funcs[0].Escapes) != 2 {
		t.Errorf("hot: %d escapes attributed, want 2: %v", len(funcs[0].Escapes), funcs[0].Escapes)
	}
	if len(funcs[1].Escapes) != 0 {
		t.Errorf("other (outside line range): %v", funcs[1].Escapes)
	}
	if len(funcs[2].Escapes) != 0 {
		t.Errorf("notHot (not picked): %v", funcs[2].Escapes)
	}
}

func TestEscapeGateVerdicts(t *testing.T) {
	r := &ProbeReport{Functions: []*FuncProbe{
		{Package: "p", Func: "clean", Hotpath: true, Escapes: []string{}},
		{Package: "p", Func: "dirty", Hotpath: true, Escapes: []string{"f.go:1: moved to heap: buf"}},
		{Package: "p", Func: "bceOnly", BCE: true, Escapes: []string{"f.go:2: x escapes to heap"}},
	}}
	errs := EscapeGate(r)
	if len(errs) != 1 {
		t.Fatalf("EscapeGate returned %d errors, want 1: %v", len(errs), errs)
	}
	if !strings.Contains(errs[0].Error(), "dirty") {
		t.Errorf("error names wrong function: %v", errs[0])
	}
}

func TestInlineGateVerdicts(t *testing.T) {
	funcs := []*FuncProbe{
		{Package: "p", Func: "slim", File: "internal/grid/grid.go", StartLine: 620, EndLine: 630, Inline: true},
		{Package: "p", Func: "fat", File: "internal/grid/grid.go", StartLine: 640, EndLine: 650, Inline: true},
		{Package: "p", Func: "hotOnly", File: "internal/grid/grid.go", StartLine: 660, EndLine: 670, Hotpath: true},
	}
	r := &ProbeReport{Functions: funcs}
	if errs := InlineGate(r); len(errs) != 2 {
		t.Fatalf("before the probe ran: %d errors, want one per annotated function: %v", len(errs), errs)
	}
	funcs[0].CanInline = true
	errs := InlineGate(r)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "fat") {
		t.Fatalf("InlineGate = %v, want one error naming fat", errs)
	}
	for msg, want := range map[string]bool{
		"can inline cellMapper.axisCell":                          true,
		"inlining call to cellMapper.axisCell":                    false,
		"cannot inline (*csrStore).scatter: function too complex": false,
	} {
		if got := isCanInline(CompilerDiag{Message: msg}); got != want {
			t.Errorf("isCanInline(%q) = %v, want %v", msg, got, want)
		}
	}
}

// TestInlineGateFixture builds testdata/inline with the real compiler: the
// gate passes the function inside the budget, fails the one over it, and
// never sees the unannotated one.
func TestInlineGateFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the fixture with diagnostic flags; skipped in -short")
	}
	root, err := ModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	report, err := Probe(root, []string{"./internal/joinlint/testdata/inline"}, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Functions) != 2 {
		t.Fatalf("collected %d functions, want the two annotated ones: %+v", len(report.Functions), report.Functions)
	}
	errs := InlineGate(report)
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "(mapper).fat") {
		t.Fatalf("InlineGate = %v, want one error naming (mapper).fat", errs)
	}
}

func TestBCEGateVerdicts(t *testing.T) {
	r := &ProbeReport{Functions: []*FuncProbe{
		{Package: "p", Func: "atBaseline", BCE: true, BoundsChecks: []string{"a", "b"}},
		{Package: "p", Func: "regressed", BCE: true, BoundsChecks: []string{"a", "b", "c"}},
		{Package: "p", Func: "improved", BCE: true, BoundsChecks: []string{}},
		{Package: "p", Func: "unpinned", BCE: true, BoundsChecks: []string{}},
	}}
	baseline := BCEBaseline{
		"p.atBaseline": 2,
		"p.regressed":  2,
		"p.improved":   1,
		"p.stale":      4,
	}
	errs, improved := BCEGate(r, baseline)
	var errText []string
	for _, e := range errs {
		errText = append(errText, e.Error())
	}
	all := strings.Join(errText, "\n")
	if len(errs) != 3 {
		t.Fatalf("BCEGate returned %d errors, want 3 (regression, unpinned, stale):\n%s", len(errs), all)
	}
	for _, needle := range []string{"p.regressed retained 3", "p.unpinned has no baseline entry", "baseline entry p.stale matches no"} {
		if !strings.Contains(all, needle) {
			t.Errorf("missing error %q in:\n%s", needle, all)
		}
	}
	if len(improved) != 1 || !strings.Contains(improved[0], "p.improved") {
		t.Errorf("improved = %v, want one entry for p.improved", improved)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	r := &ProbeReport{Functions: []*FuncProbe{
		{Package: "p", Func: "a", BCE: true, BoundsChecks: []string{"x", "y"}},
		{Package: "p", Func: "b", BCE: true, BoundsChecks: []string{}},
		{Package: "p", Func: "hotOnly", Hotpath: true},
	}}
	path := filepath.Join(t.TempDir(), "bce.json")
	if err := WriteBCEBaseline(path, r); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBCEBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 2 || b["p.a"] != 2 || b["p.b"] != 0 {
		t.Errorf("round-tripped baseline = %v", b)
	}
	if errs, _ := BCEGate(r, b); len(errs) != 0 {
		t.Errorf("freshly written baseline must gate clean, got %v", errs)
	}
}

// TestCollectAnnotated checks the real tree's annotation census: the
// known kernels are found with the right flags and module-root-relative
// files.
func TestCollectAnnotated(t *testing.T) {
	root, err := ModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	funcs, pkgs, err := CollectAnnotated(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]*FuncProbe{}
	for _, f := range funcs {
		byKey[f.Key()] = f
	}
	appendRow := byKey["repro/internal/grid.(*csrStore).appendRow"]
	if appendRow == nil {
		t.Fatal("(*csrStore).appendRow not collected")
	}
	if !appendRow.Hotpath || !appendRow.BCE {
		t.Errorf("appendRow flags = hotpath:%v bce:%v, want both", appendRow.Hotpath, appendRow.BCE)
	}
	if appendRow.File != filepath.Join("internal", "grid", "csr.go") {
		t.Errorf("appendRow.File = %q, want module-root-relative path", appendRow.File)
	}
	if appendRow.StartLine <= 0 || appendRow.EndLine < appendRow.StartLine {
		t.Errorf("bad line range %d-%d", appendRow.StartLine, appendRow.EndLine)
	}
	for _, key := range []string{
		"repro/internal/grid.(cellMapper).axisCell",
		"repro/internal/grid.(cellMapper).cellIndexFor",
		"repro/internal/grid.(*columnMapper).labelOf",
	} {
		if f := byKey[key]; f == nil || !f.Inline {
			t.Errorf("%s: not collected as //joinlint:inline (%+v)", key, f)
		}
	}
	digest := byKey["repro/internal/epoch.FoldMoves"]
	if digest != nil {
		t.Errorf("FoldMoves is deterministic-only and must not be probe-collected, got %+v", digest)
	}
	wantPkgs := map[string]bool{}
	for _, p := range pkgs {
		wantPkgs[p] = true
	}
	for _, p := range []string{"repro/internal/grid", "repro/internal/rtree", "repro/internal/shard", "repro/internal/tune", "repro/internal/core"} {
		if !wantPkgs[p] {
			t.Errorf("package %s carries annotations but was not collected (got %v)", p, pkgs)
		}
	}
}

// TestProbeGatesOnRealTree runs both compiler probes for real (cached
// builds keep this fast after the first run) and asserts the in-repo
// contract: hotpath kernels allocation-free, the per-point mappers
// inlinable, BCE counts at baseline.
func TestProbeGatesOnRealTree(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuilds annotated packages with diagnostic flags; skipped in -short")
	}
	root, err := ModuleRoot("")
	if err != nil {
		t.Fatal(err)
	}
	report, err := Probe(root, []string{"./..."}, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if errs := EscapeGate(report); len(errs) != 0 {
		for _, e := range errs {
			t.Error(e)
		}
	}
	for _, e := range InlineGate(report) {
		t.Error(e)
	}
	baseline, err := LoadBCEBaseline(filepath.Join(root, "internal", "joinlint", "bce_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if errs, _ := BCEGate(report, baseline); len(errs) != 0 {
		for _, e := range errs {
			t.Error(e)
		}
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"bounds_checks"`)) {
		t.Error("JSON summary missing bounds_checks field")
	}
}

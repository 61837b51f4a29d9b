package joinlint

import (
	"go/ast"
	"go/types"
)

// HotPath checks the bodies of functions annotated //joinlint:hotpath —
// the QueryAppend kernels and their per-row helpers, where the paper's
// order-of-magnitude wins live. The forbidden constructs
// are the ones that silently re-introduce per-result indirection or
// hidden allocation:
//
//   - interface boxing (a concrete value converted, passed, assigned,
//     or returned as an interface) — allocates and adds an indirect
//     call; exactly the per-result emit overhead PR 8 removed;
//   - closures (func literals) — capture forces heap escapes and the
//     call is never inlined; immediately-invoked literals are allowed
//     since they compile to plain blocks;
//   - defer — adds per-call bookkeeping to a function executed millions
//     of times per tick;
//   - map iteration — unpredictable memory order and per-bucket
//     branches on a path built around dense sequential scans;
//   - fmt/log calls — box every operand and take locks.
//
// The runtime counterpart is the AllocsPerRun pin in the zeroalloc
// tests; the compile-time counterpart for allocations the analyzer
// cannot see is the escape gate (probe.go), which proves the same
// functions heap-allocation-free from the compiler's own -m output.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "//joinlint:hotpath functions must not box interfaces, close over variables, defer, iterate maps, or call fmt/log",
	Run:  runHotPath,
}

func runHotPath(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if _, ok := p.funcDirective(fn, dirHotPath); !ok {
				continue
			}
			p.checkHotPathBody(fn)
		}
	}
}

func (p *Pass) checkHotPathBody(fn *ast.FuncDecl) {
	sig, _ := p.Info.Defs[fn.Name].Type().(*types.Signature)
	// immediatelyInvoked marks func literals appearing as the callee of
	// a call expression: those compile to inlined blocks, not closures.
	immediatelyInvoked := map[*ast.FuncLit]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if lit, ok := call.Fun.(*ast.FuncLit); ok {
				immediatelyInvoked[lit] = true
			}
		}
		return true
	})
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			p.Reportf(n.Pos(), "defer on the hot path: per-call bookkeeping in a kernel; hoist cleanup to the caller or drop the annotation")
		case *ast.FuncLit:
			if !immediatelyInvoked[n] {
				p.Reportf(n.Pos(), "closure on the hot path: captured variables escape to the heap and the indirect call defeats inlining; pass data explicitly, or resolve the closure once at build time (see core.QueryAppendOf)")
			}
		case *ast.RangeStmt:
			if t := p.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					p.Reportf(n.Pos(), "map iteration on the hot path: per-bucket branching and unpredictable memory order in a kernel built around dense scans")
				}
			}
		case *ast.CallExpr:
			p.checkHotPathCall(n)
		case *ast.AssignStmt:
			if n.Tok.String() == "=" && len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					if dst := p.Info.TypeOf(n.Lhs[i]); dst != nil {
						p.checkBoxing(dst, n.Rhs[i], "assignment")
					}
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				if dst := p.Info.TypeOf(n.Type); dst != nil {
					for _, v := range n.Values {
						p.checkBoxing(dst, v, "declaration")
					}
				}
			}
		case *ast.ReturnStmt:
			if sig != nil && sig.Results().Len() == len(n.Results) {
				for i, res := range n.Results {
					p.checkBoxing(sig.Results().At(i).Type(), res, "return")
				}
			}
		case *ast.CompositeLit:
			p.checkCompositeBoxing(n)
		}
		return true
	})
}

// checkHotPathCall flags fmt/log calls, interface-boxing conversions,
// and concrete arguments passed to interface parameters.
func (p *Pass) checkHotPathCall(call *ast.CallExpr) {
	if pkg := calleePackage(p.Info, call); pkg == "fmt" || pkg == "log" || pkg == "log/slog" {
		p.Reportf(call.Pos(), "%s call on the hot path: boxes every operand and formats/locks per result", pkg)
		return
	}
	if calleePackage(p.Info, call) == "time" && calleeName(call) == "Now" {
		p.Reportf(call.Pos(), "time.Now on the hot path: a vDSO call (tens of ns) per result; take timestamps at the kernel boundary or through the caller-supplied clock hook (obs.Registry.SetClock)")
		return
	}
	// Conversion to an interface type: any(x), error(x), ...
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		p.checkBoxing(tv.Type, call.Args[0], "conversion")
		return
	}
	sig, ok := p.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return // builtin (append, len, ...) — no interface params
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var dst types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding an existing slice, no boxing here
			}
			dst = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			dst = params.At(i).Type()
		default:
			continue
		}
		p.checkBoxing(dst, arg, "argument")
	}
}

// checkCompositeBoxing flags concrete values stored into interface
// slots of a composite literal ([]any{v}, map[K]any{...}, struct with
// interface fields).
func (p *Pass) checkCompositeBoxing(lit *ast.CompositeLit) {
	t := p.Info.TypeOf(lit)
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		for _, el := range lit.Elts {
			p.checkBoxing(u.Elem(), stripKeyValue(el), "composite literal element")
		}
	case *types.Array:
		for _, el := range lit.Elts {
			p.checkBoxing(u.Elem(), stripKeyValue(el), "composite literal element")
		}
	case *types.Map:
		for _, el := range lit.Elts {
			p.checkBoxing(u.Elem(), stripKeyValue(el), "composite literal element")
		}
	case *types.Struct:
		for i, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if key, ok := kv.Key.(*ast.Ident); ok {
					for f := 0; f < u.NumFields(); f++ {
						if u.Field(f).Name() == key.Name {
							p.checkBoxing(u.Field(f).Type(), kv.Value, "composite literal field")
						}
					}
				}
			} else if i < u.NumFields() {
				p.checkBoxing(u.Field(i).Type(), el, "composite literal field")
			}
		}
	}
}

func stripKeyValue(e ast.Expr) ast.Expr {
	if kv, ok := e.(*ast.KeyValueExpr); ok {
		return kv.Value
	}
	return e
}

// checkBoxing reports when a concrete-typed src lands in an
// interface-typed dst.
func (p *Pass) checkBoxing(dst types.Type, src ast.Expr, context string) {
	if dst == nil {
		return
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return
	}
	tv, ok := p.Info.Types[src]
	if !ok || tv.Type == nil {
		return
	}
	if tv.IsNil() {
		return
	}
	st := tv.Type
	if _, ok := st.Underlying().(*types.Interface); ok {
		return // interface-to-interface, no new box
	}
	p.Reportf(src.Pos(), "interface boxing on the hot path (%s converts %s to %s): allocates and adds an indirect call per result — the overhead the buffered kernels exist to avoid", context, st, dst)
}

// calleeName returns the selector name of a qualified call
// (time.Now -> "Now"), or "" for everything else.
func calleeName(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
}

// calleePackage returns the import path of the package a qualified
// call targets (fmt.Sprintf -> "fmt"), or "" for everything else.
func calleePackage(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

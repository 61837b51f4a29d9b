package joinlint

import (
	"go/types"
)

// corePath is the package defining the index contracts and optional
// capabilities.
const corePath = "repro/internal/core"

// CapForward enforces the wrapper-forwarding contract: any exported
// type that satisfies one of the index contracts AND stores an inner
// index (directly, through nested structs, or behind a factory func
// field) must also implement every optional capability that contract
// defines. A wrapper that forwards Query but not QueryAppend silently
// re-introduces the per-result callback on the hot path for every
// driver that layers it — exactly the regression PR 8 measured at
// 1.4-2.2x — so the forwarding is checked at lint time for all future
// wrappers, not just the ones with hand-written capability tests.
var CapForward = &Analyzer{
	Name: "capforward",
	Doc:  "index wrappers must forward every optional capability (QueryAppender, ParallelBuilder, BatchUpdater, epoch-observing flavours)",
	Run:  runCapForward,
}

// capContract is one index contract and the capabilities it obliges a
// wrapper to forward.
type capContract struct {
	name     string // contract interface name in core
	required []string
}

// capContracts maps each contract to its obligatory capabilities; the
// names resolve against core's scope at analysis time so the analyzer
// and the contract can never drift apart. A generic name (IndexOf,
// ParallelBuilderOf, BatchUpdaterOf) stands for every instantiation: a
// wrapper is held to it at the type argument its own methods name (see
// instanceFor), so the point and the box engine are one row.
var capContracts = []capContract{
	{"IndexOf", []string{"QueryAppender", "ParallelBuilderOf", "BatchUpdaterOf"}},
	{"EpochIndex", []string{"EpochQueryAppender", "EpochLeaser"}},
	{"EpochBoxIndex", []string{"EpochQueryAppender", "EpochLeaser"}},
	{"ShardedEpochIndex", []string{"ShardedEpochQueryAppender"}},
	{"ShardedEpochBoxIndex", []string{"ShardedEpochQueryAppender"}},
}

func runCapForward(p *Pass) {
	wrappers, ifaces := capWrappers(p.Pkg)
	for _, obj := range wrappers {
		ptr := types.NewPointer(obj.Type())
		for _, c := range capContracts {
			contract, geometry := instanceFor(ptr, ifaces[c.name])
			if !implements(ptr, contract) {
				continue
			}
			for _, req := range c.required {
				if ifaces[req] == nil {
					continue
				}
				if cap, over := instanceFor(ptr, ifaces[req]); implements(ptr, cap) && carries(over, geometry) {
					continue
				}
				p.Reportf(obj.Pos(),
					"%s satisfies %s and stores an inner index, but does not forward core.%s (%s): wrappers must forward every optional capability so layering never silently drops the buffered/parallel paths",
					obj.Name(), types.TypeString(contract, (*types.Package).Name), req, methodNames(ifaces[req]))
			}
		}
	}
}

// implements reports whether t satisfies the interface type iface (nil:
// no).
func implements(t, iface types.Type) bool {
	return iface != nil && types.Implements(t, iface.Underlying().(*types.Interface))
}

// instanceFor returns the interface t has to satisfy to satisfy the
// contract or capability iface, and the type argument it was
// instantiated at (nil for a plain interface, which is returned as it
// is). A generic interface has one type parameter, named by the slice a
// method takes — Build(snap []P), BuildParallel(snap []P, ...),
// UpdateBatch(moves []M, ...) — so the argument is read off t's own
// method of that name; nil, nil when t has no such method.
func instanceFor(t types.Type, iface types.Type) (types.Type, types.Type) {
	named, _ := iface.(*types.Named)
	if named == nil || named.TypeParams().Len() == 0 {
		return iface, nil
	}
	method, at := namingParam(named)
	own := types.NewMethodSet(t).Lookup(nil, method)
	if own == nil {
		return nil, nil
	}
	params := own.Type().(*types.Signature).Params()
	if at >= params.Len() {
		return nil, nil
	}
	sl, ok := params.At(at).Type().(*types.Slice)
	if !ok {
		return nil, nil
	}
	inst, err := types.Instantiate(nil, named, []types.Type{sl.Elem()}, false)
	if err != nil {
		return nil, nil
	}
	return inst, sl.Elem()
}

// namingParam returns the method of the generic interface, and the
// position of its parameter, whose slice element is the type parameter.
func namingParam(generic *types.Named) (method string, at int) {
	tp := generic.TypeParams().At(0)
	iface := generic.Underlying().(*types.Interface)
	for m := 0; m < iface.NumMethods(); m++ {
		params := iface.Method(m).Type().(*types.Signature).Params()
		for i := 0; i < params.Len(); i++ {
			if sl, ok := params.At(i).Type().(*types.Slice); ok && sl.Elem() == types.Type(tp) {
				return iface.Method(m).Name(), i
			}
		}
	}
	return "", 0
}

// carries reports whether a capability instantiated over `over` serves
// a contract instantiated over `geometry`: the same type (BuildParallel
// takes the snapshot Build takes), or a record with a field of it (a
// move of that geometry). Trivially true when either is not generic.
func carries(over, geometry types.Type) bool {
	if over == nil || geometry == nil || types.Identical(over, geometry) {
		return true
	}
	st, _ := over.Underlying().(*types.Struct)
	for i := 0; st != nil && i < st.NumFields(); i++ {
		if types.Identical(st.Field(i).Type(), geometry) {
			return true
		}
	}
	return false
}

// capWrappers returns the types of pkg the analyzer holds to the
// forwarding contract — exported named struct types (aliases excluded)
// that store an inner index — and core's contract and capability
// interfaces by name (generic ones uninstantiated). Both are empty for
// a package outside the index ecosystem.
func capWrappers(pkg *types.Package) ([]*types.TypeName, map[string]types.Type) {
	core := findCore(pkg)
	if core == nil {
		return nil, nil
	}
	ifaces := coreInterfaces(core)
	// innerIfaces are the contracts whose presence in a field marks a
	// type as a wrapper.
	var innerIfaces []types.Type
	for _, c := range capContracts {
		if i := ifaces[c.name]; i != nil {
			innerIfaces = append(innerIfaces, i)
		}
	}
	var wrappers []*types.TypeName
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !obj.Exported() || obj.IsAlias() {
			continue
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
			continue
		}
		if storesInnerIndex(named, innerIfaces, make(map[types.Type]bool), 0) {
			wrappers = append(wrappers, obj)
		}
	}
	return wrappers, ifaces
}

// findCore returns the core package's *types.Package: the analyzed
// package itself when it IS core, else the direct import.
func findCore(pkg *types.Package) *types.Package {
	if pkg.Path() == corePath {
		return pkg
	}
	for _, imp := range pkg.Imports() {
		if imp.Path() == corePath {
			return imp
		}
	}
	return nil
}

// coreInterfaces resolves every contract and capability name used by
// capContracts in core's scope.
func coreInterfaces(core *types.Package) map[string]types.Type {
	ifaces := make(map[string]types.Type)
	add := func(name string) {
		if obj := core.Scope().Lookup(name); obj != nil {
			if _, ok := obj.Type().Underlying().(*types.Interface); ok {
				ifaces[name] = obj.Type()
			}
		}
	}
	for _, c := range capContracts {
		add(c.name)
		for _, r := range c.required {
			add(r)
		}
	}
	return ifaces
}

// storesInnerIndex reports whether t (a named struct type) holds an
// inner index: a field whose type satisfies one of the index
// contracts, a func-typed field producing one (the factory pattern the
// epoch wrapper uses), or — recursively, up to 4 structs deep — a
// field of a struct type that does (the shard engine stores regions
// that each hold their tuned inner index).
func storesInnerIndex(t types.Type, contracts []types.Type, visited map[types.Type]bool, depth int) bool {
	if depth > 4 || visited[t] {
		return false
	}
	visited[t] = true
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		ft := unwrapElem(st.Field(i).Type())
		if isIndexLike(ft, contracts) {
			return true
		}
		if sig, ok := ft.Underlying().(*types.Signature); ok {
			for r := 0; r < sig.Results().Len(); r++ {
				if isIndexLike(unwrapElem(sig.Results().At(r).Type()), contracts) {
					return true
				}
			}
			continue
		}
		if _, ok := ft.Underlying().(*types.Struct); ok {
			if storesInnerIndex(ft, contracts, visited, depth+1) {
				return true
			}
		}
	}
	return false
}

// unwrapElem strips pointers, slices, arrays, and map values down to
// the element type a container field ultimately stores.
func unwrapElem(t types.Type) types.Type {
	for {
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		default:
			return t
		}
	}
}

// isIndexLike reports whether t satisfies any of the index contracts
// (checking both t and *t for named non-interface types).
func isIndexLike(t types.Type, contracts []types.Type) bool {
	satisfies := func(t types.Type) bool {
		for _, c := range contracts {
			if inst, _ := instanceFor(t, c); implements(t, inst) {
				return true
			}
		}
		return false
	}
	if _, isIface := t.Underlying().(*types.Interface); isIface {
		return satisfies(t)
	}
	return satisfies(t) || satisfies(types.NewPointer(t))
}

// methodNames lists an interface's method names for diagnostics.
func methodNames(t types.Type) string {
	i := t.Underlying().(*types.Interface)
	s := ""
	for m := 0; m < i.NumMethods(); m++ {
		if m > 0 {
			s += ", "
		}
		s += i.Method(m).Name()
	}
	return s
}

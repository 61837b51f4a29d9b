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
	Doc:  "index wrappers must forward every optional capability (QueryAppender, BatchQuerier, ParallelBuilder, BatchUpdater, epoch-observing flavours)",
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
// and the contract can never drift apart.
var capContracts = []capContract{
	{"Index", []string{"QueryAppender", "BatchQuerier", "ParallelBuilder", "BatchUpdater"}},
	{"BoxIndex", []string{"QueryAppender", "BatchQuerier", "BoxParallelBuilder", "BoxBatchUpdater"}},
	{"EpochIndex", []string{"EpochQueryAppender"}},
	{"EpochBoxIndex", []string{"EpochQueryAppender"}},
	{"ShardedEpochIndex", []string{"ShardedEpochQueryAppender"}},
	{"ShardedEpochBoxIndex", []string{"ShardedEpochQueryAppender"}},
}

func runCapForward(p *Pass) {
	wrappers, ifaces := capWrappers(p.Pkg)
	for _, obj := range wrappers {
		ptr := types.NewPointer(obj.Type())
		for _, c := range capContracts {
			trigger := ifaces[c.name]
			if trigger == nil || !types.Implements(ptr, trigger) {
				continue
			}
			for _, req := range c.required {
				cap := ifaces[req]
				if cap == nil {
					continue
				}
				if !types.Implements(ptr, cap) {
					p.Reportf(obj.Pos(),
						"%s satisfies core.%s and stores an inner index, but does not forward core.%s (%s): wrappers must forward every optional capability so layering never silently drops the buffered/parallel paths",
						obj.Name(), c.name, req, methodNames(cap))
				}
			}
		}
	}
}

// capWrappers returns the types of pkg the analyzer holds to the
// forwarding contract — exported named struct types (aliases excluded)
// that store an inner index — and core's contract and capability
// interfaces by name. Both are empty for a package outside the index
// ecosystem.
func capWrappers(pkg *types.Package) ([]*types.TypeName, map[string]*types.Interface) {
	core := findCore(pkg)
	if core == nil {
		return nil, nil
	}
	ifaces := coreInterfaces(core)
	// innerIfaces are the contracts whose presence in a field marks a
	// type as a wrapper.
	var innerIfaces []*types.Interface
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
func coreInterfaces(core *types.Package) map[string]*types.Interface {
	ifaces := make(map[string]*types.Interface)
	add := func(name string) {
		if obj := core.Scope().Lookup(name); obj != nil {
			if i, ok := obj.Type().Underlying().(*types.Interface); ok {
				ifaces[name] = i
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
func storesInnerIndex(t types.Type, contracts []*types.Interface, visited map[types.Type]bool, depth int) bool {
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
func isIndexLike(t types.Type, contracts []*types.Interface) bool {
	for _, c := range contracts {
		if types.Implements(t, c) {
			return true
		}
		if _, isIface := t.Underlying().(*types.Interface); !isIface {
			if types.Implements(types.NewPointer(t), c) {
				return true
			}
		}
	}
	return false
}

// methodNames lists an interface's method names for diagnostics.
func methodNames(i *types.Interface) string {
	s := ""
	for m := 0; m < i.NumMethods(); m++ {
		if m > 0 {
			s += ", "
		}
		s += i.Method(m).Name()
	}
	return s
}

package lint

import (
	"go/ast"
	"go/types"
)

// HotAlloc enforces the //fascia:hotpath annotation: the lane DP
// kernels, the table bulk/lane primitives, the bag DP's inner loops and
// the shard codec's row loops run per vertex × per lane, so a single
// heap allocation inside them multiplies into GC pressure that the
// arena and scratch-pool design exists to avoid. An annotated function
// must not contain:
//
//   - slice, map, or pointer composite literals (value-typed array
//     literals are register material and stay legal);
//   - growing appends;
//   - conversions to interface types (the boxed value escapes);
//   - closures that capture variables (the capture escapes);
//   - calls to in-package functions that do any of the above without
//     carrying the annotation themselves (one level deep, so hiding
//     the allocation in a helper does not hide the cost).
//
// The static rules are necessary but not sufficient — the compiler is
// the judge of what actually escapes — so `fasciavet -escape` (wired
// as `make check-escape`) cross-checks every annotated line range
// against `go build -gcflags=-m` escape diagnostics under a fresh
// GOCACHE, mirroring check-bce.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "heap-allocating construct (composite literal, append, interface conversion, closure) in a //fascia:hotpath function",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	eng := newFlowEngine(pass.Pkg)
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotpath(fd) {
				continue
			}
			checkHotpathBody(pass, eng, fd)
		}
	}
}

func checkHotpathBody(pass *Pass, eng *flowEngine, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if allocatingLit(info, n) {
				pass.Reportf(n.Pos(),
					"composite literal allocates in hotpath function %s; hoist it to a scratch buffer or the arena", name)
			}
		case *ast.FuncLit:
			if caps := closureCaptures(info, n); len(caps) > 0 {
				pass.Reportf(n.Pos(),
					"closure captures %s in hotpath function %s; captures escape to the heap — pass values explicitly or hoist the closure", caps[0], name)
			}
			return false // the literal's own body belongs to the closure
		case *ast.CallExpr:
			checkHotpathCall(pass, eng, n, name)
		}
		return true
	})
}

func checkHotpathCall(pass *Pass, eng *flowEngine, call *ast.CallExpr, name string) {
	info := pass.Pkg.Info
	if tv, ok := info.Types[call.Fun]; ok {
		if tv.IsType() {
			// Conversion: flag when the target is an interface and the
			// operand is concrete (the value is boxed onto the heap).
			if len(call.Args) == 1 && isInterface(tv.Type) {
				if atv, ok := info.Types[call.Args[0]]; ok && atv.Type != nil && !isInterface(atv.Type) {
					pass.Reportf(call.Pos(),
						"conversion to interface %s boxes its operand in hotpath function %s; keep the concrete type on the hot path", tv.Type.String(), name)
				}
			}
			return
		}
		if tv.IsBuiltin() {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
				pass.Reportf(call.Pos(),
					"append may grow and reallocate in hotpath function %s; pre-size the buffer outside the hot loop", name)
			}
			return
		}
	}
	// One level interprocedural: calling an unannotated in-package
	// function that allocates is the same cost wearing a call.
	if sum, fd := eng.summaryFor(call); sum != nil && sum.allocates && !sum.hotpath {
		pass.Reportf(call.Pos(),
			"hotpath function %s calls %s, which allocates (composite literal, append, or closure); annotate %s //fascia:hotpath and fix it, or hoist the call",
			name, fd.Name.Name, fd.Name.Name)
	}
}

// allocatingLit reports whether a composite literal heap-allocates:
// slice and map literals always do; struct/array literals only when
// their address is taken (&T{…}), which the parent UnaryExpr reports
// via the pointer type recorded for the literal's context — here we
// flag slice/map directly and let &T{} surface through the conversion
// and escape checks.
func allocatingLit(info *types.Info, cl *ast.CompositeLit) bool {
	tv, ok := info.Types[cl]
	if !ok || tv.Type == nil {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// closureCaptures lists the names a func literal references from its
// enclosing function (package-level objects don't count — they don't
// force a capture allocation).
func closureCaptures(info *types.Info, lit *ast.FuncLit) []string {
	var caps []string
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || seen[obj] {
			return true
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if obj.Parent() != nil && obj.Parent().Parent() == types.Universe {
			return true // package-level var
		}
		pos := obj.Pos()
		if pos.IsValid() && (pos < lit.Pos() || pos > lit.End()) {
			seen[obj] = true
			caps = append(caps, id.Name)
		}
		return true
	})
	return caps
}

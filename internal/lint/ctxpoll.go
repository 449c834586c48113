package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxPoll enforces the <100ms-abort guarantee inside internal/dp and
// the distributed tiers (internal/dist, internal/shard): any function
// that accepts a context.Context and contains a vertex/iteration-scale
// loop must poll for cancellation inside that loop — directly via
// ctx.Err()/ctx.Done(), or through one of the project's known helpers
// (the atomic stop flag armed by watchContext, polled with stop.Load(),
// the iteration state's cancelled() method, or a run's stopped()
// accessor).
//
// "Vertex/iteration-scale" is a heuristic, deliberately tuned to this
// codebase (a project-specific linter's privilege):
//
//   - a loop is flagged when its body calls one of the DP work horses
//     (run, runLanes, runBatches, computeNode, …), or
//   - when its header names a vertex/iteration quantity (an identifier
//     equal to v/u/vid/vtx or containing iter/vert/batch/lane) and its
//     body makes at least one real (non-builtin, non-conversion) call.
//
// Pure-arithmetic folds over completed results (Welford updates,
// compaction loops) therefore stay exempt, while any loop that can burn
// per-vertex or per-iteration work must either poll or carry a
// suppression explaining why aborting mid-loop would corrupt state.
var CtxPoll = &Analyzer{
	Name: "ctxpoll",
	Doc:  "vertex/iteration loop in a context-taking dp function without a cancellation poll (breaks the <100ms abort guarantee)",
	Run:  runCtxPoll,
}

// heavyWorkCalls are the DP entry points whose invocation marks a loop
// as long-running regardless of its header. RunRank, ComputeStep (the
// rank pass's per-node driver), runGroup and runShard are the
// distributed tiers' work horses: a loop driving rank-local DP
// iterations or steps, or shard dispatch rounds, burns per-node work
// plus network round-trips, so it must be interruptible. Every
// name must be a function or method declared in internal/dp,
// internal/dist or internal/shard (TestHeavyWorkCallsDeclared), so a
// rename cannot silently drop a driver from the check.
var heavyWorkCalls = map[string]bool{
	"run":                      true,
	"runBag":                   true,
	"runLanes":                 true,
	"runBatches":               true,
	"computeNode":              true,
	"RunContext":               true,
	"RunConvergedContext":      true,
	"RunConvergedPriorContext": true,
	"VertexCountsContext":      true,
	"RunRank":                  true,
	"ComputeStep":              true,
	"runGroup":                 true,
	"runShard":                 true,
}

// vocabExact and vocabSubstrings define the vertex/iteration name
// heuristic for loop headers.
var vocabExact = map[string]bool{"v": true, "u": true, "vid": true, "vtx": true}
var vocabSubstrings = []string{"iter", "vert", "batch", "lane"}

func runCtxPoll(pass *Pass) {
	if !pathHasSuffix(pass.Pkg.Path, "internal/dp") &&
		!pathHasSuffix(pass.Pkg.Path, "internal/dist") &&
		!pathHasSuffix(pass.Pkg.Path, "internal/shard") {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !takesContext(fd, info) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch loop := n.(type) {
				case *ast.ForStmt:
					if !loopNeedsPoll(loop.Init, loop.Cond, loop.Post, nil, loop.Body, info) {
						return true
					}
					body = loop.Body
				case *ast.RangeStmt:
					if !loopNeedsPoll(nil, nil, nil, loop, loop.Body, info) {
						return true
					}
					body = loop.Body
				default:
					return true
				}
				if !containsPoll(body, info) {
					pass.Reportf(n.Pos(),
						"vertex/iteration loop in context-taking function %s has no cancellation poll; check ctx.Err()/ctx.Done(), the armed stop flag (stop.Load()), or st.cancelled() inside the loop",
						fd.Name.Name)
				}
				return true
			})
		}
	}
}

// takesContext reports whether the function has a parameter of type
// context.Context.
func takesContext(fd *ast.FuncDecl, info *types.Info) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if tv, ok := info.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// loopNeedsPoll classifies a loop as vertex/iteration-scale.
func loopNeedsPoll(init ast.Stmt, cond ast.Expr, post ast.Stmt, rng *ast.RangeStmt, body *ast.BlockStmt, info *types.Info) bool {
	if containsHeavyCall(body) {
		return true
	}
	hot := false
	check := func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && isVocabName(id.Name) {
				hot = true
			}
			return !hot
		})
	}
	if rng != nil {
		check(rng.Key)
		check(rng.Value)
		check(rng.X)
	} else {
		check(init)
		check(cond)
		check(post)
	}
	return hot && containsMaterialCall(body, info)
}

func isVocabName(name string) bool {
	lower := strings.ToLower(name)
	if vocabExact[lower] {
		return true
	}
	for _, sub := range vocabSubstrings {
		if strings.Contains(lower, sub) {
			return true
		}
	}
	return false
}

// calleeName returns the terminal name of a call's function expression.
func calleeName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	default:
		return ""
	}
}

func containsHeavyCall(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && heavyWorkCalls[calleeName(call)] {
			found = true
		}
		return !found
	})
	return found
}

// containsMaterialCall reports whether the body makes at least one call
// that is neither a builtin (append, len, …) nor a type conversion.
func containsMaterialCall(body *ast.BlockStmt, info *types.Info) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if tv, ok := info.Types[call.Fun]; ok {
			if tv.IsType() || tv.IsBuiltin() {
				return !found
			}
		}
		found = true
		return false
	})
	return found
}

// containsPoll reports whether the subtree polls for cancellation:
// ctx.Err()/ctx.Done() on a context, Load() on an atomic stop flag, a
// call to a method named cancelled/Cancelled (the iteration-state
// helper) or stopped (the shard worker-run accessor), or a call to
// stopRequested (the iteration/batch-boundary helper that combines the
// flag with a synchronous ctx.Err() check).
func containsPoll(body *ast.BlockStmt, info *types.Info) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "stopRequested" {
			found = true
			return false
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return !found
		}
		switch sel.Sel.Name {
		case "cancelled", "Cancelled", "stopped":
			found = true
		case "Err", "Done":
			if tv, ok := info.Types[sel.X]; ok && isContextType(tv.Type) {
				found = true
			}
		case "Load":
			if tv, ok := info.Types[sel.X]; ok && isAtomicBool(tv.Type) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isAtomicBool(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && obj.Name() == "Bool"
}

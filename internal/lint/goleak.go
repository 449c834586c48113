package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// GoLeak is the static twin of the runtime goroutine-leak checks in
// the serve/shard smoke tests: every `go func` in internal/serve,
// internal/shard, and internal/dist must have a statically-reachable
// exit on ctx.Done, a stop signal, or a connection close, and every
// context.WithCancel/WithTimeout/WithDeadline must have its cancel
// function used on all paths (called, deferred, or handed off — never
// discarded).
//
// Loop classification, tuned to this codebase:
//
//   - `for range ch` exits when the channel closes — always fine (the
//     drain-until-close shape);
//   - a conditional `for cond {}` loop can exit when the condition
//     flips — accepted;
//   - an unconditional `for {}` loop must contain a reachable exit (a
//     return, or a break/goto that leaves the loop) — otherwise the
//     goroutine runs forever;
//   - an unconditional loop that *blocks* (select, channel send or
//     receive, or a Read/Recv/Accept/Wait-shaped call) must also show
//     a shutdown edge: a cancellation poll (ctx.Err/Done, an armed
//     atomic flag, stopped()/cancelled()/stopRequested), a receive
//     from a stop-named channel, a select case on ctx.Done(), or the
//     conn-close idiom (a read-shaped call whose error path returns).
//
// The check follows `go m.loop()` one call level into in-package
// declarations, so hiding the loop in a method does not hide the leak.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc:  "goroutine without a statically-reachable exit on ctx.Done/stop/conn-close, or a context cancel func not used on all paths",
	Run:  runGoLeak,
}

var goLeakPkgs = []string{
	"internal/serve",
	"internal/shard",
	"internal/dist",
}

func runGoLeak(pass *Pass) {
	gated := false
	for _, s := range goLeakPkgs {
		if pathHasSuffix(pass.Pkg.Path, s) {
			gated = true
			break
		}
	}
	if !gated {
		return
	}
	idx := newFuncIndex(pass.Pkg)
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLostCancel(pass, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				checkGoStmt(pass, idx, gs)
				return true
			})
		}
	}
}

// checkGoStmt inspects one launched goroutine: its literal body, or —
// one call level deep — the body of the in-package function it names.
func checkGoStmt(pass *Pass, idx *funcIndex, gs *ast.GoStmt) {
	var body *ast.BlockStmt
	callee := ""
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		body = lit.Body
	} else {
		fd, _ := idx.callee(gs.Call)
		if fd == nil {
			return // external or dynamic target: out of scope
		}
		body = fd.Body
		callee = fd.Name.Name
	}
	if body == nil {
		return
	}
	checkGoroutineLoops(pass, idx, gs, body, callee, true)
}

// checkGoroutineLoops flags non-exiting loops in a goroutine body.
// When the body is a literal it also follows calls one level into
// in-package declarations (follow=true guards against recursing
// further).
func checkGoroutineLoops(pass *Pass, idx *funcIndex, gs *ast.GoStmt, body *ast.BlockStmt, callee string, follow bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a nested closure is not this goroutine's control flow
		case *ast.CallExpr:
			if !follow {
				return true
			}
			if fd, _ := idx.callee(n); fd != nil && fd.Body != nil {
				checkGoroutineLoops(pass, idx, gs, fd.Body, fd.Name.Name, false)
			}
			return true
		case *ast.ForStmt:
			if n.Cond != nil {
				return true // can exit when the condition flips
			}
			checkInfiniteLoop(pass, gs, n, callee)
			return true
		}
		return true
	})
}

func checkInfiniteLoop(pass *Pass, gs *ast.GoStmt, loop *ast.ForStmt, callee string) {
	where := ""
	if callee != "" {
		where = " (in " + callee + ", launched at " +
			pass.Pkg.Fset.Position(gs.Pos()).String() + ")"
	}
	pos := loop.Pos()
	if !loopHasExit(loop) {
		pass.Reportf(pos,
			"goroutine loop has no reachable exit%s; add a return on ctx.Done/stop/conn-close so shutdown does not leak it", where)
		return
	}
	if loopBlocks(loop.Body) && !loopHasShutdownEdge(pass, loop.Body) {
		pass.Reportf(pos,
			"blocking goroutine loop exits only on data conditions%s; add a ctx.Done/stop-channel/conn-close edge so shutdown does not leak it", where)
	}
}

// loopHasExit reports whether the loop body contains a statement that
// leaves the loop: a return, a break binding to this loop, or a goto
// (assumed outward). Breaks inside nested loops, selects, or switches
// bind to those, not to this loop; returns inside nested func literals
// leave the literal, not the loop.
func loopHasExit(loop *ast.ForStmt) bool {
	// Collect this loop's labels so `break label` resolves.
	found := false
	var walk func(n ast.Node, breakable bool)
	walk = func(n ast.Node, breakable bool) {
		if n == nil || found {
			return
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return
		case *ast.ReturnStmt:
			found = true
			return
		case *ast.BranchStmt:
			switch n.Tok {
			case token.GOTO:
				found = true // assume the target is outside the loop
			case token.BREAK:
				if breakable || n.Label != nil {
					found = true
				}
			}
			return
		case *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt,
			*ast.SwitchStmt, *ast.TypeSwitchStmt:
			// An unlabeled break inside binds to the inner statement.
			ast.Inspect(n, func(m ast.Node) bool {
				if found || m == n {
					return !found
				}
				switch m := m.(type) {
				case *ast.FuncLit:
					return false
				case *ast.ReturnStmt:
					found = true
					return false
				case *ast.BranchStmt:
					if m.Tok == token.GOTO || (m.Tok == token.BREAK && m.Label != nil) {
						found = true
						return false
					}
				}
				return true
			})
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			walk(m, breakable)
			return false
		})
	}
	for _, s := range loop.Body.List {
		walk(s, true)
		if found {
			return true
		}
	}
	return false
}

// loopBlocks reports whether the loop body can block indefinitely:
// a select, a channel operation, or a Read/Recv/Accept/Wait-shaped
// call (ignoring nested func literals).
func loopBlocks(body *ast.BlockStmt) bool {
	blocking := false
	ast.Inspect(body, func(n ast.Node) bool {
		if blocking {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt, *ast.SendStmt:
			blocking = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				blocking = true
			}
		case *ast.RangeStmt:
			return false // range-over-channel exits on close; handled as its own loop
		case *ast.CallExpr:
			name := calleeName(n)
			for _, p := range []string{"Read", "read", "Recv", "recv", "Accept", "Wait"} {
				if strings.HasPrefix(name, p) {
					blocking = true
					break
				}
			}
		}
		return !blocking
	})
	return blocking
}

// stopChannelName matches the project's shutdown-channel vocabulary.
func stopChannelName(name string) bool {
	lower := strings.ToLower(name)
	for _, s := range []string{"done", "stop", "quit", "clos", "broken", "exit", "drain"} {
		if strings.Contains(lower, s) {
			return true
		}
	}
	return false
}

// loopHasShutdownEdge reports whether the loop shows a recognized path
// out at shutdown: a cancellation poll (ctxpoll's vocabulary), a
// receive from a stop-named channel or ctx.Done(), or the conn-close
// idiom (a read-shaped call plus a return for its error path).
func loopHasShutdownEdge(pass *Pass, body *ast.BlockStmt) bool {
	if containsPoll(body, pass.Pkg.Info) {
		return true
	}
	found := false
	hasReadish, hasReturn := false, false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			hasReturn = true
		case *ast.UnaryExpr:
			if n.Op != token.ARROW {
				return true
			}
			switch x := ast.Unparen(n.X).(type) {
			case *ast.Ident:
				if stopChannelName(x.Name) {
					found = true
				}
			case *ast.SelectorExpr:
				if stopChannelName(x.Sel.Name) {
					found = true
				}
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
					found = true // <-ctx.Done() (typed check happens in containsPoll; any .Done() counts here)
				}
			}
		case *ast.CallExpr:
			name := calleeName(n)
			for _, p := range []string{"Read", "read", "Recv", "recv", "Accept"} {
				if strings.HasPrefix(name, p) {
					hasReadish = true
					break
				}
			}
		}
		return !found
	})
	return found || (hasReadish && hasReturn)
}

// checkLostCancel flags context.WithCancel/WithTimeout/WithDeadline
// results whose cancel function is discarded or never used.
func checkLostCancel(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 2 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := identObj(info, sel.Sel)
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
			return true
		}
		switch obj.Name() {
		case "WithCancel", "WithTimeout", "WithDeadline":
		default:
			return true
		}
		id, ok := as.Lhs[1].(*ast.Ident)
		if !ok {
			return true
		}
		if id.Name == "_" {
			pass.Reportf(id.Pos(),
				"%s's cancel function is discarded; the derived context (and its timer) leaks — call or defer it", obj.Name())
			return true
		}
		cobj := info.Defs[id]
		if cobj == nil {
			return true // reassignment of an existing var: assume managed
		}
		used := false
		ast.Inspect(fd.Body, func(m ast.Node) bool {
			if u, ok := m.(*ast.Ident); ok && u != id && info.Uses[u] == cobj {
				used = true
			}
			return !used
		})
		if !used {
			pass.Reportf(id.Pos(),
				"%s's cancel function %s is never used; call or defer it on every path so the derived context does not leak", obj.Name(), id.Name)
		}
		return true
	})
}

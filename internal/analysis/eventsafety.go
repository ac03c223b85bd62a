package analysis

import (
	"go/ast"
	"go/types"
)

// Scheduling APIs whose function argument at index arg becomes a
// deferred event callback: it runs at a later tick, long after the
// enclosing statement finished.
var callbackSinks = []struct {
	pkg, recv, name string
	arg             int
}{
	{"dstore/internal/sim", "Engine", "Schedule", 1},
	{"dstore/internal/sim", "Engine", "ScheduleArg", 1},
	{"dstore/internal/sim", "Engine", "ScheduleArgAt", 1},
	{"dstore/internal/interconnect", "Network", "Send", 3},
	{"dstore/internal/interconnect", "DirectPort", "Send", 1},
	{"dstore/internal/dram", "DRAM", "Access", 2},
}

// Engine methods that drive the event loop. Calling one from inside an
// event callback re-enters the dispatcher that is currently executing
// the callback: events fire out of order or the loop livelocks.
var engineLoopFuncs = map[string]bool{
	"Run": true, "RunFor": true, "RunUntil": true,
	"RunInterruptible": true, "Step": true,
}

// EventSafety inspects function literals passed as event callbacks to
// the engine or the interconnect and flags (a) calls that re-enter the
// engine's run loop and (b) captures of enclosing loop variables that
// are not explicitly rebound. The repo convention is `x := x` before
// the callback: the capture survives backports to pre-1.22 loop
// semantics and makes the callback's inputs visible at the call site.
// Escape hatches: //dstore:allow-reentry, //dstore:allow-loopcapture.
var EventSafety = &Analyzer{
	Name:    "eventsafety",
	Doc:     "flag event callbacks that re-enter the engine or capture loop variables",
	Applies: isDeterministicPkg,
	Run:     runEventSafety,
}

func runEventSafety(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		// loopVars maps the objects declared by each for/range
		// statement to that statement, so a capture can name its loop.
		loopVars := collectLoopVars(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			arg := callbackArg(pass.funcOf(call))
			if arg < 0 || arg >= len(call.Args) {
				return true
			}
			lit, ok := call.Args[arg].(*ast.FuncLit)
			if !ok {
				return true
			}
			checkCallback(pass, lit, loopVars)
			return true
		})
	}
	return nil
}

// callbackArg returns the index of the callee's callback argument, or
// -1 when the callee is not a callback sink.
func callbackArg(ref *funcRef) int {
	for _, s := range callbackSinks {
		if ref.isMethod(s.pkg, s.recv, s.name) {
			return s.arg
		}
	}
	return -1
}

// collectLoopVars indexes every loop-declared variable object in the
// file along with its loop statement's span.
func collectLoopVars(pass *Pass, f *ast.File) map[types.Object]ast.Node {
	out := make(map[types.Object]ast.Node)
	record := func(loop ast.Node, id *ast.Ident) {
		if id == nil || id.Name == "_" {
			return
		}
		if obj := pass.Pkg.Info.Defs[id]; obj != nil {
			out[obj] = loop
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if id, ok := n.Key.(*ast.Ident); ok {
				record(n, id)
			}
			if id, ok := n.Value.(*ast.Ident); ok {
				record(n, id)
			}
		case *ast.ForStmt:
			if assign, ok := n.Init.(*ast.AssignStmt); ok {
				for _, lhs := range assign.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						record(n, id)
					}
				}
			}
		}
		return true
	})
	return out
}

// checkCallback inspects one deferred callback body.
func checkCallback(pass *Pass, lit *ast.FuncLit, loopVars map[types.Object]ast.Node) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			ref := pass.funcOf(n)
			if ref.isMethodIn("dstore/internal/sim", "Engine") && engineLoopFuncs[ref.Name] {
				if !pass.Allowed(n.Pos(), "reentry") {
					pass.Reportf(n.Pos(), "event callback calls Engine.%s: callbacks must not "+
						"re-enter the run loop (schedule follow-up events instead, or "+
						"annotate //dstore:allow-reentry <why>)", ref.Name)
				}
			}
		case *ast.Ident:
			obj := pass.Pkg.Info.Uses[n]
			if obj == nil {
				return true
			}
			loop, isLoopVar := loopVars[obj]
			if !isLoopVar {
				return true
			}
			// Only a capture counts: the callback must sit inside the
			// loop that declared the variable (a use after rebinding
			// resolves to the shadow object, not the loop variable).
			if lit.Pos() > loop.Pos() && lit.End() <= loop.End() {
				if !pass.Allowed(n.Pos(), "loopcapture") {
					pass.Reportf(n.Pos(), "event callback captures loop variable %q: rebind it "+
						"(%s := %s) before the callback so the captured value is explicit "+
						"(or annotate //dstore:allow-loopcapture <why>)", n.Name, n.Name, n.Name)
				}
			}
		}
		return true
	})
}

// isMethodIn reports whether the callee is any method of pkgPath.recv.
func (f *funcRef) isMethodIn(pkgPath, recv string) bool {
	return f != nil && f.PkgPath == pkgPath && f.Recv == recv
}

package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Tablecover cross-checks a protocol transition table against its
// runtime consumers. It applies to any package shaped like
// internal/coherence: a table.go declaring `var table` via a
// function-literal initializer that populates cells through a local
// set(state, event, outcome) helper, and handler files (see
// handlerFiles: the controllers ctrl.go / memctrl.go and the transition
// core.go they share with the model checker) that consult the table
// through the package's Transition function. Three checks:
//
//  1. unhandled — a declared (state, event) row no Transition call
//     site in the handler files can ever consult. The controllers
//     would panic (or silently no-op) if the protocol fired it.
//     Escape hatch: //dstore:allow-unhandled.
//  2. undeclared — a Transition call site whose possible (state,
//     event) pairs are all illegal in the table: the arm exists but
//     the protocol can never take it. Escape hatch:
//     //dstore:allow-undeclared.
//  3. dead — a declared row the model checker's exhaustive sweep
//     never fired, per testdata/reachability.json (regenerate with
//     `make reachability`). Declared-but-unreachable rows are either
//     defensive totality (annotate //dstore:allow-uncovered with the
//     argument why the configuration cannot occur) or dead protocol
//     surface that drifted from the implementation.
//
// Call-site argument sets are resolved statically: a constant argument
// is a singleton; a call to a same-package helper that returns Event
// constants (ProbeEvent, PushEvent, FillEvent) contributes exactly the
// constants its return statements mention; a local variable assigned
// from such a helper inherits its set; anything else is conservatively
// every state or every event. The dead check is skipped when the
// package has no testdata/reachability.json.
var Tablecover = &Analyzer{
	Name: "tablecover",
	Doc: "cross-check protocol-table declarations against controller " +
		"handler arms and the model checker's reachability dump",
	Run: runTablecover,
}

// tcPair is one (state, event) coordinate.
type tcPair struct{ st, ev int64 }

// tcDecl is one declared table row: where its set(...) call is and the
// source names of its coordinates.
type tcDecl struct {
	pos    token.Pos
	stName string
	evName string
}

// tcSite is one Transition call site with its resolved argument sets.
type tcSite struct {
	pos    token.Pos
	states []int64
	events []int64
}

func runTablecover(pass *Pass) error {
	tc := &tablecover{pass: pass, declared: make(map[tcPair]tcDecl)}
	if !tc.findTable() {
		return nil // not a protocol-table package
	}
	if err := tc.interpretTable(); err != nil {
		return err
	}
	var ok bool
	if tc.numStates, ok = tc.scopeConst("NumStates"); !ok {
		return fmt.Errorf("tablecover: package %s declares a transition table but no NumStates constant", pass.Pkg.PkgPath)
	}
	if tc.numEvents, ok = tc.scopeConst("NumEvents"); !ok {
		return fmt.Errorf("tablecover: package %s declares a transition table but no NumEvents constant", pass.Pkg.PkgPath)
	}
	tc.scanHandlers()
	reach, haveReach, err := tc.loadReachability()
	if err != nil {
		return err
	}

	// Deterministic report order: table rows in (state, event) order,
	// then call sites in position order (Run sorts again globally).
	pairs := make([]tcPair, 0, len(tc.declared))
	for p := range tc.declared { //dstore:allow-maprange sorted immediately below
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].st != pairs[j].st {
			return pairs[i].st < pairs[j].st
		}
		return pairs[i].ev < pairs[j].ev
	})

	for _, p := range pairs {
		d := tc.declared[p]
		if !tc.handled(p) && !pass.Allowed(d.pos, "unhandled") {
			pass.Reportf(d.pos, "declared transition (%s, %s) has no handler arm: no Transition call in ctrl.go/memctrl.go/core.go can consult it; add a handler or annotate //dstore:allow-unhandled <why>",
				d.stName, d.evName)
		}
		if haveReach && !reach[p] && !pass.Allowed(d.pos, "uncovered") {
			pass.Reportf(d.pos, "declared transition (%s, %s) never fires in the model checker's reachability dump; regenerate with `make reachability` or annotate //dstore:allow-uncovered <why>",
				d.stName, d.evName)
		}
	}
	for _, site := range tc.sites {
		if tc.anyDeclared(site) || pass.Allowed(site.pos, "undeclared") {
			continue
		}
		pass.Reportf(site.pos, "Transition call site covers no declared table row (possible states %s, events %s); the table declares none of these transitions — remove the arm or declare the row, or annotate //dstore:allow-undeclared <why>",
			tc.stateSetString(site.states), tc.eventSetString(site.events))
	}
	return nil
}

// tablecover is the per-package analysis state.
type tablecover struct {
	pass      *Pass
	setObj    types.Object // the table initializer's local set helper
	tableLit  *ast.FuncLit // the table's function-literal initializer
	declared  map[tcPair]tcDecl
	sites     []tcSite
	numStates int64
	numEvents int64
	// stNames / evNames map values back to the identifiers the table
	// declaration used, for diagnostics.
	stNames map[int64]string
	evNames map[int64]string
}

// findTable locates `var table = func() ... { ... }()` in a file named
// table.go and the set helper defined inside it. Returns false when
// the package has no such declaration.
func (tc *tablecover) findTable() bool {
	for _, f := range tc.pass.Pkg.Files {
		if filepath.Base(tc.pass.Pkg.Fset.Position(f.Pos()).Filename) != "table.go" {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "table" || len(vs.Values) != 1 {
					continue
				}
				call, ok := vs.Values[0].(*ast.CallExpr)
				if !ok {
					continue
				}
				lit, ok := call.Fun.(*ast.FuncLit)
				if !ok {
					continue
				}
				tc.tableLit = lit
			}
		}
	}
	if tc.tableLit == nil {
		return false
	}
	// The set helper: the first function literal bound by a := inside
	// the initializer that takes three parameters.
	for _, stmt := range tc.tableLit.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			continue
		}
		fl, ok := as.Rhs[0].(*ast.FuncLit)
		if !ok || fl.Type.Params.NumFields() != 3 {
			continue
		}
		if id, ok := as.Lhs[0].(*ast.Ident); ok {
			tc.setObj = tc.pass.Pkg.Info.Defs[id]
		}
	}
	return tc.setObj != nil
}

// interpretTable executes the initializer abstractly: plain set calls
// record one cell, range loops over constant composite literals bind
// the loop variable to each element in turn. Any set call the
// interpreter cannot evaluate is an error — silently skipping one
// would turn into a false "undeclared" finding at a handler site.
func (tc *tablecover) interpretTable() error {
	tc.stNames = make(map[int64]string)
	tc.evNames = make(map[int64]string)
	env := make(map[types.Object]int64)
	names := make(map[types.Object]string)
	return tc.walkStmts(tc.tableLit.Body.List, env, names)
}

func (tc *tablecover) walkStmts(stmts []ast.Stmt, env map[types.Object]int64, names map[types.Object]string) error {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || tc.pass.Pkg.Info.Uses[id] != tc.setObj {
				continue
			}
			if len(call.Args) != 3 {
				return tc.errAt(call.Pos(), "set call with %d args", len(call.Args))
			}
			st, stName, err := tc.evalConst(call.Args[0], env, names)
			if err != nil {
				return err
			}
			ev, evName, err := tc.evalConst(call.Args[1], env, names)
			if err != nil {
				return err
			}
			tc.declared[tcPair{st, ev}] = tcDecl{pos: call.Pos(), stName: stName, evName: evName}
			tc.stNames[st] = stName
			tc.evNames[ev] = evName
		case *ast.RangeStmt:
			lit, ok := s.X.(*ast.CompositeLit)
			if !ok {
				return tc.errAt(s.Pos(), "range over non-literal in table initializer")
			}
			id, ok := s.Value.(*ast.Ident)
			if !ok {
				return tc.errAt(s.Pos(), "range without a value variable in table initializer")
			}
			obj := tc.pass.Pkg.Info.Defs[id]
			for _, elem := range lit.Elts {
				v, name, err := tc.evalConst(elem, env, names)
				if err != nil {
					return err
				}
				env[obj], names[obj] = v, name
				if err := tc.walkStmts(s.Body.List, env, names); err != nil {
					return err
				}
			}
			delete(env, obj)
			delete(names, obj)
		case *ast.AssignStmt, *ast.DeclStmt, *ast.ReturnStmt:
			// set definition, var t declaration, return t.
		default:
			// A table builder using statements this interpreter does not
			// model (conditionals, function calls populating cells) must
			// fail loudly rather than under-report declared rows.
			bad := false
			ast.Inspect(stmt, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && tc.pass.Pkg.Info.Uses[id] == tc.setObj {
					bad = true
				}
				return !bad
			})
			if bad {
				return tc.errAt(stmt.Pos(), "set call inside a statement the tablecover interpreter does not model")
			}
		}
	}
	return nil
}

// evalConst resolves an expression to an integer value and a display
// name: typed or untyped constants directly, range-bound loop
// variables through the environment.
func (tc *tablecover) evalConst(expr ast.Expr, env map[types.Object]int64, names map[types.Object]string) (int64, string, error) {
	if tv, ok := tc.pass.Pkg.Info.Types[expr]; ok && tv.Value != nil {
		v, ok := constant.Int64Val(constant.ToInt(tv.Value))
		if !ok {
			return 0, "", tc.errAt(expr.Pos(), "non-integer constant in table initializer")
		}
		if id, isIdent := expr.(*ast.Ident); isIdent {
			return v, id.Name, nil
		}
		return v, fmt.Sprint(v), nil
	}
	if id, ok := expr.(*ast.Ident); ok {
		if obj := tc.pass.Pkg.Info.Uses[id]; obj != nil {
			if v, bound := env[obj]; bound {
				return v, names[obj], nil
			}
		}
	}
	return 0, "", tc.errAt(expr.Pos(), "cannot evaluate %s in table initializer", types.ExprString(expr))
}

func (tc *tablecover) errAt(pos token.Pos, format string, args ...any) error {
	return fmt.Errorf("tablecover: %s: %s", tc.pass.Pkg.Fset.Position(pos), fmt.Sprintf(format, args...))
}

// scopeConst resolves a package-scope integer constant by name.
func (tc *tablecover) scopeConst(name string) (int64, bool) {
	c, ok := tc.pass.Pkg.Types.Scope().Lookup(name).(*types.Const)
	if !ok {
		return 0, false
	}
	v, ok := constant.Int64Val(constant.ToInt(c.Val()))
	return v, ok
}

// handlerFiles are the files whose Transition call sites are handler
// arms: the cache and memory controllers, and the transition core both
// they and the model checker execute.
var handlerFiles = map[string]bool{"ctrl.go": true, "memctrl.go": true, "core.go": true}

// scanHandlers records every Transition call site in the handler files
// with its resolved argument sets.
func (tc *tablecover) scanHandlers() {
	for _, f := range tc.pass.Pkg.Files {
		if !handlerFiles[filepath.Base(tc.pass.Pkg.Fset.Position(f.Pos()).Filename)] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 2 {
				return true
			}
			if ref := tc.pass.funcOf(call); !ref.is(tc.pass.Pkg.PkgPath, "Transition") {
				return true
			}
			tc.sites = append(tc.sites, tcSite{
				pos:    call.Pos(),
				states: tc.resolveArg(call.Args[0], f, tc.numStates, false),
				events: tc.resolveArg(call.Args[1], f, tc.numEvents, true),
			})
			return true
		})
	}
}

// resolveArg computes the set of values an argument can take: a
// constant is a singleton; for event arguments, a helper call (or a
// variable assigned from one) contributes the constants the helper
// returns; anything else is every value below limit.
func (tc *tablecover) resolveArg(expr ast.Expr, file *ast.File, limit int64, isEvent bool) []int64 {
	if tv, ok := tc.pass.Pkg.Info.Types[expr]; ok && tv.Value != nil {
		if v, ok := constant.Int64Val(constant.ToInt(tv.Value)); ok {
			return []int64{v}
		}
	}
	if isEvent {
		if call, ok := expr.(*ast.CallExpr); ok {
			if vs := tc.helperEvents(call); vs != nil {
				return vs
			}
		}
		if id, ok := expr.(*ast.Ident); ok {
			if vs := tc.assignedEvents(id, file); vs != nil {
				return vs
			}
		}
	}
	all := make([]int64, limit)
	for i := range all {
		all[i] = int64(i)
	}
	return all
}

// helperEvents resolves a call to a same-package function whose
// signature includes an Event result: the set of Event constants its
// return statements can produce. Returns nil when the callee is not
// such a helper or a return value is not constant.
func (tc *tablecover) helperEvents(call *ast.CallExpr) []int64 {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return nil
	}
	fn, ok := tc.pass.Pkg.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != tc.pass.Pkg.PkgPath {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	idx := -1
	for i := 0; i < sig.Results().Len(); i++ {
		if named, ok := sig.Results().At(i).Type().(*types.Named); ok && named.Obj().Name() == "Event" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == tc.pass.Pkg.PkgPath {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	var decl *ast.FuncDecl
	for _, f := range tc.pass.Pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && tc.pass.Pkg.Info.Defs[fd.Name] == fn {
				decl = fd
			}
		}
	}
	if decl == nil || decl.Body == nil {
		return nil
	}
	seen := make(map[int64]bool)
	var out []int64
	complete := true
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if len(ret.Results) <= idx {
			complete = false // naked return
			return true
		}
		tv, ok := tc.pass.Pkg.Info.Types[ret.Results[idx]]
		if !ok || tv.Value == nil {
			complete = false
			return true
		}
		if v, ok := constant.Int64Val(constant.ToInt(tv.Value)); ok && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
		return true
	})
	if !complete {
		return nil
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// assignedEvents resolves a local variable's possible events from the
// helper calls assigned to it anywhere in the file. A variable with at
// least one non-helper assignment is unknown (nil).
func (tc *tablecover) assignedEvents(id *ast.Ident, file *ast.File) []int64 {
	obj := tc.pass.Pkg.Info.Uses[id]
	if obj == nil {
		return nil
	}
	seen := make(map[int64]bool)
	var out []int64
	known := true
	ast.Inspect(file, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		mine := false
		for _, lhs := range as.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if tc.pass.Pkg.Info.Defs[lid] == obj || tc.pass.Pkg.Info.Uses[lid] == obj {
				mine = true
			}
		}
		if !mine {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			known = false
			return true
		}
		vs := tc.helperEvents(call)
		if vs == nil {
			known = false
			return true
		}
		for _, v := range vs {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
		return true
	})
	if !known || len(out) == 0 {
		return nil
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// handled reports whether any call site covers the pair.
func (tc *tablecover) handled(p tcPair) bool {
	for _, site := range tc.sites {
		if containsInt(site.states, p.st) && containsInt(site.events, p.ev) {
			return true
		}
	}
	return false
}

// anyDeclared reports whether a call site can hit at least one
// declared row. Controllers routinely consult the table for pairs
// whose legality they branch on (out.OK), so a site is suspect only
// when its whole product is undeclared.
func (tc *tablecover) anyDeclared(site tcSite) bool {
	for _, st := range site.states {
		for _, ev := range site.events {
			if _, ok := tc.declared[tcPair{st, ev}]; ok {
				return true
			}
		}
	}
	return false
}

func containsInt(xs []int64, v int64) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func (tc *tablecover) stateSetString(vs []int64) string {
	return tc.setString(vs, tc.stNames, tc.numStates, "state")
}
func (tc *tablecover) eventSetString(vs []int64) string {
	return tc.setString(vs, tc.evNames, tc.numEvents, "event")
}

func (tc *tablecover) setString(vs []int64, names map[int64]string, limit int64, kind string) string {
	if int64(len(vs)) == limit {
		return "any"
	}
	parts := make([]string, len(vs))
	for i, v := range vs {
		if n, ok := names[v]; ok {
			parts[i] = n
		} else {
			parts[i] = fmt.Sprintf("%s(%d)", kind, v)
		}
	}
	return strings.Join(parts, ", ")
}

// reachabilityFile mirrors the dstore-modelcheck -coverage output.
type reachabilityFile struct {
	Pairs []struct {
		State string `json:"state"`
		Event string `json:"event"`
	} `json:"pairs"`
}

// loadReachability reads testdata/reachability.json next to the
// package and resolves its identifier names against the package scope.
// A missing file skips the dead-transition check.
func (tc *tablecover) loadReachability() (map[tcPair]bool, bool, error) {
	path := filepath.Join(tc.pass.Pkg.Dir, "testdata", "reachability.json")
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("tablecover: %w", err)
	}
	var doc reachabilityFile
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, false, fmt.Errorf("tablecover: %s: %w", path, err)
	}
	reach := make(map[tcPair]bool, len(doc.Pairs))
	for _, p := range doc.Pairs {
		st, ok := tc.scopeConst(p.State)
		if !ok {
			return nil, false, fmt.Errorf("tablecover: %s: unknown state constant %q", path, p.State)
		}
		ev, ok := tc.scopeConst(p.Event)
		if !ok {
			return nil, false, fmt.Errorf("tablecover: %s: unknown event constant %q", path, p.Event)
		}
		reach[tcPair{st, ev}] = true
	}
	return reach, true, nil
}

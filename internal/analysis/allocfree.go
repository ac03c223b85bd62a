package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// allocFreePackages are the hot-path packages under the steady-state
// zero-allocation contract: the event kernel, the cache arrays, the
// coherence protocol, the GPU pipeline, the TLB and the on-chip
// networks. Every map the hot path consults was converted to
// a dense line-indexed table, and every per-message allocation to a
// pooled packet — a new map or message allocation creeping in undoes
// the conversion silently, visible only as B/op drift in benchmarks.
// The fixture package rides along so the analyzer's own tests can seed
// violations.
var allocFreePackages = map[string]bool{
	"dstore/internal/sim":                           true,
	"dstore/internal/cache":                         true,
	"dstore/internal/coherence":                     true,
	"dstore/internal/gpu":                           true,
	"dstore/internal/mmu":                           true,
	"dstore/internal/interconnect":                  true,
	"dstore/internal/analysis/testdata/src/fixture": true,
}

// AllocFree flags allocation on the coherence hot path: map creation
// (make or literal) and message-type allocation (new(T), &T{}) outside
// construction functions. Constructors — functions named New*/new* or
// init, where building the dense tables and pools is the job — are
// exempt. Cold paths that legitimately allocate (snapshot restore,
// pool refill) carry a //dstore:allow-alloc <why> annotation.
var AllocFree = &Analyzer{
	Name: "allocfree",
	Doc: "forbid map allocation and message-type allocation in hot-path " +
		"packages outside constructors",
	Applies: func(pkgPath string) bool { return allocFreePackages[pkgPath] },
	Run:     runAllocFree,
}

// isConstructorName reports whether a function is a construction
// context: allocation there happens once per component, not per event.
func isConstructorName(name string) bool {
	return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") || name == "init"
}

// isMessageType reports whether t is a protocol message or packet
// type: a named struct whose name ends in "Msg" (ReqMsg, PutxMsg, ...)
// or is the pooled packet carrier itself.
func isMessageType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return false
	}
	name := named.Obj().Name()
	return strings.HasSuffix(name, "Msg") || name == "pkt"
}

func runAllocFree(pass *Pass) error {
	info := pass.Pkg.Info
	// isBuiltin reports whether an identifier in call position resolves
	// to the predeclared builtin (not a shadowing local).
	isBuiltin := func(id *ast.Ident, name string) bool {
		if id.Name != name {
			return false
		}
		obj, ok := info.Uses[id]
		if !ok {
			return false
		}
		_, builtin := obj.(*types.Builtin)
		return builtin
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || isConstructorName(fd.Name.Name) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					// Closures inherit the enclosing function's context;
					// a constructor's helper closure was skipped with it.
					return true
				case *ast.CallExpr:
					id, ok := n.Fun.(*ast.Ident)
					if !ok {
						return true
					}
					if isBuiltin(id, "make") && len(n.Args) > 0 {
						if _, isMap := info.TypeOf(n).Underlying().(*types.Map); isMap && !pass.Allowed(n.Pos(), "alloc") {
							pass.Reportf(n.Pos(), "map allocation in hot-path package outside a constructor: "+
								"use a dense line-indexed table "+
								"(or annotate //dstore:allow-alloc <why> for cold paths)")
						}
					}
					if isBuiltin(id, "new") && len(n.Args) == 1 {
						if t := info.TypeOf(n.Args[0]); t != nil && isMessageType(t) && !pass.Allowed(n.Pos(), "alloc") {
							pass.Reportf(n.Pos(), "new(%s) allocates a message in a hot-path package: "+
								"draw from the packet pool "+
								"(or annotate //dstore:allow-alloc <why> for cold paths)", typeName(t))
						}
					}
				case *ast.CompositeLit:
					t := info.TypeOf(n)
					if t == nil {
						return true
					}
					if _, isMap := t.Underlying().(*types.Map); isMap && !pass.Allowed(n.Pos(), "alloc") {
						pass.Reportf(n.Pos(), "map literal in hot-path package outside a constructor: "+
							"use a dense line-indexed table "+
							"(or annotate //dstore:allow-alloc <why> for cold paths)")
					}
				case *ast.UnaryExpr:
					// &MsgType{...}: the address forces the message to the
					// heap when it escapes into the engine.
					lit, ok := n.X.(*ast.CompositeLit)
					if n.Op.String() != "&" || !ok {
						return true
					}
					if t := info.TypeOf(lit); t != nil && isMessageType(t) && !pass.Allowed(n.Pos(), "alloc") {
						pass.Reportf(n.Pos(), "&%s{} allocates a message in a hot-path package: "+
							"draw from the packet pool "+
							"(or annotate //dstore:allow-alloc <why> for cold paths)", typeName(t))
					}
				}
				return true
			})
		}
	}
	return nil
}

// typeName renders a type's bare name for diagnostics.
func typeName(t types.Type) string {
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

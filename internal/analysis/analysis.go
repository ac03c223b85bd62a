// Package analysis is a small, dependency-free static-analysis
// framework in the shape of golang.org/x/tools/go/analysis: analyzers
// receive a type-checked package and report position-tagged
// diagnostics. It exists because the repo's headline guarantees —
// byte-identical transcripts per (seed, profile) and the
// content-addressed result cache — are determinism contracts that unit
// tests can only sample; the analyzers in this package enforce them at
// compile time over the whole tree.
//
// Escape hatches are explicit annotations in the source:
//
//	//dstore:allow-wallclock <why>   — wall-clock read is intentional
//	//dstore:allow-rand <why>        — nondeterministic rand is intentional
//	//dstore:allow-maprange <why>    — map iteration order cannot escape
//	//dstore:allow-reentry <why>     — callback re-enters the engine
//	//dstore:allow-loopcapture <why> — loop-variable capture is intended
//	//dstore:allow-alloc <why>       — hot-path allocation is intentional
//	//dstore:allow-unhandled <why>   — declared table row with no handler arm
//	//dstore:allow-undeclared <why>  — Transition call outside the declared table
//	//dstore:allow-uncovered <why>   — declared table row the model checker
//	                                   provably cannot reach
//	//dstore:allow-spanleak <why>    — trace span intentionally left open
//
// An annotation applies to the line it sits on or the line directly
// below it, so both trailing and preceding comment styles work. The
// justification text is required by convention (reviewed, not parsed).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: an analyzer name, a position and a
// message.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is a one-paragraph description.
	Doc string
	// Applies reports whether the analyzer runs on a package. Nil
	// means every package.
	Applies func(pkgPath string) bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	report func(Diagnostic)
	// allowed maps file:line to the set of allow-directives present on
	// that line.
	allowed map[string]map[int]map[string]bool
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Allowed reports whether a //dstore:allow-<what> annotation covers
// pos: on the same line or on the line directly above.
func (p *Pass) Allowed(pos token.Pos, what string) bool {
	at := p.Pkg.Fset.Position(pos)
	lines := p.allowed[at.Filename]
	if lines == nil {
		return false
	}
	return lines[at.Line][what] || lines[at.Line-1][what]
}

// directivePrefix introduces an escape-hatch annotation.
const directivePrefix = "dstore:allow-"

// collectAllowances indexes every //dstore:allow-* comment by file and
// line.
func collectAllowances(pkg *Package) map[string]map[int]map[string]bool {
	out := make(map[string]map[int]map[string]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				what := strings.TrimPrefix(text, directivePrefix)
				if i := strings.IndexAny(what, " \t"); i >= 0 {
					what = what[:i]
				}
				at := pkg.Fset.Position(c.Pos())
				lines := out[at.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					out[at.Filename] = lines
				}
				set := lines[at.Line]
				if set == nil {
					set = make(map[string]bool)
					lines[at.Line] = set
				}
				set[what] = true
			}
		}
	}
	return out
}

// Run loads the packages matched by patterns (rooted at dir; empty dir
// means the current directory) and applies every analyzer to every
// package it covers. Diagnostics come back sorted by position.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allowed := collectAllowances(pkg)
		for _, a := range analyzers {
			if a.Applies != nil && !a.Applies(pkg.PkgPath) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Pkg:      pkg,
				allowed:  allowed,
				report:   func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// funcOf resolves a call expression's callee to a *types.Func, or nil.
func (p *Pass) funcOf(call *ast.CallExpr) *funcRef {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if obj, ok := p.Pkg.Info.Uses[fun.Sel]; ok {
			return newFuncRef(obj)
		}
	case *ast.Ident:
		if obj, ok := p.Pkg.Info.Uses[fun]; ok {
			return newFuncRef(obj)
		}
	}
	return nil
}

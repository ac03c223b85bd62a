package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string
	Standard   bool
	Incomplete bool
	Error      *struct{ Err string }
}

// Load resolves patterns with the go tool, type-checks every matched
// package against compiler export data, and returns them ready for
// analysis. It uses only the standard library: `go list -export`
// produces export data for all dependencies, and go/importer's gc
// reader consumes it through a lookup function — no golang.org/x/tools
// dependency.
//
// Test files are deliberately excluded (go list GoFiles): tests may
// use wall clocks and unseeded randomness freely.
func Load(dir string, patterns []string) ([]*Package, error) {
	roots, err := goList(dir, append([]string{"-find"}, patterns...))
	if err != nil {
		return nil, err
	}
	rootSet := make(map[string]bool)
	for _, r := range roots {
		rootSet[r.ImportPath] = true
	}

	// One -deps walk produces export data for every package in the
	// closure (the go tool builds anything stale as a side effect).
	all, err := goList(dir, append([]string{"-export", "-deps"}, patterns...))
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	for _, p := range all {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(file)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, p := range all {
		if !rootSet[p.ImportPath] || len(p.GoFiles) == 0 {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: load %s: %s", p.ImportPath, p.Error.Err)
		}
		files := make([]*ast.File, 0, len(p.GoFiles))
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("analysis: parse %s: %w", name, err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Uses:       make(map[*ast.Ident]types.Object),
			Defs:       make(map[*ast.Ident]types.Object),
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("analysis: type-check %s: %w", p.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			PkgPath: p.ImportPath,
			Dir:     p.Dir,
			Fset:    fset,
			Files:   files,
			Types:   tpkg,
			Info:    info,
		})
	}
	return pkgs, nil
}

// goList runs `go list -json <args>` in dir and decodes the package
// stream.
func goList(dir string, args []string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s",
			strings.Join(args, " "), err, errb.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(&out)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decode go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// funcRef is a resolved callee: enough identity to match "time.Now"
// or "(*dstore/internal/sim.Engine).Step" without importing the
// target packages.
type funcRef struct {
	PkgPath string // declaring package import path
	Name    string // function or method name
	Recv    string // receiver type name ("" for plain functions)
}

func newFuncRef(obj types.Object) *funcRef {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	ref := &funcRef{PkgPath: fn.Pkg().Path(), Name: fn.Name()}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		// Both concrete and interface receivers resolve through the
		// named type (interconnect.Network's Send lands here too).
		if named, ok := t.(*types.Named); ok {
			ref.Recv = named.Obj().Name()
		}
	}
	return ref
}

// is reports whether the callee is pkgPath.name (plain function) —
// recv must be empty.
func (f *funcRef) is(pkgPath, name string) bool {
	return f != nil && f.Recv == "" && f.PkgPath == pkgPath && f.Name == name
}

// isMethod reports whether the callee is a method recv.name declared
// in pkgPath.
func (f *funcRef) isMethod(pkgPath, recv, name string) bool {
	return f != nil && f.PkgPath == pkgPath && f.Recv == recv && f.Name == name
}

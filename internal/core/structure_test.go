package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestPlatformCallsOnlyInPlan keeps the invariant the one-interpreter design
// rests on (DESIGN.md §11b): everything an executor asks of the platform —
// LevelExecutor.Submit, TransferToGPU, TransferToCPU, AllocSegment — and the
// cancellation check ctx.Err() is issued in plan.go, by chain.advance, and
// nowhere else in this package. Whatever is to see, stamp, cancel or
// fault-check every op of every executor — single, hybrid, multi-device,
// fused — has one place to stand; the run's tap (metering.go), which times
// them all, stands there.
func TestPlatformCallsOnlyInPlan(t *testing.T) {
	platform := map[string]bool{"Submit": true, "TransferToGPU": true, "TransferToCPU": true, "AllocSegment": true, "Err": true}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, pkg := range pkgs {
		for path, file := range pkg.Files {
			files++
			name := filepath.Base(path)
			if name == "plan.go" {
				continue
			}
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || !platform[sel.Sel.Name] {
						return true
					}
					t.Errorf("%s: %s calls %s outside plan.go", fset.Position(call.Pos()), fn.Name.Name, sel.Sel.Name)
					return true
				})
			}
		}
	}
	if files < 10 {
		t.Fatalf("parsed %d files of the package, expected all of them", files)
	}
}

// TestBackendsArePlatformsOrFaults keeps measurement out of backend
// decorators (DESIGN.md §9): the interpreter measures every op itself, so a
// type implementing TransferToGPU — or a struct embedding a Backend, which
// implements it by promotion — is a platform (the simulators and the native
// backend) or the one decorator that changes behaviour instead of observing
// it, the fault injector. Test files are exempt: their recording backends
// are how the golden plans are written down.
func TestBackendsArePlatformsOrFaults(t *testing.T) {
	const root = "../.."
	var found []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module (bench/)
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir, _ := filepath.Rel(root, filepath.Dir(path))
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv != nil && decl.Name.Name == "TransferToGPU" {
					found = append(found, dir+"."+receiverType(decl.Recv.List[0].Type))
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						if len(field.Names) == 0 && embedsBackend(field.Type) {
							found = append(found, dir+"."+ts.Name.Name+" (embeds Backend)")
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(found)
	want := []string{"internal/faults.Backend", "internal/hpu.MultiSim", "internal/hpu.Sim", "internal/native.Backend"}
	if !reflect.DeepEqual(found, want) {
		t.Errorf("types implementing TransferToGPU = %v, want only %v", found, want)
	}
}

// receiverType names a method receiver's type, pointer or not.
func receiverType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

// embedsBackend reports whether an embedded field's type is core's Backend.
func embedsBackend(e ast.Expr) bool {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == "Backend"
	case *ast.SelectorExpr:
		return e.Sel.Name == "Backend"
	}
	return false
}

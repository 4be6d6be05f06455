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
// rests on (DESIGN.md §11b): everything a scheduler asks of the platform —
// a unit's Submit, TransferToGPU, TransferToCPU, AllocSegment — is issued in
// plan.go, by chain.advance, and nowhere else in the module; in this package
// the cancellation check ctx.Err() and every Submit are held to it too.
// Whatever is to see, stamp, cancel or fault-check every op of every
// executor — single, hybrid, dynamic, multi-device, fused — has one place to
// stand; the run's tap (metering.go), which times them all, stands there.
// Outside this package a Submit is a platform call by its receiver's shape —
// x.CPU(), x.GPU(), x.GPUs()[i] or a field named dev — so the serving pool's
// Submit is not one. The allowlist is the platforms themselves, the layers
// that forward to them, and two users of the simulated units that schedule
// nothing.
func TestPlatformCallsOnlyInPlan(t *testing.T) {
	allowed := map[string]bool{
		"internal/core/plan.go": true,
		"internal/hpu":          true, // the platforms
		"internal/simcpu":       true,
		"internal/simgpu":       true,
		"internal/native":       true,
		"internal/vtime":        true,
		"internal/faults":       true, // forwards each call to the platform it wraps
		"internal/estimate":     true, // single-batch microbenchmarks of one unit
		"internal/opencl":       true, // an OpenCL queue over the simulator
	}
	files := 0
	walkModule(t, func(fset *token.FileSet, path string, file *ast.File) {
		files++
		dir := filepath.Dir(path)
		if allowed[path] || allowed[dir] {
			return
		}
		inCore := dir == "internal/core"
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
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "TransferToGPU", "TransferToCPU", "AllocSegment":
				case "Submit":
					if !inCore && !unitShaped(sel.X) {
						return true
					}
				case "Err":
					if !inCore {
						return true
					}
				default:
					return true
				}
				t.Errorf("%s: %s calls %s outside core/plan.go", fset.Position(call.Pos()), fn.Name.Name, sel.Sel.Name)
				return true
			})
		}
	})
	if files < 80 {
		t.Fatalf("parsed %d files of the module, expected all of them", files)
	}
}

// unitShaped reports whether a Submit's receiver is one of a backend's
// units: x.CPU(), x.GPU(), x.GPUs()[i] or a field named dev.
func unitShaped(x ast.Expr) bool {
	if ix, ok := x.(*ast.IndexExpr); ok {
		x = ix.X
	}
	if call, ok := x.(*ast.CallExpr); ok {
		x = call.Fun
	}
	sel, ok := x.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "CPU", "GPU", "GPUs", "dev":
		return true
	}
	return false
}

// walkModule parses every non-test Go file of the module outside bench/
// (its own module) and hands each to visit with its path relative to the
// module root.
func walkModule(t *testing.T, visit func(fset *token.FileSet, path string, file *ast.File)) {
	t.Helper()
	const root = "../.."
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
		rel, _ := filepath.Rel(root, path)
		visit(fset, rel, file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
	var found []string
	walkModule(t, func(_ *token.FileSet, path string, file *ast.File) {
		dir := filepath.Dir(path)
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
	})
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

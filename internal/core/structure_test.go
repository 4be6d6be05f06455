package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	pathpkg "path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestPlatformCallsOnlyInPlan keeps the invariant the one-interpreter design
// rests on (DESIGN.md §11b): everything a scheduler asks of the platform —
// a unit's Submit, TransferToGPU, TransferToCPU — is issued in
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
	walkModule(t, func(fset *token.FileSet, path string, kind fileKind, file *ast.File) {
		dir := filepath.Dir(path)
		if kind != sourceFile {
			return
		}
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
				case "TransferToGPU", "TransferToCPU":
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

// fileKind tags each file walkModule visits.
type fileKind int

const (
	sourceFile fileKind = iota // a non-test file of the module
	testFile                   // a _test.go file of the module
	benchFile                  // any file of bench/, its own module
)

// walkModule parses every Go file of the module, and of bench/ (its own
// module), and hands each to visit with its path relative to the module
// root and its kind. It fails the test if the walk saw fewer files of a
// kind than the module has had, so a gate over an empty walk cannot pass.
func walkModule(t *testing.T, visit func(fset *token.FileSet, path string, kind fileKind, file *ast.File)) {
	t.Helper()
	const root = "../.."
	fset := token.NewFileSet()
	var counts [3]int
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
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		kind := sourceFile
		switch {
		case strings.HasPrefix(rel, "bench/"):
			kind = benchFile
		case strings.HasSuffix(rel, "_test.go"):
			kind = testFile
		}
		counts[kind]++
		visit(fset, rel, kind, file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if counts[sourceFile] < 80 || counts[testFile] < 80 || counts[benchFile] < 8 {
		t.Fatalf("parsed %d source, %d test and %d bench files, expected the whole module", counts[sourceFile], counts[testFile], counts[benchFile])
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
	walkModule(t, func(_ *token.FileSet, path string, kind fileKind, file *ast.File) {
		if kind != sourceFile {
			return
		}
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

// receiverType names a method receiver's type, pointer or not, generic or
// not.
func receiverType(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	switch ix := e.(type) {
	case *ast.IndexExpr:
		e = ix.X
	case *ast.IndexListExpr:
		e = ix.X
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

// TestExportedNamesHaveCallers keeps the exported surface to what something
// calls. Under internal/, every exported func, var, const, type and method
// declared in a non-test file must be referenced from a non-test file (its
// own declaration aside), from bench/, or from another package's tests —
// shared fixtures and reference oracles such as dcsum.Sum or
// servetest.Hold. A name only its own package's tests use belongs in a
// _test.go file. In the facade (the root package), every func and var must
// be referenced by cmd/, examples/, bench/ or a root _test.go, so the public
// surface is documented by code that runs it; its types and constants are
// exempt. Methods of exported types match by name, and a method is exempt
// when an interface of the module or of the standard library declares its
// name.
func TestExportedNamesHaveCallers(t *testing.T) {
	// Exceptions, one reason each: "dir.Name" (or "dir.Type.Method") → why.
	allowed := map[string]string{
		"internal/api/client.Client.Healthy": "the typed client's call for GET /healthz, one per route",
		"internal/trace.Recorder.Dropped":    "the evictions of a NewTraceRecorderLimit ring, documented on the facade",
	}
	type ref struct{ dir, name string }
	type decl struct {
		ref
		key string
		pos token.Position
	}
	var decls []decl
	var methods []decl
	internalRefs := map[ref]bool{} // references that count under internal/
	facadeRefs := map[ref]bool{}   // references that count for the facade
	selected := map[string]bool{}  // selector names outside tests
	testSelected := map[ref]bool{} // selector names in each directory's tests
	ifaceMethods := map[string]bool{
		"String": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
		"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
		"Read": true, "Write": true, "Close": true,
		"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	}
	walkModule(t, func(fset *token.FileSet, path string, kind fileKind, file *ast.File) {
		dir := filepath.Dir(path)
		forFacade := kind == benchFile || strings.HasPrefix(dir, "cmd/") ||
			strings.HasPrefix(dir, "examples/") || (kind == testFile && dir == ".")
		imports := map[string]string{} // package name → directory
		for _, imp := range file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p != "repro" && !strings.HasPrefix(p, "repro/") {
				continue
			}
			target, name := strings.TrimPrefix(p, "repro/"), pathpkg.Base(p)
			if p == "repro" {
				target, name = ".", "hybriddc"
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = target
		}
		note := func(r ref) {
			if kind != testFile || r.dir != dir {
				internalRefs[r] = true
			}
			if forFacade {
				facadeRefs[r] = true
			}
		}
		// own is the name the enclosing declaration declares: its uses
		// inside itself (recursion, a self-referencing type) do not count.
		visit := func(n ast.Node, own string) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := n.X.(*ast.Ident); ok {
						if target, ok := imports[id.Name]; ok {
							note(ref{target, n.Sel.Name})
							return false
						}
					}
					if n.Sel.Name == own {
						break
					}
					if kind == testFile {
						testSelected[ref{dir, n.Sel.Name}] = true
					} else {
						selected[n.Sel.Name] = true
					}
				case *ast.Ident:
					if n.Name != own {
						note(ref{dir, n.Name})
					}
				case *ast.InterfaceType:
					if kind == sourceFile {
						for _, m := range n.Methods.List {
							for _, id := range m.Names {
								ifaceMethods[id.Name] = true
							}
						}
					}
				}
				return true
			})
		}
		checked := kind == sourceFile && (dir == "." || strings.HasPrefix(dir, "internal/"))
		declare := func(id *ast.Ident, facadeExempt bool) {
			if !checked || !id.IsExported() || (dir == "." && facadeExempt) {
				return
			}
			key := dir + "." + id.Name
			if dir == "." {
				key = "hybriddc." + id.Name
			}
			decls = append(decls, decl{ref{dir, id.Name}, key, fset.Position(id.Pos())})
		}
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(d.Name, false)
				} else if recv := receiverType(d.Recv.List[0].Type); checked && d.Name.IsExported() && ast.IsExported(recv) {
					key := dir + "." + recv + "." + d.Name.Name
					methods = append(methods, decl{ref{dir, d.Name.Name}, key, fset.Position(d.Name.Pos())})
				}
				visit(d.Type, d.Name.Name)
				if d.Body != nil {
					visit(d.Body, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare(spec.Name, true)
						visit(spec.Type, spec.Name.Name)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							declare(id, d.Tok == token.CONST)
						}
						if spec.Type != nil {
							visit(spec.Type, "")
						}
						for _, v := range spec.Values {
							visit(v, "")
						}
					}
				}
			}
		}
	})
	if len(decls) < 400 || len(methods) < 300 {
		t.Fatalf("found %d exported declarations and %d methods, expected the whole module", len(decls), len(methods))
	}
	var missing []string
	report := func(d decl) {
		if allowed[d.key] == "" {
			missing = append(missing, fmt.Sprintf("%s (%s:%d)", d.key, d.pos.Filename, d.pos.Line))
		}
	}
	for _, d := range decls {
		if d.dir == "." && !facadeRefs[d.ref] || d.dir != "." && !internalRefs[d.ref] {
			report(d)
		}
	}
methods:
	for _, m := range methods {
		if ifaceMethods[m.name] || selected[m.name] {
			continue
		}
		for r := range testSelected {
			if r.name == m.name && r.dir != m.dir {
				continue methods
			}
		}
		report(m)
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("exported name without a caller: %s", m)
	}
}

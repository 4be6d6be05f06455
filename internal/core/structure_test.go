package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestPlatformCallsOnlyInPlan keeps the invariant the one-interpreter design
// rests on (DESIGN.md §11b): everything an executor asks of the platform —
// LevelExecutor.Submit, TransferToGPU, TransferToCPU, AllocSegment — and the
// cancellation check ctx.Err() is issued in plan.go, by chain.advance, and
// nowhere else in this package but metering.go's forwarding wrappers (a
// method named like the call it forwards). Whatever is to see, stamp, cancel
// or fault-check every op of every executor — single, hybrid, multi-device,
// fused — has one place to stand.
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
					if name == "metering.go" && fn.Name.Name == sel.Sel.Name {
						return true // a forwarding wrapper
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

package framework

// The goroutine-launch model the concurrency analyzers (sharedcapture,
// engineaffinity) share: what counts as launching a goroutine, and which
// types are designed to be reached from more than one (DESIGN.md §16).

import (
	"go/ast"
	"go/types"
	"strings"
)

// PkgIs reports whether pkg's import path is name or ends in "/name", so a
// check works for both the real module layout and fixture packages.
func PkgIs(pkg *types.Package, name string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == name || strings.HasSuffix(p, "/"+name)
}

// GoroutineLit returns the function literal launched by n when n is a `go`
// statement or a worker-pool submission (a call to a method named Go or
// Submit with a function-literal argument); nil otherwise.
func GoroutineLit(n ast.Node) *ast.FuncLit {
	switch x := n.(type) {
	case *ast.GoStmt:
		if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
			return lit
		}
	case *ast.CallExpr:
		sel, ok := x.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Go" && sel.Sel.Name != "Submit") {
			return nil
		}
		for _, arg := range x.Args {
			if lit, ok := arg.(*ast.FuncLit); ok {
				return lit
			}
		}
	}
	return nil
}

// RootIdent returns the leftmost identifier of a selector chain (a.b.c → a):
// the variable a goroutine literal reaches its state through.
func RootIdent(sel *ast.SelectorExpr) *ast.Ident {
	for {
		switch x := sel.X.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			sel = x
		default:
			return nil
		}
	}
}

// Mediated reports whether obj is one of the types designed for
// cross-goroutine access: des.Watch and telemetry.Live (seqlock),
// telemetry.SweepTracker and telemetry.Logger (mutex).
func Mediated(obj types.Object) bool {
	switch {
	case PkgIs(obj.Pkg(), "des"):
		return obj.Name() == "Watch"
	case PkgIs(obj.Pkg(), "telemetry"):
		switch obj.Name() {
		case "Live", "SweepTracker", "Logger":
			return true
		}
	}
	return false
}

// Package sharedcapture implements the simlint analyzer that guards the
// parallel sweep runner's cell-ownership contract (DESIGN.md §16).
//
// Sweep cells run concurrently, and the whole bit-identity story rests on
// each cell owning its engine, RNG, and telemetry end-to-end. The one place
// that discipline can silently break is a goroutine closure: a `go` statement
// (or worker-pool submission) whose function literal captures a pointer to
// state another cell also touches. The analyzer inspects every goroutine
// launch and flags:
//
//   - capture of a loop variable that is declared *outside* its for
//     statement (`var i int; for i = ...`) — the only loop-capture form that
//     still aliases across iterations under Go ≥1.22 per-iteration semantics;
//   - capture of a pointer to goroutine-affine shared state: *des.Engine,
//     *telemetry.Recorder, *telemetry.DecisionLog, or any map
//     (manifest/index maps are the canonical offender);
//   - writes to captured variables (`done = true`, `lastErr = err`) — racy
//     unless the variable is moved inside the goroutine;
//   - writes to a captured slice indexed by anything other than the
//     goroutine's own work item (an index computed entirely from variables
//     declared inside the literal, e.g. `cells[j.idx]` with `j` ranged from
//     the jobs channel, stays legal).
//
// Captures of mediated constructs are always fine: channels, sync.* and
// sync/atomic.* types, and the types framework.Mediated lists (des.Watch
// and the telemetry types documented as cross-goroutine safe).
// Everything else needs a `//simlint:allow sharedcapture -- reason` at the
// capture site.
package sharedcapture

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/framework"
)

// Analyzer is the sharedcapture check.
var Analyzer = &framework.Analyzer{
	Name: "sharedcapture",
	Doc:  "flag goroutine closures capturing mutable state shared across sweep cells (loop variables, engines, recorders, maps, captured writes)",
	Run:  run,
}

// sharedPtrTypes are the goroutine-affine types whose pointers must never be
// captured into a goroutine: each belongs to exactly one cell.
var sharedPtrTypes = map[string]bool{
	"Engine":      true, // des.Engine
	"Recorder":    true, // telemetry.Recorder
	"DecisionLog": true, // telemetry.DecisionLog
}

// namedOf unwraps t to its named type, looking through one pointer.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// allowlisted reports whether capturing a variable of type t into a
// goroutine is always safe: channels, sync primitives, atomics, function
// values, and the mediated observation types.
func allowlisted(t types.Type) bool {
	switch u := t.(type) {
	case *types.Chan, *types.Signature:
		return true
	case *types.Pointer:
		return allowlisted(u.Elem())
	}
	named := namedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	switch {
	case obj.Pkg() == nil:
		return false
	case obj.Pkg().Path() == "sync" || obj.Pkg().Path() == "sync/atomic":
		return true
	case framework.Mediated(obj):
		return true
	}
	return false
}

// sharedPointer reports whether t is a pointer to one of the goroutine-affine
// shared types.
func sharedPointer(t types.Type) (string, bool) {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return "", false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if !sharedPtrTypes[obj.Name()] {
		return "", false
	}
	if framework.PkgIs(obj.Pkg(), "des") || framework.PkgIs(obj.Pkg(), "telemetry") {
		return types.TypeString(t, nil), true
	}
	return "", false
}

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		var stack []ast.Node
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if lit := framework.GoroutineLit(n); lit != nil {
				checkLit(pass, lit, stack)
			}
			return true
		}
		ast.Inspect(file, func(n ast.Node) bool { return walk(n) })
	}
	return nil
}

// checkLit analyzes one goroutine literal. stack is the ancestor chain of
// the launching statement (innermost last), used to find enclosing loops.
func checkLit(pass *framework.Pass, lit *ast.FuncLit, stack []ast.Node) {
	captured := func(obj types.Object) bool {
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return false
		}
		// Declared inside the literal (including its parameters): own state.
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return false
		}
		// Package-level state is not a capture; detrand/maporder and code
		// review govern globals.
		if v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
			return false
		}
		return true
	}

	// One "captures shared type" report per variable per literal.
	flaggedVar := make(map[types.Object]bool)

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			// Nested literals share the same capture frame; keep walking.
			return true
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				checkWrite(pass, lit, lhs, captured)
			}
		case *ast.IncDecStmt:
			checkWrite(pass, lit, x.X, captured)
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[x]
			if obj == nil || !captured(obj) || flaggedVar[obj] {
				return true
			}
			if loopVarAssignedOutside(pass, obj, stack) {
				flaggedVar[obj] = true
				pass.Reportf(x.Pos(), "goroutine captures loop variable %s declared outside its for statement; iterations share one variable — pass it as a parameter or declare it in the loop", x.Name)
				return true
			}
			t := obj.Type()
			if allowlisted(t) {
				return true
			}
			if name, ok := sharedPointer(t); ok {
				flaggedVar[obj] = true
				pass.Reportf(x.Pos(), "goroutine captures %s %s; the pointee is goroutine-affine — give each cell its own instance or go through a mediated API (telemetry.Live, des.Watch)", name, x.Name)
				return true
			}
			if _, ok := t.Underlying().(*types.Map); ok {
				flaggedVar[obj] = true
				pass.Reportf(x.Pos(), "goroutine captures map %s; concurrent map access across cells is racy — pass per-cell data in or guard it with an allowlisted sync construct", x.Name)
			}
		}
		return true
	})
}

// checkWrite flags an assignment target inside the literal that aliases
// captured state.
func checkWrite(pass *framework.Pass, lit *ast.FuncLit, lhs ast.Expr, captured func(types.Object) bool) {
	switch x := lhs.(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[x]; obj != nil && captured(obj) && !allowlisted(obj.Type()) {
			pass.Reportf(x.Pos(), "goroutine writes to captured variable %s; the write races with the spawning goroutine — move the variable into the goroutine or guard it with an allowlisted sync construct", x.Name)
		}
	case *ast.SelectorExpr:
		if root := framework.RootIdent(x); root != nil {
			if obj := pass.TypesInfo.Uses[root]; obj != nil && captured(obj) && !allowlisted(obj.Type()) {
				pass.Reportf(x.Pos(), "goroutine writes through captured variable %s; the write races with the spawning goroutine — move the state into the goroutine or guard it with an allowlisted sync construct", root.Name)
			}
		}
	case *ast.IndexExpr:
		base, ok := x.X.(*ast.Ident)
		if !ok {
			return
		}
		obj := pass.TypesInfo.Uses[base]
		if obj == nil || !captured(obj) {
			return
		}
		if _, isSlice := obj.Type().Underlying().(*types.Slice); !isSlice {
			// Map index writes are covered by the map-capture report.
			return
		}
		if indexOwnedBy(pass, lit, x.Index) {
			return
		}
		pass.Reportf(x.Pos(), "goroutine writes to captured slice %s at an index not derived from its own work item; cells may only write their own index (e.g. cells[j.idx] with j received inside the goroutine)", base.Name)
	}
}

// indexOwnedBy reports whether every variable in an index expression is
// declared inside the literal — i.e. the index is derived from the
// goroutine's own work item (a parameter or a value received from the jobs
// channel), so the write cannot collide with another cell's.
func indexOwnedBy(pass *framework.Pass, lit *ast.FuncLit, index ast.Expr) bool {
	owned := true
	ast.Inspect(index, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		v, isVar := obj.(*types.Var)
		if !isVar || v.IsField() {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			owned = false
		}
		return true
	})
	return owned
}

// loopVarAssignedOutside reports whether obj is the iteration variable of an
// enclosing for/range statement while being *declared outside* it — the one
// loop-capture shape Go ≥1.22 per-iteration variables do not fix.
func loopVarAssignedOutside(pass *framework.Pass, obj types.Object, stack []ast.Node) bool {
	for _, n := range stack {
		switch f := n.(type) {
		case *ast.ForStmt:
			if f.Post != nil && stmtAssigns(pass, f.Post, obj) && obj.Pos() < f.Pos() {
				return true
			}
		case *ast.RangeStmt:
			if f.Tok != token.ASSIGN {
				continue // := range declares per-iteration variables
			}
			for _, e := range []ast.Expr{f.Key, f.Value} {
				if id, ok := e.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					return true
				}
			}
		}
	}
	return false
}

// stmtAssigns reports whether a for-post statement assigns obj.
func stmtAssigns(pass *framework.Pass, stmt ast.Stmt, obj types.Object) bool {
	switch s := stmt.(type) {
	case *ast.IncDecStmt:
		id, ok := s.X.(*ast.Ident)
		return ok && pass.TypesInfo.Uses[id] == obj
	case *ast.AssignStmt:
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				return true
			}
		}
	}
	return false
}

// Package engineaffinity implements the simlint analyzer that enforces
// goroutine affinity for simulation state (DESIGN.md §16).
//
// A des.Engine, a policy instance, and the plain telemetry handles
// (DecisionLog, Recorder) are single-goroutine objects: the goroutine that constructs a cell owns them
// for the cell's whole life, and nothing else may call their methods. The
// sanctioned cross-goroutine views are the mediated APIs — des.Watch and
// telemetry.Live (seqlock), telemetry.SweepTracker and telemetry.Logger
// (mutex) — which exist precisely so observers never touch the affine
// objects.
//
// The analyzer inspects every function literal launched as a goroutine (a
// `go` statement or a Go/Submit worker-pool submission) and flags method
// calls on affine state that reaches the literal by capture: the call runs
// on a different goroutine than the one that constructed the receiver.
//
// Ops-plane readers that are safe for a documented reason (e.g. a server
// goroutine that only touches the engine after Run returned) annotate the
// call site:
//
//	//simlint:affinity-exempt -- <reason>
//
// A directive without a reason is itself a finding: every exemption must
// say why it is safe.
package engineaffinity

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer is the engineaffinity check.
var Analyzer = &framework.Analyzer{
	Name: "engineaffinity",
	Doc:  "require des.Engine, policy, and telemetry handle methods to be called only from the constructing goroutine; cross-goroutine reads go through des.Watch/telemetry.Live",
	Run:  run,
}

// affineTelemetry are the telemetry types whose methods are goroutine-affine.
var affineTelemetry = map[string]bool{
	"DecisionLog": true,
	"Recorder":    true,
}

// classify returns the affinity class of a receiver type: "affine" for
// single-goroutine simulation state, "mediated" for the sanctioned
// cross-goroutine views, "" for everything else.
func classify(t types.Type) (class string, display string) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", ""
	}
	name := obj.Name()
	switch {
	case framework.Mediated(obj):
		return "mediated", name
	case framework.PkgIs(obj.Pkg(), "des") && name == "Engine":
		return "affine", "des.Engine"
	case framework.PkgIs(obj.Pkg(), "telemetry") && affineTelemetry[name]:
		return "affine", "telemetry." + name
	case framework.PkgIs(obj.Pkg(), "policy"):
		return "affine", "policy." + name
	}
	return "", ""
}

// exemptions indexes //simlint:affinity-exempt directives: filename -> line
// -> true. A directive covers its own line and the next (trailing and
// standalone comment forms), mirroring //simlint:allow.
type exemptions map[string]map[int]bool

const directive = "//simlint:affinity-exempt"

func buildExemptions(pass *framework.Pass) exemptions {
	ex := make(exemptions)
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directive) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directive)
				reason := ""
				if i := strings.Index(rest, "--"); i >= 0 {
					reason = strings.TrimSpace(rest[i+2:])
				}
				pos := pass.Fset.Position(c.Slash)
				if reason == "" {
					pass.Reportf(c.Slash, "affinity-exempt directive without a reason; write //simlint:affinity-exempt -- <why this cross-goroutine access is safe>")
					continue
				}
				m := ex[pos.Filename]
				if m == nil {
					m = make(map[int]bool)
					ex[pos.Filename] = m
				}
				m[pos.Line] = true
				m[pos.Line+1] = true
			}
		}
	}
	return ex
}

func (ex exemptions) covers(pass *framework.Pass, pos ast.Node) bool {
	p := pass.Fset.Position(pos.Pos())
	return ex[p.Filename][p.Line]
}

func run(pass *framework.Pass) error {
	ex := buildExemptions(pass)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if lit := framework.GoroutineLit(n); lit != nil {
				checkLit(pass, ex, lit)
			}
			return true
		})
	}
	return nil
}

// checkLit flags affine method calls on captured receivers inside one
// goroutine literal.
func checkLit(pass *framework.Pass, ex exemptions, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection := pass.TypesInfo.Selections[sel]
		if selection == nil || selection.Kind() != types.MethodVal {
			return true
		}
		class, display := classify(selection.Recv())
		if class != "affine" {
			return true
		}
		root := framework.RootIdent(sel)
		if root == nil {
			return true
		}
		obj, isVar := pass.TypesInfo.Uses[root].(*types.Var)
		if !isVar || obj.IsField() {
			return true
		}
		// Receivers constructed inside the literal are this goroutine's own.
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true
		}
		if ex.covers(pass, call) {
			return true
		}
		pass.Reportf(call.Pos(), "cross-goroutine call to (%s).%s on captured %s; the receiver is goroutine-affine — read through des.Watch/telemetry.Live instead, or annotate //simlint:affinity-exempt -- <reason>", display, sel.Sel.Name, root.Name)
		return true
	})
}

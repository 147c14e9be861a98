// Package simlint assembles the repository's determinism and checkpoint
// analyzers into one suite and maps each analyzer onto the package scope
// where its contract applies. cmd/simlint and the self-check meta-test are
// both thin wrappers around Run, so the command line, CI, and the test
// enforce exactly the same contract.
//
// Scope model (see DESIGN.md §11 "Determinism contract"):
//
//   - detrand and maporder guard the deterministic simulation core — every
//     package whose computation feeds results that are diffed at zero
//     tolerance or checkpointed, plus telemetry (whose reads must be
//     observationally pure and whose artifacts are diffed).
//   - maporder additionally covers the artifact renderers (runstore,
//     experiment): map-ordered rendering makes "identical" runs diff.
//   - atomicwrite covers every package that writes run artifacts, plus all
//     commands.
//   - ckptcover is global: checkpoint directives can appear anywhere.
//
// Concurrency scope (see DESIGN.md §16 "Concurrency contract"):
//
//   - sharedcapture guards the packages that spawn per-cell goroutines
//     (experiment, cluster): closures launched there must not capture
//     mutable state shared across cells.
//   - engineaffinity covers every package that both holds engine/telemetry
//     handles and runs more than one goroutine (experiment, cluster, the
//     ops server, and the commands).
//   - hotalloc is global but acts only on functions annotated
//     //simlint:hotpath; its syntactic findings are validated against the
//     compiler's own escape analysis (-gcflags=-m=2) wherever a package
//     carries the annotation.
package simlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"repro/internal/analysis/atomicwrite"
	"repro/internal/analysis/ckptcover"
	"repro/internal/analysis/detrand"
	"repro/internal/analysis/engineaffinity"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/load"
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/sharedcapture"
)

// modulePath is the repository's module path (go.mod).
const modulePath = "repro"

// deterministicPkgs is the simulation core: wall-clock time, ambient
// entropy, and map-order effects are forbidden here.
var deterministicPkgs = []string{
	"internal/array",
	"internal/cluster",
	"internal/des",
	"internal/policy",
	"internal/faults",
	"internal/workload",
	"internal/diskmodel",
	"internal/thermal",
	"internal/stats",
	"internal/checkpoint",
	"internal/reliability",
	"internal/worth",
	"internal/telemetry",
}

// rendererPkgs produce artifacts that are diffed bit-for-bit across runs —
// or, for the ops server, a golden-tested exposition; map-ordered rendering
// would make identical state render differently.
var rendererPkgs = []string{
	"internal/runstore",
	"internal/experiment",
	"internal/opsserver",
}

// artifactPkgs write files a crash-recovery reader later trusts; they must
// write through internal/atomicio.
var artifactPkgs = []string{
	"internal/runstore",
	"internal/telemetry",
	"internal/checkpoint",
	"internal/experiment",
	"cmd",
}

// concurrencyPkgs spawn the per-cell goroutines of the parallel sweep
// runners; sharedcapture polices what their closures may capture.
var concurrencyPkgs = []string{
	"internal/experiment",
	"internal/cluster",
}

// affinityPkgs hold engine/telemetry handles while running more than one
// goroutine; engineaffinity confines affine state to its constructing
// goroutine there.
var affinityPkgs = []string{
	"internal/experiment",
	"internal/cluster",
	"internal/opsserver",
	"cmd",
}

// All returns every analyzer in the suite, for -list and documentation.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		detrand.Analyzer,
		maporder.Analyzer,
		ckptcover.Analyzer,
		atomicwrite.Analyzer,
		sharedcapture.Analyzer,
		engineaffinity.Analyzer,
		hotalloc.Analyzer,
	}
}

// inScope reports whether pkgPath falls under any of the module-relative
// prefixes.
func inScope(pkgPath string, prefixes []string) bool {
	for _, p := range prefixes {
		full := modulePath + "/" + p
		if pkgPath == full || strings.HasPrefix(pkgPath, full+"/") {
			return true
		}
	}
	return false
}

// AnalyzersFor returns the analyzers that apply to one package.
func AnalyzersFor(pkgPath string) []*framework.Analyzer {
	var as []*framework.Analyzer
	if inScope(pkgPath, deterministicPkgs) {
		as = append(as, detrand.Analyzer)
	}
	if inScope(pkgPath, deterministicPkgs) || inScope(pkgPath, rendererPkgs) {
		as = append(as, maporder.Analyzer)
	}
	if inScope(pkgPath, artifactPkgs) && pkgPath != modulePath+"/internal/atomicio" {
		as = append(as, atomicwrite.Analyzer)
	}
	if inScope(pkgPath, concurrencyPkgs) {
		as = append(as, sharedcapture.Analyzer)
	}
	if inScope(pkgPath, affinityPkgs) {
		as = append(as, engineaffinity.Analyzer)
	}
	// Global contracts. ckptcover only acts on declared directives, and
	// hotalloc acts only on //simlint:hotpath-annotated functions.
	as = append(as, ckptcover.Analyzer, hotalloc.Analyzer)
	return as
}

// hasHotpathDirective reports whether any file in the package annotates a
// function with //simlint:hotpath — only then is the compiler's escape
// analysis worth running for the package.
func hasHotpathDirective(files []*ast.File) bool {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "//simlint:hotpath") {
					return true
				}
			}
		}
	}
	return false
}

// Run loads the given patterns relative to dir and applies the suite,
// returning all surviving diagnostics sorted by position. Type errors in a
// matched package are returned as an error: a tree that does not compile
// must not pass lint.
func Run(dir string, patterns ...string) ([]framework.Diagnostic, *load.Loader, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader := load.NewLoader(dir)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, loader, err
	}
	var diags []framework.Diagnostic
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			return nil, loader, fmt.Errorf("simlint: %s does not type-check: %v", pkg.Path, pkg.TypeErrors[0])
		}
		if pkg.TypesInfo == nil {
			continue
		}
		// Escape data is only gathered for packages that annotate a hot
		// path: the extra compile is pointless elsewhere, and hotalloc
		// degrades to syntax-only checks without it.
		var esc *framework.EscapeIndex
		if hasHotpathDirective(pkg.Files) {
			out, err := load.EscapeOutput(dir, pkg.Path)
			if err != nil {
				return nil, loader, fmt.Errorf("simlint: escape analysis for %s: %w", pkg.Path, err)
			}
			esc = framework.ParseEscapes(out)
		}
		for _, a := range AnalyzersFor(pkg.Path) {
			ds, err := framework.RunWithEscapes(a, pkg.Fset, pkg.Files, pkg.Types, pkg.TypesInfo, esc)
			if err != nil {
				return nil, loader, fmt.Errorf("simlint: %s on %s: %w", a.Name, pkg.Path, err)
			}
			diags = append(diags, ds...)
		}
	}
	fset := loader.Fset()
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return Dedupe(diags, fset), loader, nil
}

// Dedupe collapses diagnostics that share analyzer, position, and message.
// Duplicates arise when a package is matched by more than one pattern or a
// file-level finding is reported per type instantiation; the suite's output
// is a set, not a multiset. The input must already be position-sorted.
func Dedupe(diags []framework.Diagnostic, fset *token.FileSet) []framework.Diagnostic {
	out := diags[:0]
	type key struct {
		analyzer, file, msg string
		line, col           int
	}
	seen := make(map[key]bool, len(diags))
	for _, d := range diags {
		p := fset.Position(d.Pos)
		k := key{d.Analyzer, p.Filename, d.Message, p.Line, p.Column}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, d)
	}
	return out
}

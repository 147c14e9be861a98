package simlint_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis/simlint"
)

// TestRepositoryIsClean is the meta-check: the committed tree must satisfy
// every contract the suite enforces. Any diagnostic here means either a real
// violation slipped in or an analyzer regressed into a false positive —
// both block the build, which is the point.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository; skipped with -short")
	}
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	diags, loader, err := simlint.Run(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		pos := loader.Fset().Position(d.Pos)
		t.Errorf("%s: %s [%s]", pos, d.Message, d.Analyzer)
	}
}

// TestScopeMapping pins the package-scope model documented in DESIGN.md §11:
// which analyzers run where.
func TestScopeMapping(t *testing.T) {
	has := func(pkg, analyzer string) bool {
		for _, a := range simlint.AnalyzersFor(pkg) {
			if a.Name == analyzer {
				return true
			}
		}
		return false
	}
	cases := []struct {
		pkg      string
		analyzer string
		want     bool
	}{
		// The simulation core gets the determinism analyzers.
		{"repro/internal/array", "detrand", true},
		{"repro/internal/array", "maporder", true},
		{"repro/internal/des", "detrand", true},
		{"repro/internal/telemetry", "detrand", true},
		// Renderers get maporder but not detrand.
		{"repro/internal/runstore", "maporder", true},
		{"repro/internal/runstore", "detrand", false},
		{"repro/internal/experiment", "maporder", true},
		// The ops server renders the golden-tested OpenMetrics exposition.
		{"repro/internal/opsserver", "maporder", true},
		{"repro/internal/opsserver", "detrand", false},
		// Artifact writers get atomicwrite; atomicio itself is exempt.
		{"repro/internal/runstore", "atomicwrite", true},
		{"repro/internal/checkpoint", "atomicwrite", true},
		{"repro/cmd/arraysim", "atomicwrite", true},
		{"repro/internal/atomicio", "atomicwrite", false},
		// Commands are not part of the deterministic core.
		{"repro/cmd/arraysim", "detrand", false},
		// ckptcover is global.
		{"repro/internal/analysis/load", "ckptcover", true},
		{"repro/examples/quickstart", "atomicwrite", false},
		// sharedcapture polices the goroutine-spawning sweep runners only.
		{"repro/internal/experiment", "sharedcapture", true},
		{"repro/internal/cluster", "sharedcapture", true},
		{"repro/internal/des", "sharedcapture", false},
		{"repro/internal/opsserver", "sharedcapture", false},
		// engineaffinity covers every multi-goroutine handle holder.
		{"repro/internal/experiment", "engineaffinity", true},
		{"repro/internal/cluster", "engineaffinity", true},
		{"repro/internal/opsserver", "engineaffinity", true},
		{"repro/cmd/experiments", "engineaffinity", true},
		{"repro/internal/des", "engineaffinity", false},
		// hotalloc is global; it acts only on annotated functions.
		{"repro/internal/des", "hotalloc", true},
		{"repro/internal/array", "hotalloc", true},
		{"repro/examples/quickstart", "hotalloc", true},
	}
	for _, c := range cases {
		if got := has(c.pkg, c.analyzer); got != c.want {
			t.Errorf("AnalyzersFor(%q) includes %s = %v, want %v", c.pkg, c.analyzer, got, c.want)
		}
	}
}

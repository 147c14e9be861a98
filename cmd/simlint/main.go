// Command simlint runs the repository's determinism, checkpoint, and
// concurrency analyzers (internal/analysis) over Go package patterns and
// prints any contract violations. It exits 0 on a clean tree, 1 when
// diagnostics were reported, and 2 on a load/run failure.
//
// Usage:
//
//	go run ./cmd/simlint ./...
//	go run ./cmd/simlint -list
//	go run ./cmd/simlint -json ./... > simlint.json
//
// The suite enforces the invariants DESIGN.md §11 and §16 document: no
// wall-clock or ambient entropy in simulation packages (detrand), no
// map-iteration order leaking into results (maporder), checkpoint records
// covering their state structs (ckptcover), artifact writes through
// internal/atomicio (atomicwrite), no shared mutable state captured by
// sweep goroutines (sharedcapture), engine/telemetry/policy methods
// confined to their constructing goroutine (engineaffinity), and
// allocation-free //simlint:hotpath functions (hotalloc). Violations are suppressed
// case-by-case with `//simlint:allow <analyzer> -- reason` comments, never
// by editing the suite's scope.
//
// Diagnostics are printed deduplicated and sorted by position, one per
// line; -json emits the same set as a JSON array for CI artifacts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis/simlint"
	"repro/internal/telemetry"
)

// jsonDiagnostic is the machine-readable form of one finding, stable for CI
// artifact consumers: positions are pre-split so nothing needs to re-parse
// the human-readable "file:line:col" form.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list the analyzers in the suite and exit")
	dir := flag.String("dir", ".", "module directory to resolve patterns in")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout (for CI artifacts)")
	verbose := flag.Bool("v", false, "verbose logging (include debug lines)")
	quiet := flag.Bool("quiet", false, "log errors only")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: simlint [-list] [-json] [-v] [-quiet] [-dir module] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	logg := telemetry.NewLogger("simlint", nil, telemetry.LevelFromFlags(*quiet, *verbose))

	if *list {
		for _, a := range simlint.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	diags, loader, err := simlint.Run(*dir, flag.Args()...)
	if err != nil {
		logg.Errorf("%v", err)
		os.Exit(2)
	}
	logg.Debugf("analyzed %s", *dir)
	if *jsonOut {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			pos := loader.Fset().Position(d.Pos)
			out = append(out, jsonDiagnostic{
				File:     pos.Filename,
				Line:     pos.Line,
				Column:   pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			logg.Errorf("%v", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			pos := loader.Fset().Position(d.Pos)
			fmt.Printf("%s: %s [%s]\n", pos, d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 {
		logg.Errorf("%d violation(s)", len(diags))
		os.Exit(1)
	}
}

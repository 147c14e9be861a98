package runstore

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// BaselineFile is the committed benchmark-trajectory format (BENCH_runs.json):
// one entry per named run condition, each pinning the summary metrics a fresh
// run of that condition must reproduce within tolerance. `arrayreport check`
// gates CI on it; `arrayreport baseline` regenerates it from a run store.
type BaselineFile struct {
	Schema int `json:"schema"`
	// Generated is an informational date stamp (not compared).
	Generated string `json:"generated,omitempty"`
	// Command records how to regenerate the runs this file pins.
	Command string `json:"command,omitempty"`
	// DefaultTolerance is the relative tolerance applied to metrics without
	// a per-run override.
	DefaultTolerance float64 `json:"default_tolerance"`
	// Runs are the pinned conditions, sorted by name.
	Runs []Baseline `json:"runs"`
}

// Baseline pins one run condition.
type Baseline struct {
	// Name matches Manifest.Name.
	Name string `json:"name"`
	// ConfigDigest is the canonical-config digest the metrics were recorded
	// under. A fresh run whose digest differs is config drift: its metrics
	// are still compared, but the drift is reported.
	ConfigDigest string `json:"config_digest,omitempty"`
	// Tolerances overrides the file's default tolerance per metric.
	Tolerances map[string]float64 `json:"tolerances,omitempty"`
	// Metrics is the pinned flattened summary.
	Metrics map[string]float64 `json:"metrics"`
}

// ReadBaselineFile loads and validates a BENCH_runs.json.
func ReadBaselineFile(path string) (*BaselineFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	var bf BaselineFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("runstore: parse %s: %w", path, err)
	}
	if bf.Schema != SchemaVersion {
		return nil, fmt.Errorf("runstore: %s has schema %d, want %d", path, bf.Schema, SchemaVersion)
	}
	return &bf, nil
}

// WriteBaselineFile writes bf as indented JSON.
func WriteBaselineFile(path string, bf *BaselineFile) error {
	return WriteJSONFile(path, bf)
}

// Find returns the baseline entry for a run name, or nil.
func (bf *BaselineFile) Find(name string) *Baseline {
	for i := range bf.Runs {
		if bf.Runs[i].Name == name {
			return &bf.Runs[i]
		}
	}
	return nil
}

// CheckResult is the outcome of gating one manifest against its baseline.
type CheckResult struct {
	Name string
	// Deltas is the per-metric comparison (baseline as side A).
	Deltas []Delta
	// ConfigDrift is set when the manifest's config digest differs from the
	// recorded one — the metrics may differ legitimately, but the committed
	// baseline no longer describes this configuration.
	ConfigDrift bool
}

// Breached reports whether any metric was out of tolerance.
func (c CheckResult) Breached() bool { return Breaches(c.Deltas) > 0 }

// Check gates a manifest against the baseline entry matching its run name.
// A missing entry is an error — a new condition must be added to the
// baseline file deliberately, not slip through unchecked.
func (bf *BaselineFile) Check(m *Manifest) (CheckResult, error) {
	b := bf.Find(m.Name)
	if b == nil {
		return CheckResult{}, fmt.Errorf("runstore: run %q has no baseline entry", m.Name)
	}
	tol := Tolerances{Default: bf.DefaultTolerance, PerMetric: b.Tolerances}
	return CheckResult{
		Name:        m.Name,
		Deltas:      DiffMetrics(b.Metrics, m.Summary.Metrics(), tol),
		ConfigDrift: b.ConfigDigest != "" && b.ConfigDigest != m.ConfigDigest,
	}, nil
}

// BaselineFromManifests seeds a baseline file from finished runs (sorted by
// name). generated and command are informational stamps.
func BaselineFromManifests(runs []*Manifest, defaultTol float64, generated, command string) *BaselineFile {
	bf := &BaselineFile{
		Schema:           SchemaVersion,
		Generated:        generated,
		Command:          command,
		DefaultTolerance: defaultTol,
	}
	for _, m := range runs {
		bf.Runs = append(bf.Runs, Baseline{
			Name:         m.Name,
			ConfigDigest: m.ConfigDigest,
			Metrics:      m.Summary.Metrics(),
		})
	}
	sort.Slice(bf.Runs, func(i, j int) bool { return bf.Runs[i].Name < bf.Runs[j].Name })
	return bf
}

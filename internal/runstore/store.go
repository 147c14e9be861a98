package runstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/atomicio"
)

// Store is a directory of run directories plus an index.json that lists them
// by ID and digest. The layout is flat: <root>/<name>-<digest12>/manifest.json
// with that run's telemetry artifacts as siblings of the manifest.
type Store struct {
	root string
}

// IndexEntry is one run in the store's index.json.
type IndexEntry struct {
	ID           string `json:"id"`
	Name         string `json:"name"`
	Tool         string `json:"tool"`
	ConfigDigest string `json:"config_digest"`
	CreatedAt    string `json:"created_at,omitempty"`
}

// indexName is the store-level listing file, regenerated on every Write.
const indexName = "index.json"

// Open opens (creating if needed) a run store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("runstore: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	return &Store{root: dir}, nil
}

// Root returns the store's root directory.
func (st *Store) Root() string { return st.root }

// RunDir returns the directory a manifest's run occupies (creating it), so a
// producer can write telemetry artifacts into it before committing the
// manifest with Write.
func (st *Store) RunDir(m *Manifest) (string, error) {
	dir := filepath.Join(st.root, m.ID())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("runstore: %w", err)
	}
	return dir, nil
}

// artifactNames are the telemetry files a run directory may carry; Write
// records the ones present in the manifest's Artifacts list.
var artifactNames = []string{"disks.csv", "disks.ndjson", "metrics.json", "trace.json"}

// Write commits m into its run directory (manifest.json, indented for
// reviewability), records which telemetry artifacts are present, and
// refreshes the store index.
func (st *Store) Write(m *Manifest) (string, error) {
	dir, err := st.RunDir(m)
	if err != nil {
		return "", err
	}
	m.Artifacts = m.Artifacts[:0]
	for _, name := range artifactNames {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			m.Artifacts = append(m.Artifacts, name)
		}
	}
	if err := WriteJSONFile(filepath.Join(dir, ManifestName), m); err != nil {
		return "", err
	}
	if err := st.writeIndex(); err != nil {
		return "", err
	}
	return dir, nil
}

// WriteJSONFile writes v as indented JSON via an atomic replace (temp file,
// fsync, rename), so a manifest, index or metrics.json killed mid-write
// never leaves a truncated file behind — readers see the old version or the
// new one.
func WriteJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("runstore: encode %s: %w", path, err)
	}
	if err := atomicio.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	return nil
}

func (st *Store) writeIndex() error {
	runs, err := st.List()
	if err != nil {
		return err
	}
	entries := make([]IndexEntry, 0, len(runs))
	for _, m := range runs {
		entries = append(entries, IndexEntry{
			ID:           m.ID(),
			Name:         m.Name,
			Tool:         m.Tool,
			ConfigDigest: m.ConfigDigest,
			CreatedAt:    m.CreatedAt,
		})
	}
	return WriteJSONFile(filepath.Join(st.root, indexName), struct {
		Schema int          `json:"schema"`
		Runs   []IndexEntry `json:"runs"`
	}{SchemaVersion, entries})
}

// List loads every manifest in the store, sorted by run ID. Problem
// directories are skipped; use ListChecked to learn about them.
func (st *Store) List() ([]*Manifest, error) {
	runs, _, err := st.ListChecked()
	return runs, err
}

// ListChecked loads every manifest in the store, sorted by run ID, and
// reports the directories it had to skip. A subdirectory with no
// manifest.json at all is skipped silently — it may be mid-write or foreign —
// but a manifest that exists and fails to parse (truncated, corrupt, wrong
// schema) produces a warning, so `arrayreport check` can fail loudly instead
// of a damaged run quietly vanishing from listings and diffs.
func (st *Store) ListChecked() (runs []*Manifest, warnings []string, err error) {
	entries, err := os.ReadDir(st.root)
	if err != nil {
		return nil, nil, fmt.Errorf("runstore: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(st.root, e.Name())
		if _, statErr := os.Stat(filepath.Join(dir, ManifestName)); os.IsNotExist(statErr) {
			continue
		}
		m, readErr := ReadManifest(dir)
		if readErr != nil {
			warnings = append(warnings, fmt.Sprintf("skipping %s: %v", e.Name(), readErr))
			continue
		}
		runs = append(runs, m)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].ID() < runs[j].ID() })
	return runs, warnings, nil
}

// Load resolves ref to one run: an exact run ID (directory name), an exact
// run name, or a unique prefix of a config digest. Ambiguous or unknown refs
// are errors that name the candidates.
func (st *Store) Load(ref string) (*Manifest, error) {
	runs, err := st.List()
	if err != nil {
		return nil, err
	}
	var matches []*Manifest
	for _, m := range runs {
		if m.ID() == ref || m.Name == ref ||
			(ref != "" && strings.HasPrefix(m.ConfigDigest, ref)) {
			matches = append(matches, m)
		}
	}
	switch len(matches) {
	case 1:
		return matches[0], nil
	case 0:
		return nil, fmt.Errorf("runstore: no run matches %q in %s (have %s)",
			ref, st.root, idList(runs))
	default:
		return nil, fmt.Errorf("runstore: ref %q is ambiguous in %s (matches %s)",
			ref, st.root, idList(matches))
	}
}

func idList(runs []*Manifest) string {
	if len(runs) == 0 {
		return "no runs"
	}
	ids := make([]string, len(runs))
	for i, m := range runs {
		ids[i] = m.ID()
	}
	return strings.Join(ids, ", ")
}

// ReadManifest loads a manifest from a run directory or a direct path to a
// manifest.json.
func ReadManifest(path string) (*Manifest, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	if fi.IsDir() {
		path = filepath.Join(path, ManifestName)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("runstore: parse %s: %w", path, err)
	}
	if m.Schema != SchemaVersion {
		return nil, fmt.Errorf("runstore: %s has schema %d, want %d", path, m.Schema, SchemaVersion)
	}
	return &m, nil
}

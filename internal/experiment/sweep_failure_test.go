package experiment

import (
	"testing"
)

// TestSweepManifestIDIsStable checks the resume-skip ID matches the ID the
// recorded manifest actually gets.
func TestSweepManifestIDIsStable(t *testing.T) {
	cfg := tinySweep()
	id, err := SweepManifestID("cond", cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := SweepManifest("cond", cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID() != id {
		t.Fatalf("SweepManifestID %q != recorded ID %q", id, m.ID())
	}
	if m.Status != string(CellOK) {
		t.Fatalf("clean sweep status = %q", m.Status)
	}
}

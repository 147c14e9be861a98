package experiment

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/reliability"
	"repro/internal/runstore"
)

func manifestSweep(t *testing.T, seed int64) (*runstore.Manifest, SweepConfig) {
	t.Helper()
	cfg := DefaultSweepConfig()
	cfg.DiskCounts = []int{4, 6}
	cfg.Policies = []PolicyKind{KindREAD, KindMAID}
	cfg.Scale = 0.002
	cfg.Workload.Seed = seed
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := SweepManifest("tiny", cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	return m, cfg
}

// Two sweeps of the identical configuration must agree bit-for-bit: same
// config digest, and zero delta on every metric under zero tolerance — the
// determinism gate `arrayreport diff` applies in CI.
func TestSweepManifestDeterminism(t *testing.T) {
	a, _ := manifestSweep(t, 1)
	b, _ := manifestSweep(t, 1)
	if a.ConfigDigest != b.ConfigDigest {
		t.Fatalf("same config, different digests:\n%s\n%s", a.ConfigDigest, b.ConfigDigest)
	}
	deltas := runstore.Diff(a.Summary, b.Summary, runstore.Tolerances{})
	if n := runstore.Breaches(deltas); n != 0 {
		t.Fatalf("same-seed sweeps differ in %d metric(s): %+v", n, deltas)
	}
	for _, d := range deltas {
		if d.Rel != 0 {
			t.Fatalf("metric %s has nonzero delta %g between identical runs", d.Metric, d.Rel)
		}
	}
}

// A perturbed configuration (different workload seed) must change the digest
// and breach the zero-tolerance diff — a regression cannot hide behind an
// unchanged run name.
func TestSweepManifestPerturbedSeedBreaches(t *testing.T) {
	a, _ := manifestSweep(t, 1)
	b, _ := manifestSweep(t, 2)
	if a.ConfigDigest == b.ConfigDigest {
		t.Fatal("different seeds produced the same config digest")
	}
	deltas := runstore.Diff(a.Summary, b.Summary, runstore.Tolerances{})
	if runstore.Breaches(deltas) == 0 {
		t.Fatal("perturbed seed produced zero metric deltas")
	}
}

// The manifest's Extra block carries one entry set per sweep cell, named
// cell.<policy>.<disks>.<metric>.
func TestSweepManifestCellMetrics(t *testing.T) {
	m, cfg := manifestSweep(t, 1)
	for _, p := range cfg.Policies {
		for _, n := range []string{"4", "6"} {
			key := "cell." + string(p) + "." + n + ".energy_j"
			v, ok := m.Summary.Extra[key]
			if !ok || v <= 0 {
				t.Errorf("missing or non-positive cell metric %s (%v)", key, v)
			}
		}
	}
	if m.Policy != "read+maid" {
		t.Errorf("policy list = %q", m.Policy)
	}
	if m.Seed != 1 {
		t.Errorf("seed = %d", m.Seed)
	}
	if !strings.Contains(m.Workload, "scale 0.002") {
		t.Errorf("workload description = %q", m.Workload)
	}
}

// Execution knobs must not leak into the digest: parallelism and progress
// sinks change neither results nor identity.
func TestSweepManifestDigestIgnoresExecutionKnobs(t *testing.T) {
	cfg := DefaultSweepConfig()
	cfg.DiskCounts = []int{4}
	cfg.Policies = []PolicyKind{KindREAD}
	cfg.Scale = 0.002
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := SweepManifest("knobs", cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.Parallelism = 1
	b, err := SweepManifest("knobs", cfg2, res)
	if err != nil {
		t.Fatal(err)
	}
	if a.ConfigDigest != b.ConfigDigest {
		t.Fatal("parallelism changed the config digest")
	}
}

// A PRESS override is a model, not data: it cannot be recorded in a
// config block, so a sweep that carries one cannot be recorded at all —
// neither as a manifest nor as a resume-skip ID.
func TestSweepManifestRefusesPressOverride(t *testing.T) {
	cfg := DefaultSweepConfig()
	cfg.Press = reliability.NewModel()
	if id, err := SweepManifestID("press", cfg); err == nil {
		t.Errorf("SweepManifestID accepted a PRESS override as %s", id)
	}
	if m, err := SweepManifest("press", cfg, &SweepResult{Config: cfg}); err == nil {
		t.Errorf("SweepManifest accepted a PRESS override as %s", m.ID())
	}
}

// TestManifestIDsGolden pins the run IDs the four recorded sweep
// conditions get at -scale 0.02 (as cmd/experiments builds them). An ID is
// the condition name plus a config digest prefix, so a change here means a
// digest moved: every recorded baseline and resume skip keyed on it breaks.
// Such a change belongs in a re-baseline of its own, never as a side effect.
func TestManifestIDsGolden(t *testing.T) {
	const scale = 0.02
	fig7, faults, raid, fleet := DefaultSweepConfig(), DefaultFaultSweepConfig(), DefaultRAIDLossSweepConfig(), DefaultFleetSweepConfig()
	fig7.Scale, faults.Scale, raid.Scale, fleet.Scale = scale, scale, scale, scale
	for _, tc := range []struct {
		name, want string
		id         func(string) (string, error)
	}{
		{"fig7-light", "fig7-light-a7c51ead1313", func(n string) (string, error) { return SweepManifestID(n, fig7) }},
		{"faults-light", "faults-light-97ec376d7e83", func(n string) (string, error) { return SweepManifestID(n, faults) }},
		{"raidloss-light", "raidloss-light-4412b4c15ee1", func(n string) (string, error) { return SweepManifestID(n, raid) }},
		{"fleet-light", "fleet-light-fbc6a732e585", func(n string) (string, error) { return FleetManifestID(n, fleet) }},
	} {
		got, err := tc.id(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s recorded as %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestManifestConfigRoundTrip decodes each recorded condition's config
// block back into its sweep config and requires the same run ID: the
// recorded block is the sweep's own configuration, so a manifest is enough
// to rerun (or resume) the condition it names.
func TestManifestConfigRoundTrip(t *testing.T) {
	const scale = 0.02
	fig7, faults, raid, fleet := DefaultSweepConfig(), DefaultFaultSweepConfig(), DefaultRAIDLossSweepConfig(), DefaultFleetSweepConfig()
	fig7.Scale, faults.Scale, raid.Scale, fleet.Scale = scale, scale, scale, scale
	// sameID decodes m's config block into back, then requires id (which
	// reads back) to name m.
	sameID := func(m *runstore.Manifest, err error, back any, id func() (string, error)) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(m.Config, back); err != nil {
			t.Fatal(err)
		}
		got, err := id()
		if err != nil {
			t.Fatal(err)
		}
		if got != m.ID() {
			t.Errorf("decoded config recorded as %s, manifest is %s\nconfig: %s", got, m.ID(), m.Config)
		}
	}
	for _, tc := range []struct {
		name string
		cfg  SweepConfig
	}{{"fig7-light", fig7}, {"faults-light", faults}, {"raidloss-light", raid}} {
		m, err := SweepManifest(tc.name, tc.cfg, &SweepResult{})
		var back SweepConfig
		sameID(m, err, &back, func() (string, error) { return SweepManifestID(tc.name, back) })
	}
	m, err := FleetManifest("fleet-light", fleet, &FleetSweepResult{})
	var back FleetSweepConfig
	sameID(m, err, &back, func() (string, error) { return FleetManifestID("fleet-light", back) })
}

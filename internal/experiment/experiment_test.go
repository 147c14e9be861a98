package experiment

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/reliability"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// tinySweep returns a fast two-point sweep config for tests.
func tinySweep() SweepConfig {
	cfg := DefaultSweepConfig()
	cfg.Scale = 0.004 // ~6k requests
	cfg.DiskCounts = []int{4, 6}
	return cfg
}

func TestNewPolicyAllKinds(t *testing.T) {
	for _, k := range []PolicyKind{KindREAD, KindMAID, KindPDC, KindAlwaysOn, KindDRPM} {
		p, err := NewPolicy(k)
		if err != nil {
			t.Errorf("%s: %v", k, err)
			continue
		}
		if p.Name() == "" {
			t.Errorf("%s: empty name", k)
		}
	}
	if _, err := NewPolicy("bogus"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestSweepConfigValidate(t *testing.T) {
	cfg := tinySweep()
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := cfg
	bad.Scale = 0
	if bad.Validate() == nil {
		t.Error("zero scale accepted")
	}
	bad = cfg
	bad.Scale = 2
	if bad.Validate() == nil {
		t.Error("scale above 1 accepted")
	}
	bad = cfg
	bad.Intensity = -1
	if bad.Validate() == nil {
		t.Error("negative intensity accepted")
	}
	bad = cfg
	bad.DiskCounts = []int{1}
	if bad.Validate() == nil {
		t.Error("single-disk sweep accepted")
	}
	bad = cfg
	bad.Policies = []PolicyKind{"nope"}
	if bad.Validate() == nil {
		t.Error("unknown policy accepted")
	}
}

func TestRunSweepProducesFullGrid(t *testing.T) {
	res, err := RunSweep(tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	want := len(res.Config.DiskCounts) * len(res.Config.Policies)
	if len(res.Cells) != want {
		t.Fatalf("cells = %d, want %d", len(res.Cells), want)
	}
	for _, c := range res.Cells {
		if c.Result == nil {
			t.Fatalf("cell %d/%s has nil result", c.Disks, c.Policy)
		}
		if c.Result.Requests == 0 {
			t.Fatalf("cell %d/%s served no requests", c.Disks, c.Policy)
		}
	}
}

// The ops-plane tracker is observation-only: a tracked sweep produces the
// same grid, every cell ends done, per-cell perf samples are recorded, and
// the manifest carries them in its perf section without touching Summary.
func TestRunSweepWithTrackerRecordsLifecycleAndPerf(t *testing.T) {
	cfg := tinySweep()
	track := telemetry.NewSweepTracker(cfg.CellKeys(), cfg.Parallelism)
	cfg.Track = track
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := track.Snapshot()
	if snap.Total != len(res.Cells) || snap.Done != len(res.Cells) {
		t.Fatalf("tracker sees %d/%d done, want %d/%d", snap.Done, snap.Total, len(res.Cells), len(res.Cells))
	}
	if snap.ETASeconds != 0 {
		t.Errorf("finished sweep ETA = %v, want 0", snap.ETASeconds)
	}
	for _, c := range res.Cells {
		if c.Perf == nil {
			t.Fatalf("cell %s has no perf sample", c.Key())
		}
		if c.Perf.Events != float64(c.Result.EventsFired) {
			t.Errorf("cell %s perf events %v != result events %d", c.Key(), c.Perf.Events, c.Result.EventsFired)
		}
		if c.Perf.WallSeconds <= 0 {
			t.Errorf("cell %s perf wall %v", c.Key(), c.Perf.WallSeconds)
		}
	}

	m, err := SweepManifest("track-test", cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	if m.Perf == nil || len(m.Perf.Cells) != len(res.Cells) {
		t.Fatalf("manifest perf cells = %v, want %d entries", m.Perf, len(res.Cells))
	}
	for _, c := range res.Cells {
		if _, ok := m.Perf.Cells[c.Key()]; !ok {
			t.Errorf("manifest perf missing cell %s", c.Key())
		}
	}
	// Perf must not leak into the diffed metric set.
	for k := range m.Summary.Metrics() {
		if strings.Contains(k, "wall") || strings.Contains(k, "alloc") || strings.Contains(k, "gc_") {
			t.Errorf("perf-looking metric %q in diffed summary", k)
		}
	}
}

func TestSweepSeriesAndImprovements(t *testing.T) {
	res, err := RunSweep(tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Metric{MetricAFR, MetricEnergy, MetricResponse} {
		series, disks, err := res.Series(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(disks) != 2 || disks[0] != 4 || disks[1] != 6 {
			t.Fatalf("disks axis = %v", disks)
		}
		for p, vals := range series {
			for i, v := range vals {
				if v <= 0 {
					t.Errorf("%s/%s at %d disks: value %v", p, m, disks[i], v)
				}
			}
		}
	}
	imp, err := res.ImprovementOver(MetricAFR, KindREAD, KindPDC)
	if err != nil {
		t.Fatal(err)
	}
	if imp.Base != KindREAD || imp.Other != KindPDC {
		t.Fatal("improvement labels wrong")
	}
	if _, err := res.ImprovementOver(MetricAFR, "nope", KindPDC); err == nil {
		t.Fatal("unknown base accepted")
	}
	if _, err := res.ImprovementOver("bogus", KindREAD, KindPDC); err == nil {
		t.Fatal("unknown metric accepted")
	}
}

func TestMetricValue(t *testing.T) {
	res, err := RunSweep(tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	r := res.Cells[0].Result
	if v, err := MetricAFR.Value(r); err != nil || v != r.ArrayAFR {
		t.Fatal("MetricAFR mismatch")
	}
	if v, err := MetricEnergy.Value(r); err != nil || v != r.EnergyJ {
		t.Fatal("MetricEnergy mismatch")
	}
	if v, err := MetricResponse.Value(r); err != nil || v != r.MeanResponse {
		t.Fatal("MetricResponse mismatch")
	}
}

func TestReliabilityFunctionFigures(t *testing.T) {
	m := reliability.NewModel()
	f2, err := Fig2bTemperatureFunction(m, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(f2) != 7 || f2[0].X != 20 || f2[6].X != 50 {
		t.Fatalf("Fig2b axis wrong: %+v", f2)
	}
	f3, err := Fig3bUtilizationFunction(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if f3[0].X != 0.25 || f3[3].X != 1.0 {
		t.Fatalf("Fig3b axis wrong: %+v", f3)
	}
	f4, err := Fig4bFrequencyFunction(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	if f4[4].X != 1600 {
		t.Fatalf("Fig4b axis wrong: %+v", f4)
	}
	f4a, err := Fig4aIDEMAAdder(m, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f4 {
		if math.Abs(f4a[i].AFR-2*f4[i].AFR) > 1e-12 {
			t.Fatalf("Fig4a is not double Fig4b at %v", f4[i].X)
		}
	}
	if _, err := Fig2bTemperatureFunction(m, 1); err == nil {
		t.Fatal("degenerate sampling accepted")
	}
}

func TestFig5Surfaces(t *testing.T) {
	m := reliability.NewModel()
	a, b, err := Fig5Surfaces(m, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("surface sizes %d, %d", len(a), len(b))
	}
	for i := range a {
		if b[i].AFR <= a[i].AFR {
			t.Fatal("50C surface not above 40C surface")
		}
	}
}

func TestDerivationConstants(t *testing.T) {
	d := DerivationConstants()
	if math.Abs(d.DailyBudget5yr-65) > 2 {
		t.Fatalf("daily budget = %v", d.DailyBudget5yr)
	}
}

func TestRenderers(t *testing.T) {
	res, err := RunSweep(tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderSweepTable(&buf, res, MetricAFR, "Fig 7a"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Fig 7a") || !strings.Contains(out, "read") {
		t.Fatalf("table missing content:\n%s", out)
	}
	buf.Reset()
	if err := RenderSweepTable(&buf, res, MetricEnergy, "e"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "kJ") && !strings.Contains(buf.String(), "MJ") {
		t.Fatal("energy units missing")
	}
	buf.Reset()
	if err := RenderImprovements(&buf, res, MetricAFR, KindREAD); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "read vs") {
		t.Fatal("improvements missing")
	}
	buf.Reset()
	pts, _ := Fig2bTemperatureFunction(reliability.NewModel(), 4)
	RenderFunctionTable(&buf, pts, "tempC", "Fig 2b")
	if !strings.Contains(buf.String(), "tempC") {
		t.Fatal("function table missing header")
	}
	buf.Reset()
	sp, _, err := Fig5Surfaces(reliability.NewModel(), 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	RenderSurfaceTable(&buf, sp, "Fig 5a")
	if !strings.Contains(buf.String(), "util\\freq") {
		t.Fatal("surface table missing header")
	}
	buf.Reset()
	RenderDerivation(&buf, DerivationConstants())
	if !strings.Contains(buf.String(), "118529") {
		t.Fatal("derivation table missing paper constant")
	}
}

func TestCSVWriters(t *testing.T) {
	res, err := RunSweep(tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSweepCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(res.Cells) {
		t.Fatalf("CSV rows = %d, want %d", len(lines), 1+len(res.Cells))
	}
	if !strings.HasPrefix(lines[0], "disks,policy") {
		t.Fatalf("CSV header: %s", lines[0])
	}
	buf.Reset()
	pts, _ := Fig4bFrequencyFunction(reliability.NewModel(), 3)
	if err := WriteFunctionCSV(&buf, pts, "freq"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "freq,afr_percent") {
		t.Fatal("function CSV header wrong")
	}
}

func TestSweepDeterminism(t *testing.T) {
	a, err := RunSweep(tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSweep(tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cells {
		ra, rb := a.Cells[i].Result, b.Cells[i].Result
		if ra.ArrayAFR != rb.ArrayAFR || ra.EnergyJ != rb.EnergyJ || ra.MeanResponse != rb.MeanResponse {
			t.Fatalf("cell %d differs across identical sweeps", i)
		}
	}
}

// TestPaperShapeCriteria is the executable statement of the reproduction
// targets: on the light-workload sweep READ must win all three metrics on
// average, with AFR improvements in the paper's tens-of-percent range.
func TestPaperShapeCriteria(t *testing.T) {
	if testing.Short() {
		t.Skip("shape criteria sweep in -short mode")
	}
	cfg := DefaultSweepConfig()
	cfg.Scale = 0.02
	cfg.DiskCounts = []int{6, 10, 16}
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Metric{MetricAFR, MetricEnergy, MetricResponse} {
		for _, other := range []PolicyKind{KindMAID, KindPDC} {
			imp, err := res.ImprovementOver(m, KindREAD, other)
			if err != nil {
				t.Fatal(err)
			}
			if imp.MeanPercent <= 0 {
				t.Errorf("READ does not beat %s on %s (mean %.1f%%)", other, m, imp.MeanPercent)
			}
		}
	}
	afrMAID, _ := res.ImprovementOver(MetricAFR, KindREAD, KindMAID)
	afrPDC, _ := res.ImprovementOver(MetricAFR, KindREAD, KindPDC)
	if afrMAID.MeanPercent < 10 || afrMAID.MeanPercent > 60 {
		t.Errorf("READ vs MAID AFR improvement %.1f%% outside the paper's band", afrMAID.MeanPercent)
	}
	if afrPDC.MeanPercent < 10 || afrPDC.MeanPercent > 70 {
		t.Errorf("READ vs PDC AFR improvement %.1f%% outside the paper's band", afrPDC.MeanPercent)
	}
}

func TestScaledPhasePreservation(t *testing.T) {
	// RunSweep at reduced scale must still produce multiple popularity
	// phases; this is a regression guard for scale-invariant churn.
	cfg := tinySweep()
	wl := cfg.Workload
	if wl.PhaseSeconds == 0 {
		t.Skip("no churn configured")
	}
	scaled, err := wl.Scaled(cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	scaled.PhaseSeconds = wl.PhaseSeconds * cfg.Scale
	duration := float64(scaled.NumRequests) * scaled.MeanInterarrival
	phases := duration / scaled.PhaseSeconds
	wantPhases := float64(workload.DefaultGenConfig().NumRequests) * wl.MeanInterarrival / wl.PhaseSeconds
	if math.Abs(phases-wantPhases) > 1 {
		t.Fatalf("scaled run has %.1f phases, full run %.1f", phases, wantPhases)
	}
}

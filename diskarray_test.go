package diskarray

import (
	"math"
	"strings"
	"testing"
)

// The facade tests exercise the public API end to end, the way a downstream
// user would.

func TestFacadeQuickstartFlow(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.NumRequests = 5000
	trace, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(SimConfig{
		Disks:        8,
		Trace:        trace,
		Policy:       NewREAD(READConfig{}),
		EpochSeconds: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 5000 {
		t.Fatalf("served %d", res.Requests)
	}
	if res.ArrayAFR <= 0 || res.EnergyJ <= 0 || res.MeanResponse <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if len(res.PerDisk) != 8 {
		t.Fatalf("per-disk results: %d", len(res.PerDisk))
	}
}

func TestFacadePRESS(t *testing.T) {
	m := NewPRESS()
	afr, err := m.DiskAFR(Factors{TempC: 50, Utilization: 0.8, TransitionsPerDay: 100})
	if err != nil {
		t.Fatal(err)
	}
	if afr <= 0 {
		t.Fatalf("AFR = %v", afr)
	}
	arr, err := m.ArrayAFR([]Factors{
		{TempC: 40, Utilization: 0.3},
		{TempC: 50, Utilization: 0.9, TransitionsPerDay: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	if arr <= afr/2 {
		t.Fatalf("array AFR %v implausible", arr)
	}
	custom := NewPRESS(WithIntegrationMode(MaxFactor))
	if custom.Mode() != MaxFactor {
		t.Fatal("integration mode option ignored")
	}
}

func TestFacadeDerivation(t *testing.T) {
	d := DefaultCoffinManson().Derive()
	if math.Abs(d.DailyBudget5yr-65) > 2 {
		t.Fatalf("daily budget %v, want ≈65", d.DailyBudget5yr)
	}
	if d.TransitionsToFailure < 110000 || d.TransitionsToFailure > 130000 {
		t.Fatalf("N'f = %v, want ≈118529", d.TransitionsToFailure)
	}
}

func TestFacadeDiskAndThermalDefaults(t *testing.T) {
	p := DefaultDiskParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.TransferRate(Low) >= p.TransferRate(High) {
		t.Fatal("speed ordering broken")
	}
	th := DefaultThermalModel()
	if th.Steady(Low) != 40 || th.Steady(High) != 50 {
		t.Fatal("thermal operating points wrong")
	}
}

func TestFacadeAllPoliciesRun(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.NumRequests = 3000
	trace, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	policies := []Policy{
		NewREAD(READConfig{}),
		NewMAID(MAIDConfig{}),
		NewPDC(PDCConfig{}),
		NewAlwaysOn(),
		NewDRPM(DRPMConfig{}),
	}
	for _, p := range policies {
		res, err := Simulate(SimConfig{Disks: 6, Trace: trace, Policy: p, EpochSeconds: 20})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.Requests != 3000 {
			t.Fatalf("%s served %d", p.Name(), res.Requests)
		}
	}
}

func TestFacadeSweep(t *testing.T) {
	cfg := DefaultSweepConfig()
	cfg.Scale = 0.002
	cfg.DiskCounts = []int{4, 6}
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	if _, err := res.ImprovementOver(MetricAFR, KindREAD, KindMAID); err != nil {
		t.Fatal(err)
	}
	if _, err := res.ImprovementOver(MetricEnergy, KindREAD, KindPDC); err != nil {
		t.Fatal(err)
	}
	if _, err := res.ImprovementOver(MetricResponse, KindREAD, KindPDC); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeIntensityConstants(t *testing.T) {
	if LightIntensity >= HeavyIntensity {
		t.Fatal("light intensity must be below heavy")
	}
}

func TestFacadeExtensions(t *testing.T) {
	// Drive profiles and seek model.
	for _, p := range []DiskParams{EnterpriseParams(), NearlineParams()} {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	sm := DefaultSeekModel()
	if !sm.Enabled() || sm.Time(sm.Cylinders-1) <= sm.Time(1) {
		t.Fatal("seek model misbehaves via facade")
	}
	// Weibull baseline.
	w := DefaultWeibull()
	afr, err := w.AFRPercent(1)
	if err != nil || afr <= 0 {
		t.Fatalf("Weibull AFR: %v, %v", afr, err)
	}
	// Cost model.
	if err := DefaultCostModel().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeTimelineAndStriping(t *testing.T) {
	cfg := DefaultGenConfig()
	cfg.NumRequests = 2000
	trace, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &TelemetryRecorder{}
	if _, err := Simulate(SimConfig{
		Disks: 4, Trace: trace, Policy: NewAlwaysOn(), EpochSeconds: 10, Telemetry: rec,
	}); err != nil {
		t.Fatal(err)
	}
	if len(rec.Timeline()) == 0 {
		t.Fatal("no timeline samples via facade")
	}
	var sb strings.Builder
	RenderTimeline(&sb, rec.Timeline(), 8)
	if !strings.Contains(sb.String(), "power(W)") {
		t.Fatal("timeline render missing header")
	}
	// Striping + replication policies construct and run via the facade.
	striped, err := Simulate(SimConfig{
		Disks: 4, Trace: trace, Policy: NewStripedAlwaysOn(StripedConfig{}),
	})
	if err != nil || striped.Requests != 2000 {
		t.Fatalf("striped run: %v", err)
	}
	rep, err := Simulate(SimConfig{
		Disks: 4, Trace: trace, Policy: NewREADReplica(READReplicaConfig{}), EpochSeconds: 20,
	})
	if err != nil || rep.Requests != 2000 {
		t.Fatalf("replica run: %v", err)
	}
}

func TestFacadeCommonLog(t *testing.T) {
	log := `h - - [02/May/1998:21:30:17 +0000] "GET /a HTTP/1.0" 200 100
h - - [02/May/1998:21:30:19 +0000] "GET /b HTTP/1.0" 200 2048
`
	tr, skipped, err := ParseCommonLog(strings.NewReader(log))
	if err != nil || skipped != 0 {
		t.Fatalf("ParseCommonLog: %v, skipped %d", err, skipped)
	}
	if len(tr.Files) != 2 || len(tr.Requests) != 2 {
		t.Fatalf("converted: %d files, %d requests", len(tr.Files), len(tr.Requests))
	}
}

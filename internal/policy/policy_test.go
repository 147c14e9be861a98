package policy

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/array"
	"repro/internal/diskmodel"
	"repro/internal/workload"
)

func genTrace(t *testing.T, files, requests int, interarrival, alpha float64) *workload.Trace {
	t.Helper()
	cfg := workload.DefaultGenConfig()
	cfg.NumFiles = files
	cfg.NumRequests = requests
	cfg.MeanInterarrival = interarrival
	cfg.ZipfAlpha = alpha
	tr, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func run(t *testing.T, cfg array.Config) *array.Result {
	t.Helper()
	res, err := array.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.Policy.Name(), err)
	}
	return res
}

func TestAlwaysOnNeverTransitions(t *testing.T) {
	tr := genTrace(t, 100, 5000, 0.01, 0.8)
	res := run(t, array.Config{Disks: 6, Trace: tr, Policy: NewAlwaysOn()})
	for _, d := range res.PerDisk {
		if d.Transitions != 0 {
			t.Fatalf("disk %d transitioned %d times", d.ID, d.Transitions)
		}
		if d.FinalSpeed != diskmodel.High {
			t.Fatalf("disk %d not at high speed", d.ID)
		}
	}
	if res.Requests != 5000 {
		t.Fatalf("served %d", res.Requests)
	}
}

func TestAlwaysOnBalancesLoad(t *testing.T) {
	tr := genTrace(t, 200, 20000, 0.005, 0.8)
	res := run(t, array.Config{Disks: 4, Trace: tr, Policy: NewAlwaysOn()})
	var lo, hi float64 = math.Inf(1), 0
	for _, d := range res.PerDisk {
		b := d.BusyTime
		if b < lo {
			lo = b
		}
		if b > hi {
			hi = b
		}
	}
	if lo <= 0 {
		t.Fatal("an always-on disk did no work")
	}
	if hi/lo > 3 {
		t.Fatalf("load imbalance %vx despite LPT placement", hi/lo)
	}
}

func TestMAIDCacheMechanics(t *testing.T) {
	// Repeatedly hit a small set of files: first access misses, the rest
	// hit the cache disk.
	files := workload.FileSet{
		{ID: 0, SizeMB: 1, AccessRate: 1},
		{ID: 1, SizeMB: 1, AccessRate: 1},
	}
	var reqs []workload.Request
	for i := 0; i < 40; i++ {
		reqs = append(reqs, workload.Request{Arrival: float64(i) * 2, FileID: i % 2})
	}
	tr := &workload.Trace{Files: files, Requests: reqs}
	m := NewMAID(MAIDConfig{CacheDisks: 1, CacheCapacityMB: 10})
	res := run(t, array.Config{Disks: 3, Trace: tr, Policy: m})
	if m.Misses() != 2 {
		t.Fatalf("misses = %d, want 2 (one per file)", m.Misses())
	}
	if m.Hits() != 38 {
		t.Fatalf("hits = %d, want 38", m.Hits())
	}
	if m.Copies() != 2 {
		t.Fatalf("copies = %d, want 2", m.Copies())
	}
	// Cache disk (0) served the hits.
	if res.PerDisk[0].RequestsServed < 38 {
		t.Fatalf("cache disk served %d", res.PerDisk[0].RequestsServed)
	}
	// Cache disk never transitions.
	if res.PerDisk[0].Transitions != 0 {
		t.Fatal("cache disk transitioned")
	}
}

func TestMAIDStorageDisksSpinDown(t *testing.T) {
	// One early burst, then silence long enough for storage disks to pass
	// their idleness threshold.
	files := workload.FileSet{{ID: 0, SizeMB: 1, AccessRate: 1}}
	reqs := []workload.Request{
		{Arrival: 1, FileID: 0},
		{Arrival: 500, FileID: 0}, // cache hit; storage disks stay asleep
	}
	tr := &workload.Trace{Files: files, Requests: reqs}
	m := NewMAID(MAIDConfig{CacheDisks: 1, IdleThreshold: 50})
	res := run(t, array.Config{Disks: 3, Trace: tr, Policy: m})
	spunDown := 0
	for _, d := range res.PerDisk[1:] {
		if d.Transitions > 0 && d.FinalSpeed == diskmodel.Low {
			spunDown++
		}
	}
	if spunDown == 0 {
		t.Fatal("no storage disk spun down")
	}
}

func TestMAIDEvictionUnderTinyCache(t *testing.T) {
	// Cache holds ~1 file; alternating requests force evictions but the
	// policy must stay correct (every request served).
	files := workload.FileSet{
		{ID: 0, SizeMB: 1, AccessRate: 1},
		{ID: 1, SizeMB: 1, AccessRate: 1},
		{ID: 2, SizeMB: 1, AccessRate: 1},
	}
	var reqs []workload.Request
	for i := 0; i < 60; i++ {
		reqs = append(reqs, workload.Request{Arrival: float64(i), FileID: i % 3})
	}
	tr := &workload.Trace{Files: files, Requests: reqs}
	m := NewMAID(MAIDConfig{CacheDisks: 1, CacheCapacityMB: 1.5})
	res := run(t, array.Config{Disks: 3, Trace: tr, Policy: m})
	if res.Requests != 60 {
		t.Fatalf("served %d, want 60", res.Requests)
	}
	if m.Copies() <= 3 {
		t.Fatalf("copies = %d, want churn from evictions", m.Copies())
	}
}

func TestMAIDUncacheableFile(t *testing.T) {
	// A file larger than the cache capacity must bypass admission.
	files := workload.FileSet{{ID: 0, SizeMB: 10, AccessRate: 1}}
	var reqs []workload.Request
	for i := 0; i < 5; i++ {
		reqs = append(reqs, workload.Request{Arrival: float64(i * 30), FileID: 0})
	}
	tr := &workload.Trace{Files: files, Requests: reqs}
	m := NewMAID(MAIDConfig{CacheDisks: 1, CacheCapacityMB: 5})
	run(t, array.Config{Disks: 2, Trace: tr, Policy: m})
	if m.Copies() != 0 {
		t.Fatalf("uncacheable file copied %d times", m.Copies())
	}
	if m.Hits() != 0 {
		t.Fatal("phantom cache hits")
	}
}

func TestMAIDRejectsAllCacheArray(t *testing.T) {
	tr := genTrace(t, 10, 10, 0.1, 0.5)
	_, err := array.Run(array.Config{Disks: 2, Trace: tr, Policy: NewMAID(MAIDConfig{CacheDisks: 2})})
	if err == nil {
		t.Fatal("MAID with no storage disks accepted")
	}
}

func TestPDCConcentratesLoad(t *testing.T) {
	tr := genTrace(t, 300, 20000, 0.005, 0.9)
	res := run(t, array.Config{Disks: 6, Trace: tr, Policy: NewPDC(PDCConfig{}), EpochSeconds: 30})
	// Disk 0 must be the busiest; the last disk nearly idle.
	if res.PerDisk[0].BusyTime <= res.PerDisk[5].BusyTime {
		t.Fatalf("no concentration: disk0 busy %v vs disk5 %v",
			res.PerDisk[0].BusyTime, res.PerDisk[5].BusyTime)
	}
	if res.PerDisk[0].Utilization < 1.5*res.PerDisk[5].Utilization {
		t.Fatalf("weak skew: %v vs %v", res.PerDisk[0].Utilization, res.PerDisk[5].Utilization)
	}
}

func TestPDCTailDisksSpinDown(t *testing.T) {
	files := workload.FileSet{
		{ID: 0, SizeMB: 0.01, AccessRate: 10}, // hot
		{ID: 1, SizeMB: 0.01, AccessRate: 0.001},
	}
	var reqs []workload.Request
	for i := 0; i < 2000; i++ {
		reqs = append(reqs, workload.Request{Arrival: float64(i) * 0.1, FileID: 0})
	}
	tr := &workload.Trace{Files: files, Requests: reqs}
	res := run(t, array.Config{Disks: 3, Trace: tr, Policy: NewPDC(PDCConfig{IdleThreshold: 40})})
	// The unaccessed tail disks must be at low speed by the end.
	low := 0
	for _, d := range res.PerDisk[1:] {
		if d.FinalSpeed == diskmodel.Low {
			low++
		}
	}
	if low == 0 {
		t.Fatal("no tail disk at low speed")
	}
}

func TestPDCSpinsUpUnderQueueing(t *testing.T) {
	// A burst against a spun-down disk must trigger a spin-up once the
	// queue passes the threshold.
	files := workload.FileSet{{ID: 0, SizeMB: 2, AccessRate: 0.001}}
	var reqs []workload.Request
	// Long silence to let the disk sink, then a dense burst.
	for i := 0; i < 50; i++ {
		reqs = append(reqs, workload.Request{Arrival: 200 + float64(i)*0.01, FileID: 0})
	}
	tr := &workload.Trace{Files: files, Requests: reqs}
	res := run(t, array.Config{Disks: 2, Trace: tr, Policy: NewPDC(PDCConfig{IdleThreshold: 30, SpinUpQueue: 2})})
	if res.PerDisk[0].Transitions < 2 {
		t.Fatalf("disk 0 transitions = %d, want down+up", res.PerDisk[0].Transitions)
	}
	if res.PerDisk[0].FinalSpeed != diskmodel.High {
		t.Fatal("disk 0 not spun up by burst")
	}
}

func TestPDCEpochMigration(t *testing.T) {
	// File 1 becomes hot after t=100; PDC must migrate it toward disk 0.
	files := workload.FileSet{
		{ID: 0, SizeMB: 0.01, AccessRate: 5},
		{ID: 1, SizeMB: 0.01, AccessRate: 0.0001},
	}
	var reqs []workload.Request
	for i := 0; i < 500; i++ {
		reqs = append(reqs, workload.Request{Arrival: float64(i) * 0.2, FileID: 0})
	}
	for i := 0; i < 3000; i++ {
		reqs = append(reqs, workload.Request{Arrival: 100 + float64(i)*0.05, FileID: 1})
	}
	tr := &workload.Trace{Files: files, Requests: reqs}
	p := NewPDC(PDCConfig{LoadFraction: 0.0001}) // force separate disks
	run(t, array.Config{Disks: 3, Trace: tr, Policy: p, EpochSeconds: 50})
	if p.MigrationsRequested() == 0 {
		t.Fatal("PDC never migrated despite popularity flip")
	}
}

func TestREADZonesAndPlacement(t *testing.T) {
	tr := genTrace(t, 200, 1000, 0.05, 0.8)
	r := NewREAD(READConfig{})
	res := run(t, array.Config{Disks: 8, Trace: tr, Policy: r})
	hd := r.HotDisks()
	if hd < 1 || hd > 7 {
		t.Fatalf("hot disks = %d", hd)
	}
	if r.Theta() <= 0 || r.Theta() >= 1 {
		t.Fatalf("theta = %v", r.Theta())
	}
	// Cold zone ends at low speed (it started there and nothing forced it
	// up); the hot zone handled nearly all traffic.
	var hotReqs, coldReqs int
	for i, d := range res.PerDisk {
		if i < hd {
			hotReqs += d.RequestsServed
		} else {
			coldReqs += d.RequestsServed
		}
	}
	if hotReqs <= coldReqs {
		t.Fatalf("hot zone served %d, cold %d; skew inverted", hotReqs, coldReqs)
	}
}

func TestREADTransitionBudgetRespected(t *testing.T) {
	// A pathological on/off workload that tempts constant switching; READ
	// must keep each disk's daily transitions at or under S.
	files := workload.FileSet{{ID: 0, SizeMB: 0.1, AccessRate: 1}}
	var reqs []workload.Request
	clock := 0.0
	for burst := 0; burst < 300; burst++ {
		for i := 0; i < 3; i++ {
			reqs = append(reqs, workload.Request{Arrival: clock, FileID: 0})
			clock += 0.05
		}
		clock += 120 // silence long past any plausible H
	}
	tr := &workload.Trace{Files: files, Requests: reqs}
	const s = 10
	r := NewREAD(READConfig{MaxTransitionsPerDay: s, InitialIdleThreshold: 20})
	res := run(t, array.Config{Disks: 2, Trace: tr, Policy: r, EpochSeconds: 300})
	for _, d := range res.PerDisk {
		// Run is < 1 day, so the budget is exactly S (+1 tolerance for a
		// spin-up forced by a request landing after the last allowed
		// spin-down).
		if d.Transitions > s+1 {
			t.Fatalf("disk %d made %d transitions, budget %d", d.ID, d.Transitions, s)
		}
	}
}

func TestREADAdaptiveThresholdDoubles(t *testing.T) {
	files := workload.FileSet{{ID: 0, SizeMB: 0.1, AccessRate: 1}}
	var reqs []workload.Request
	clock := 0.0
	for burst := 0; burst < 100; burst++ {
		reqs = append(reqs, workload.Request{Arrival: clock, FileID: 0})
		clock += 100
	}
	tr := &workload.Trace{Files: files, Requests: reqs}
	policies := []struct {
		name string
		make func(READConfig) array.Policy
	}{
		{"read", func(c READConfig) array.Policy { return NewREAD(c) }},
		{"read-replica", func(c READConfig) array.Policy { return NewREADReplica(READReplicaConfig{READ: c}) }},
	}
	for _, pc := range policies {
		for _, disabled := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/disabled=%v", pc.name, disabled), func(t *testing.T) {
				probe := &thresholdProbe{Policy: pc.make(READConfig{
					MaxTransitionsPerDay:     6,
					InitialIdleThreshold:     30,
					DisableAdaptiveThreshold: disabled,
				})}
				run(t, array.Config{Disks: 2, Trace: tr, Policy: probe, EpochSeconds: 500})
				switch {
				case !disabled && !probe.doubled:
					t.Fatal("idleness threshold never doubled despite budget pressure")
				case disabled && probe.doubled:
					t.Fatal("idleness threshold doubled with DisableAdaptiveThreshold set")
				}
			})
		}
	}
}

// thresholdProbe wraps a READ-family policy to observe the adaptive
// threshold.
type thresholdProbe struct {
	array.Policy
	doubled bool
	initial float64
}

func (p *thresholdProbe) Init(ctx *array.Context) error {
	if err := p.Policy.Init(ctx); err != nil {
		return err
	}
	p.initial = ctx.IdleTimeout(0)
	return nil
}

func (p *thresholdProbe) OnEpoch(ctx *array.Context) {
	p.Policy.OnEpoch(ctx)
	for d := 0; d < ctx.NumDisks(); d++ {
		if ctx.IdleTimeout(d) > p.initial {
			p.doubled = true
		}
	}
}

func TestREADMigratesOnPopularityFlip(t *testing.T) {
	// Two files swap popularity mid-trace.
	files := workload.FileSet{
		{ID: 0, SizeMB: 0.01, AccessRate: 10},
		{ID: 1, SizeMB: 5, AccessRate: 0.01},
	}
	var reqs []workload.Request
	for i := 0; i < 1000; i++ {
		reqs = append(reqs, workload.Request{Arrival: float64(i) * 0.1, FileID: 0})
	}
	for i := 0; i < 3000; i++ {
		reqs = append(reqs, workload.Request{Arrival: 100 + float64(i)*0.03, FileID: 1})
	}
	tr := &workload.Trace{Files: files, Requests: reqs}
	r := NewREAD(READConfig{Theta: 0.5})
	run(t, array.Config{Disks: 4, Trace: tr, Policy: r, EpochSeconds: 60})
	if r.MigrationsRequested() == 0 {
		t.Fatal("READ never migrated despite popularity flip")
	}
}

func TestDRPMTransitionsALot(t *testing.T) {
	// Bursty workload: DRPM must rack up far more transitions than READ.
	files := workload.FileSet{{ID: 0, SizeMB: 0.1, AccessRate: 1}}
	var reqs []workload.Request
	clock := 0.0
	for burst := 0; burst < 150; burst++ {
		reqs = append(reqs, workload.Request{Arrival: clock, FileID: 0})
		clock += 60
	}
	tr := &workload.Trace{Files: files, Requests: reqs}
	drpmRes := run(t, array.Config{Disks: 2, Trace: tr, Policy: NewDRPM(DRPMConfig{IdleThreshold: 16})})
	r := NewREAD(READConfig{MaxTransitionsPerDay: 10, InitialIdleThreshold: 16})
	readRes := run(t, array.Config{Disks: 2, Trace: tr, Policy: r, EpochSeconds: 300})
	var drpmTrans, readTrans int
	for i := range drpmRes.PerDisk {
		drpmTrans += drpmRes.PerDisk[i].Transitions
		readTrans += readRes.PerDisk[i].Transitions
	}
	if drpmTrans <= readTrans {
		t.Fatalf("DRPM transitions %d not above READ %d", drpmTrans, readTrans)
	}
	if drpmRes.ArrayAFR <= readRes.ArrayAFR {
		t.Fatalf("DRPM AFR %v not above READ %v despite %dx transitions",
			drpmRes.ArrayAFR, readRes.ArrayAFR, drpmTrans)
	}
}

func TestPoliciesServeEverything(t *testing.T) {
	tr := genTrace(t, 150, 8000, 0.01, 0.8)
	policies := []array.Policy{
		NewAlwaysOn(),
		NewMAID(MAIDConfig{}),
		NewPDC(PDCConfig{}),
		NewREAD(READConfig{}),
		NewDRPM(DRPMConfig{}),
	}
	for _, p := range policies {
		res := run(t, array.Config{Disks: 6, Trace: tr, Policy: p, EpochSeconds: 20})
		if res.Requests != 8000 {
			t.Errorf("%s served %d of 8000", p.Name(), res.Requests)
		}
		if res.EnergyJ <= 0 || res.ArrayAFR <= 0 {
			t.Errorf("%s produced degenerate results: %+v", p.Name(), res)
		}
	}
}

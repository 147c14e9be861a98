package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/array"
	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func fleetTrace(t *testing.T, files, requests int, interarrival float64) *workload.Trace {
	t.Helper()
	cfg := workload.DefaultGenConfig()
	cfg.NumFiles = files
	cfg.NumRequests = requests
	cfg.MeanInterarrival = interarrival
	tr, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func alwaysOn(int) (array.Policy, error) { return policy.NewAlwaysOn(), nil }

// watchLedger attaches a fresh watch to cfg and returns a check of the
// shared engine's conservation ledger once the run is over: every event ever
// scheduled, by the router or a member, fired or is still pending.
func watchLedger(t *testing.T, cfg *Config) func() {
	w := des.NewWatch()
	cfg.Watch = w
	return func() {
		t.Helper()
		if ws := w.Snapshot(); ws.Scheduled != ws.Fired+ws.Pending {
			t.Fatalf("event ledger: %d scheduled != %d fired + %d pending", ws.Scheduled, ws.Fired, ws.Pending)
		}
	}
}

// runLedgered is Run followed by the ledger check.
func runLedgered(t *testing.T, cfg Config) *Result {
	t.Helper()
	ledger := watchLedger(t, &cfg)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ledger()
	return res
}

// TestFleetOfOneMatchesStandalone: with the resilience tier disabled, a
// 1-array fleet must reproduce the standalone simulator exactly — same event
// count, same clock, same latency statistics, same energy, the same member
// Result down to the per-disk rows — for every shipped policy, with fault
// injection off and on.
func TestFleetOfOneMatchesStandalone(t *testing.T) {
	tr := fleetTrace(t, 40, 1500, 0.1)
	policies := []struct {
		name string
		make func() array.Policy
	}{
		{"always-on", func() array.Policy { return policy.NewAlwaysOn() }},
		{"read", func() array.Policy { return policy.NewREAD(policy.READConfig{}) }},
		{"maid", func() array.Policy { return policy.NewMAID(policy.MAIDConfig{}) }},
		{"pdc", func() array.Policy { return policy.NewPDC(policy.PDCConfig{}) }},
		{"drpm", func() array.Policy { return policy.NewDRPM(policy.DRPMConfig{}) }},
		{"read-replica", func() array.Policy { return policy.NewREADReplica(policy.READReplicaConfig{}) }},
		{"striped", func() array.Policy { return policy.NewStripedAlwaysOn(policy.StripedConfig{}) }},
	}
	failures := 0
	for _, pc := range policies {
		for _, withFaults := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/faults=%v", pc.name, withFaults), func(t *testing.T) {
				proto := array.Config{Disks: 4, EpochSeconds: 2}
				if withFaults {
					proto.Disks, proto.Spares = 6, 1
					proto.Faults = &faults.Config{Enabled: true, Seed: 7, Acceleration: 2e6, PRESSScaling: true}
				}
				standalone := proto
				standalone.Trace, standalone.Policy = tr, pc.make()
				single, err := array.Run(standalone)
				if err != nil {
					t.Fatal(err)
				}
				failures += single.DiskFailures
				fleet, err := Run(Config{
					Arrays:     1,
					Trace:      tr,
					Proto:      proto,
					MakePolicy: func(int) (array.Policy, error) { return pc.make(), nil },
				})
				if err != nil {
					t.Fatal(err)
				}

				if fleet.EventsFired != single.EventsFired {
					t.Errorf("events fired: fleet %d, standalone %d", fleet.EventsFired, single.EventsFired)
				}
				if fleet.Duration != single.Duration {
					t.Errorf("duration: fleet %v, standalone %v", fleet.Duration, single.Duration)
				}
				if fleet.Served != single.Requests {
					t.Errorf("served: fleet %d, standalone %d", fleet.Served, single.Requests)
				}
				if fleet.MeanResponse != single.MeanResponse {
					t.Errorf("mean response: fleet %v, standalone %v", fleet.MeanResponse, single.MeanResponse)
				}
				if fleet.P99Response != single.P99Response {
					t.Errorf("p99: fleet %v, standalone %v", fleet.P99Response, single.P99Response)
				}
				if fleet.EnergyJ != single.EnergyJ {
					t.Errorf("energy: fleet %v, standalone %v", fleet.EnergyJ, single.EnergyJ)
				}
				// The member's whole Result, PerDisk included, is the
				// standalone one.
				if m := fleet.PerArray[0].Result; !reflect.DeepEqual(m, single) {
					t.Errorf("member result diverged from standalone:\n fleet %+v\n single %+v", m, single)
				}
				if fleet.Retries != 0 || fleet.Hedges != 0 || fleet.Failovers != 0 || fleet.Timeouts != 0 {
					t.Errorf("resilience counters nonzero with the tier disabled: %+v", fleet)
				}
			})
		}
	}
	if failures == 0 {
		t.Error("no faults-on case injected a disk failure; the table does not exercise failover")
	}
}

// resilientConfig is a fleet that exercises every router mechanism: tight
// deadlines (retries), hedging, shocks, vintage multipliers, and failures.
func resilientConfig(tr *workload.Trace) Config {
	return Config{
		Arrays:   4,
		Replicas: 2,
		Topology: Topology{Racks: 2, EnclosuresPerRack: 2},
		Trace:    tr,
		Proto: array.Config{
			Disks:        4,
			EpochSeconds: 2,
			Faults: &faults.Config{
				Enabled:      true,
				Seed:         7,
				Acceleration: 2e5,
				PRESSScaling: true,
			},
		},
		MakePolicy:           alwaysOn,
		Routing:              LeastLoaded,
		DeadlineSeconds:      0.25,
		MaxAttempts:          4,
		RetryBaseSeconds:     0.05,
		RetryCapSeconds:      1,
		RetryJitterFrac:      0.5,
		HedgeAfterP99Mult:    3,
		HedgeFallbackSeconds: 0.5,
		MaxBacklog:           64,
		Seed:                 42,
		Shocks: faults.ShockConfig{
			Enabled:             true,
			Seed:                11,
			MeanIntervalSeconds: 6,
			MeanOutageSeconds:   0.5,
		},
		VintageHazardMultipliers: []float64{1, 1, 3, 1},
	}
}

// TestFleetDeterminism: the same configuration must produce bit-identical
// results — including the decision log — on repeated runs.
func TestFleetDeterminism(t *testing.T) {
	tr := fleetTrace(t, 60, 3000, 0.005)

	run := func() (*Result, []telemetry.Decision) {
		cfg := resilientConfig(tr)
		rec := &telemetry.Recorder{Decisions: telemetry.NewDecisionLog()}
		cfg.Telemetry = rec
		res := runLedgered(t, cfg)
		return res, rec.Decisions.Records()
	}
	r1, d1 := run()
	r2, d2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("fleet results diverged across identical runs:\n%+v\n%+v", r1, r2)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Errorf("decision logs diverged: %d vs %d records", len(d1), len(d2))
	}
	if r1.ShocksInjected == 0 {
		t.Error("expected at least one rack shock")
	}
	if r1.Timeouts == 0 || r1.Retries == 0 {
		t.Errorf("expected timeouts and retries under a 0.25s deadline: %+v", r1)
	}
	if r1.Served+r1.Shed+r1.Failed != r1.Requests {
		t.Errorf("request accounting leak: served %d + shed %d + failed %d != %d",
			r1.Served, r1.Shed, r1.Failed, r1.Requests)
	}
}

// TestFleetRoutingPolicies: every routing policy must run and serve the
// workload; results must differ only where the policy actually changes
// choices (sanity, not equality).
func TestFleetRoutingPolicies(t *testing.T) {
	tr := fleetTrace(t, 40, 1000, 0.01)
	for _, rp := range RoutingPolicies() {
		cfg := Config{
			Arrays:     3,
			Replicas:   2,
			Trace:      tr,
			Proto:      array.Config{Disks: 4},
			MakePolicy: alwaysOn,
			Routing:    rp,
		}
		res := runLedgered(t, cfg)
		if res.Served != res.Requests {
			t.Errorf("%s: served %d of %d", rp, res.Served, res.Requests)
		}
	}
}

// TestFleetFailover: a scripted failure with no spares loses the in-flight
// requests on one array; the router must fail them over to the replica and
// still serve the full workload.
func TestFleetFailover(t *testing.T) {
	// Large files on saturated arrays: array 0's queues are deep when the
	// scripted failures hit, so in-flight requests are lost for certain.
	gen := workload.DefaultGenConfig()
	gen.NumFiles = 30
	gen.NumRequests = 1000
	gen.MeanInterarrival = 0.005
	gen.SizeMedianMB = 4
	tr, err := workload.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Arrays:     2,
		Replicas:   2,
		Trace:      tr,
		Proto:      array.Config{Disks: 2},
		MakePolicy: alwaysOn,
		PerArrayFaults: []*faults.Config{
			{Enabled: true, CheckIntervalSeconds: 0.1, Scripted: []faults.ScriptedEvent{{Disk: 0, At: 1}, {Disk: 1, At: 1.001}}},
			nil,
		},
		MaxAttempts: 3,
	}
	res := runLedgered(t, cfg)
	if res.LostRequests == 0 {
		t.Fatal("scripted failure lost no member requests; scenario is vacuous")
	}
	if res.Failovers == 0 {
		t.Errorf("expected failovers after data loss: %+v", res)
	}
	if res.Served != res.Requests {
		t.Errorf("served %d of %d despite a full replica", res.Served, res.Requests)
	}
	if res.Failed != 0 || res.Shed != 0 {
		t.Errorf("no request should fail with a healthy replica: failed %d shed %d", res.Failed, res.Shed)
	}
}

// TestFleetKillResume: resuming from a mid-run snapshot must finish
// bit-identical to the uninterrupted run.
func TestFleetKillResume(t *testing.T) {
	tr := fleetTrace(t, 40, 2000, 0.005)
	var snaps [][]byte
	mkCfg := func(sink func([]byte) error) Config {
		cfg := resilientConfig(tr)
		cfg.Checkpoint = &checkpoint.Spec{EverySimSeconds: 1.5, Sink: sink}
		return cfg
	}

	full := runLedgered(t, mkCfg(func(data []byte) error {
		cp := append([]byte(nil), data...)
		snaps = append(snaps, cp)
		return nil
	}))
	if len(snaps) < 2 {
		t.Fatalf("only %d snapshots taken; widen the trace", len(snaps))
	}

	// Resume from a mid-run snapshot ("the process was SIGKILLed there").
	env, err := checkpoint.Decode(snaps[len(snaps)/2])
	if err != nil {
		t.Fatal(err)
	}
	cfg := mkCfg(func([]byte) error { return nil })
	ledger := watchLedger(t, &cfg)
	resumed, err := Resume(cfg, env.State)
	if err != nil {
		t.Fatal(err)
	}
	ledger()
	if !reflect.DeepEqual(full, resumed) {
		t.Errorf("resumed fleet diverged from uninterrupted run:\nfull    %+v\nresumed %+v", full, resumed)
	}
}

// TestBackoffScheduleDeterministicAndCapped: the backoff schedule is a pure
// function of (seed, request, attempt) — identical across clusterSim
// instances — grows exponentially, respects the cap, and keeps jitter within
// the configured fraction.
func TestBackoffScheduleDeterministicAndCapped(t *testing.T) {
	cfg := Config{RetryBaseSeconds: 0.5, RetryCapSeconds: 8, RetryJitterFrac: 0.25, Seed: 99}
	a := &clusterSim{cfg: &cfg}
	b := &clusterSim{cfg: &cfg}
	for req := uint64(1); req <= 20; req++ {
		for attempt := 1; attempt <= 8; attempt++ {
			da, db := a.backoff(req, attempt), b.backoff(req, attempt)
			if da != db {
				t.Fatalf("backoff(%d,%d) diverged: %v vs %v", req, attempt, da, db)
			}
			nominal := cfg.RetryBaseSeconds
			for i := 1; i < attempt && nominal < cfg.RetryCapSeconds; i++ {
				nominal *= 2
			}
			if nominal > cfg.RetryCapSeconds {
				nominal = cfg.RetryCapSeconds
			}
			lo, hi := nominal*(1-cfg.RetryJitterFrac), nominal*(1+cfg.RetryJitterFrac)
			if da < lo || da > hi {
				t.Fatalf("backoff(%d,%d)=%v outside [%v,%v]", req, attempt, da, lo, hi)
			}
		}
	}
	// Jitter actually varies by request.
	if a.backoff(1, 3) == a.backoff(2, 3) && a.backoff(2, 3) == a.backoff(3, 3) {
		t.Error("jitter is constant across requests")
	}
}

func TestTopologyMapping(t *testing.T) {
	topo := Topology{Racks: 3, EnclosuresPerRack: 2}
	for i := 0; i < 12; i++ {
		if r := topo.RackOf(i); r != i%3 {
			t.Errorf("array %d rack %d, want %d", i, r, i%3)
		}
	}
	if e := topo.EnclosureOf(9); e != 1 {
		t.Errorf("array 9 enclosure %d, want 1", e)
	}
}

func TestConfigValidation(t *testing.T) {
	tr := fleetTrace(t, 4, 10, 0.1)
	base := func() Config {
		return Config{Arrays: 2, Trace: tr, Proto: array.Config{Disks: 2}, MakePolicy: alwaysOn}
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no arrays", func(c *Config) { c.Arrays = 0 }},
		{"replicas exceed arrays", func(c *Config) { c.Replicas = 3 }},
		{"nil trace", func(c *Config) { c.Trace = nil }},
		{"nil policy factory", func(c *Config) { c.MakePolicy = nil }},
		{"negative deadline", func(c *Config) { c.DeadlineSeconds = -1 }},
		{"oversized attempts", func(c *Config) { c.MaxAttempts = 65 }},
		{"bad jitter", func(c *Config) { c.RetryJitterFrac = 1.5 }},
		{"unknown routing", func(c *Config) { c.Routing = "random" }},
		{"vintage length", func(c *Config) { c.VintageHazardMultipliers = []float64{1} }},
		{"negative vintage", func(c *Config) { c.VintageHazardMultipliers = []float64{1, -2} }},
		{"per-array faults length", func(c *Config) { c.PerArrayFaults = []*faults.Config{nil} }},
		{"proto trace set", func(c *Config) { c.Proto.Trace = tr }},
		{"checkpoint without target", func(c *Config) { c.Checkpoint = &checkpoint.Spec{EverySimSeconds: 1} }},
	}
	for _, tc := range cases {
		cfg := base()
		cfg.setDefaults()
		tc.mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted an invalid config", tc.name)
		}
	}
}

// TestRouterLivePublishing: the recorder's live view, given one health row
// per array, reads back as a fleet view that reflects the run.
func TestRouterLivePublishing(t *testing.T) {
	tr := fleetTrace(t, 20, 500, 0.01)
	live := telemetry.NewLive(2)
	cfg := Config{
		Arrays:     2,
		Replicas:   2,
		Trace:      tr,
		Proto:      array.Config{Disks: 2},
		MakePolicy: alwaysOn,
		Telemetry:  &telemetry.Recorder{Live: live},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := live.Snapshot().Fleet
	if snap.Requests != uint64(res.Requests) || snap.Served != uint64(res.Served) {
		t.Errorf("fleet live counters %+v disagree with result %+v", snap, res)
	}
	if len(snap.PerArray) != 2 {
		t.Fatalf("expected 2 array rows, got %d", len(snap.PerArray))
	}
	for i, a := range snap.PerArray {
		if a.Health != telemetry.ArrayHealthy {
			t.Errorf("array %d health %q at end of a clean run", i, a.Health)
		}
	}
}

// TestRouterLiveOnOffIdentical: the recorder's live view, with health rows,
// is observation-only.
// Attaching it changes neither the result nor a byte of the decision log,
// under the routing that reads backlog and under the one that reads PRESS
// AFR, and the attached view still carries every health-row field.
func TestRouterLiveOnOffIdentical(t *testing.T) {
	tr := fleetTrace(t, 40, 4000, 0.002)
	for _, rp := range []RoutingPolicy{LeastLoaded, AFRAware} {
		run := func(live *telemetry.Live) (*Result, []byte, uint64) {
			cfg := resilientConfig(tr)
			cfg.Routing = rp
			cfg.DeadlineSeconds = 0.02
			cfg.RetryBaseSeconds = 0.002
			cfg.HedgeAfterP99Mult = 1
			rec := &telemetry.Recorder{Decisions: telemetry.NewDecisionLog(), Live: live}
			cfg.Telemetry = rec
			// The checkpoint sink doubles as a mid-run probe of the view.
			var maxBacklog uint64
			cfg.Checkpoint = &checkpoint.Spec{EverySimSeconds: 0.25, Sink: func([]byte) error {
				if fv := live.Snapshot().Fleet; fv != nil {
					for _, a := range fv.PerArray {
						maxBacklog = max(maxBacklog, a.Backlog)
					}
				}
				return nil
			}}
			res := runLedgered(t, cfg)
			var log bytes.Buffer
			if err := rec.Decisions.WriteNDJSON(&log); err != nil {
				t.Fatal(err)
			}
			return res, log.Bytes(), maxBacklog
		}
		off, offLog, _ := run(nil)
		live := telemetry.NewLive(off.Arrays)
		on, onLog, maxBacklog := run(live)
		if !reflect.DeepEqual(off, on) {
			t.Errorf("%s: attaching a live view changed the result:\noff %+v\non  %+v", rp, off, on)
		}
		if len(offLog) == 0 || !bytes.Equal(offLog, onLog) {
			t.Errorf("%s: decision logs differ with a live view attached (%d vs %d bytes)", rp, len(offLog), len(onLog))
		}
		rows := live.Snapshot().Fleet.PerArray
		if len(rows) != off.Arrays {
			t.Fatalf("%s: %d health rows for %d arrays", rp, len(rows), off.Arrays)
		}
		for i, a := range rows {
			if a.Health == "" || a.WorstAFRPct <= 0 {
				t.Errorf("%s: array %d row lacks health or worst AFR: %+v", rp, i, a)
			}
		}
		if maxBacklog == 0 {
			t.Errorf("%s: no health row ever carried a backlog", rp)
		}
	}
}

// Command fleetsim runs a multi-array cluster simulation — N arrays on one
// shared-clock DES behind a routing tier with deadlines, retries, hedging,
// health gating, and cross-array failover — and prints a fleet report.
//
//	fleetsim -arrays 4 -replicas 2 -policy read -routing least-loaded
//	fleetsim -arrays 4 -deadline 2 -max-attempts 3 -hedge-mult 3
//	fleetsim -arrays 6 -racks 3 -shocks -shock-interval 600
//	fleetsim -arrays 4 -faults -spares 1 -fault-accel 5e5
//	fleetsim -arrays 2 -runs-dir runs -checkpoint-every 500
//	fleetsim -arrays 2 -runs-dir runs -checkpoint-every 500 -resume
package main

import (
	"encoding/json"
	"flag"
	"fmt"

	diskarray "repro"
	"repro/cmd/internal/runcmd"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/runstore"
	"repro/internal/telemetry"
)

// manifestConfig is the digested configuration block of a fleetsim run
// manifest: everything that determines the fleet's results.
type manifestConfig struct {
	Arrays     int    `json:"arrays"`
	Replicas   int    `json:"replicas"`
	Racks      int    `json:"racks"`
	Enclosures int    `json:"enclosures"`
	Disks      int    `json:"disks"`
	Policy     string `json:"policy"`
	Routing    string `json:"routing"`

	Requests  int     `json:"requests"`
	Intensity float64 `json:"intensity"`
	Seed      int64   `json:"seed"`
	Epochs    int     `json:"epochs"`

	Deadline      float64 `json:"deadline_seconds,omitempty"`
	MaxAttempts   int     `json:"max_attempts,omitempty"`
	RetryBase     float64 `json:"retry_base_seconds,omitempty"`
	RetryCap      float64 `json:"retry_cap_seconds,omitempty"`
	RetryJitter   float64 `json:"retry_jitter_frac,omitempty"`
	HedgeMult     float64 `json:"hedge_after_p99_mult,omitempty"`
	HedgeFallback float64 `json:"hedge_fallback_seconds,omitempty"`
	MaxBacklog    int     `json:"max_backlog,omitempty"`

	Shocks *faults.ShockConfig `json:"shocks,omitempty"`
	Faults *faults.Config      `json:"faults,omitempty"`
	Spares int                 `json:"spares,omitempty"`
}

func main() {
	cmd := runcmd.New("fleetsim")
	record := cmd.RecordFlags()
	var (
		arrays     = flag.Int("arrays", 4, "fleet size (independent arrays on one shared clock)")
		replicas   = flag.Int("replicas", 2, "arrays each file is placed on (failover and hedging need at least 2)")
		racks      = flag.Int("racks", 2, "racks (= power domains) the arrays are striped over")
		enclosures = flag.Int("enclosures", 1, "enclosures per rack (reporting subdivision)")
		disks      = flag.Int("disks", 8, "disks per array")
		policyName = flag.String("policy", "read", "member energy policy: read | maid | pdc | always-on | drpm | read-replica | striped")
		routing    = flag.String("routing", "round-robin", "routing policy: round-robin | least-loaded | afr-aware")

		requests  = flag.Int("requests", 50000, "synthetic fleet trace length")
		intensity = flag.Float64("intensity", diskarray.LightIntensity, "arrival intensity multiplier")
		seed      = flag.Int64("seed", 1, "generator seed (also drives retry jitter)")
		epochs    = flag.Int("epochs", 24, "member policy epochs across the trace")

		deadline      = flag.Float64("deadline", 5, "per-attempt deadline in virtual seconds (0 disables timeouts and retries)")
		maxAttempts   = flag.Int("max-attempts", 3, "total attempts per request (first + retries + hedges + failovers)")
		retryBase     = flag.Float64("retry-base", 0.25, "retry backoff base in virtual seconds")
		retryCap      = flag.Float64("retry-cap", 30, "retry backoff cap in virtual seconds")
		retryJitter   = flag.Float64("retry-jitter", 0.2, "retry backoff jitter fraction in [0,1] (seeded, deterministic)")
		hedgeMult     = flag.Float64("hedge-mult", 0, "issue a hedged attempt after this multiple of the running fleet p99 (0 disables hedging)")
		hedgeFallback = flag.Float64("hedge-fallback", 1, "hedge delay in virtual seconds before the latency histogram warms up")
		maxBacklog    = flag.Int("max-backlog", 0, "mark an array draining above this foreground backlog (0 disables backpressure)")

		withShocks    = flag.Bool("shocks", false, "inject rack power shocks (correlated faults)")
		shockSeed     = flag.Int64("shock-seed", 1, "shock schedule seed")
		shockInterval = flag.Float64("shock-interval", 900, "mean virtual seconds between shocks per rack")
		shockOutage   = flag.Float64("shock-outage", 60, "mean outage duration in virtual seconds")

		withFaults = flag.Bool("faults", false, "inject Weibull disk failures into every member array")
		faultSeed  = flag.Int64("fault-seed", 1, "failure-injection seed")
		faultAccel = flag.Float64("fault-accel", 5e5, "reliability-timescale acceleration")
		spares     = flag.Int("spares", 0, "hot spares per array")

		traceDec = flag.Bool("trace-decisions", false, "record the router's retry/hedge/failover decision log as decisions.ndjson (requires -runs-dir)")
		table    = flag.Bool("table", true, "print the per-array table")
	)
	cmd.Parse()
	logg, explicit, usageErr := cmd.Log, cmd.Explicit, cmd.Usage

	cmd.Check(runcmd.Choice("policy", *policyName, runcmd.Strings(experiment.AllPolicyKinds())...))
	cmd.Check(runcmd.Choice("routing", *routing, runcmd.Strings(cluster.RoutingPolicies())...))
	switch {
	case *arrays < 1:
		usageErr("-arrays %d: a fleet needs at least 1 array", *arrays)
	case *replicas < 1 || *replicas > *arrays:
		usageErr("-replicas %d must be in [1, %d]", *replicas, *arrays)
	case *racks < 1:
		usageErr("-racks %d: a fleet needs at least 1 rack", *racks)
	case *enclosures < 1:
		usageErr("-enclosures %d: a rack needs at least 1 enclosure", *enclosures)
	case *disks < 2:
		usageErr("-disks %d: an array needs at least 2 disks", *disks)
	case *epochs <= 0:
		usageErr("-epochs %d must be positive", *epochs)
	case *requests <= 0:
		usageErr("-requests %d must be positive", *requests)
	case *intensity <= 0:
		usageErr("-intensity %g must be positive", *intensity)
	case !*withShocks && (explicit["shock-seed"] || explicit["shock-interval"] || explicit["shock-outage"]):
		usageErr("shock flags require -shocks")
	case !*withFaults && (explicit["fault-seed"] || explicit["fault-accel"] || explicit["spares"]):
		usageErr("fault flags require -faults")
	case *traceDec && record.RunsDir == "":
		usageErr("-trace-decisions requires -runs-dir (the decision log is written as decisions.ndjson)")
	}

	// The flags become one manifestConfig: it names the run (with
	// -runs-dir) and is the only input to the fleet's configuration.
	mc := manifestConfig{
		Arrays: *arrays, Replicas: *replicas, Racks: *racks,
		Enclosures: *enclosures, Disks: *disks,
		Policy: *policyName, Routing: *routing,
		Requests: *requests, Intensity: *intensity, Seed: *seed, Epochs: *epochs,
		Deadline: *deadline, MaxAttempts: *maxAttempts,
		RetryBase: *retryBase, RetryCap: *retryCap, RetryJitter: *retryJitter,
		HedgeMult: *hedgeMult, HedgeFallback: *hedgeFallback, MaxBacklog: *maxBacklog,
	}
	if *withShocks {
		mc.Shocks = &faults.ShockConfig{
			Enabled:             true,
			Seed:                *shockSeed,
			MeanIntervalSeconds: *shockInterval,
			MeanOutageSeconds:   *shockOutage,
		}
	}
	if *withFaults {
		fc := faults.Default()
		fc.Seed = *faultSeed
		fc.Acceleration = *faultAccel
		mc.Faults, mc.Spares = &fc, *spares
	}
	if err := record.Open(mc); err != nil {
		logg.Fatal(err)
	}
	cfg, err := mc.clusterConfig()
	if err != nil {
		logg.Fatal(err)
	}
	// The live ops plane: the router's clock, counters and per-array health
	// in one live view, next to the shared engine's watchdog position.
	// Observation-only — the run is bit-identical with or without -ops-addr.
	mon := cmd.Observe(false)
	defer mon.Close()
	live, watch := mon.Run(record.Name, *arrays)
	cfg.Watch = watch
	var dlog *telemetry.DecisionLog
	if *traceDec {
		dlog = telemetry.NewDecisionLog()
	}
	cfg.Telemetry = &telemetry.Recorder{Decisions: dlog, Live: live}
	if record.CkptEvery > 0 {
		cfg.Checkpoint = &checkpoint.Spec{
			EverySimSeconds: record.CkptEvery,
			Path:            record.CheckpointPath(),
			Tool:            "fleetsim",
			ConfigDigest:    record.Manifest.ConfigDigest,
		}
	}

	perfCap := runstore.StartPerf()
	var res *cluster.Result
	if record.Resume {
		var state json.RawMessage
		if state, err = record.ResumeState(); err != nil {
			logg.Fatal(err)
		}
		res, err = cluster.Resume(cfg, state)
	} else {
		res, err = cluster.Run(cfg)
	}
	if err != nil {
		logg.Fatal(err)
	}
	perf := perfCap.Sample(res.Duration, res.EventsFired, false)
	mon.MarkDone()

	var logs []runcmd.DecisionFile
	if m := record.Manifest; m != nil {
		m.Seed = *seed
		m.Policy = *policyName
		m.Workload = fmt.Sprintf("synthetic %d requests, intensity %g", *requests, *intensity)
		m.Summary = experiment.FleetSummary(res, *withFaults)
		m.Perf = &runstore.Perf{Run: &perf}
		if dlog != nil {
			logs = append(logs, runcmd.DecisionFile{Name: "decisions.ndjson", Log: dlog})
		}
	}
	if err := record.Commit(logs...); err != nil {
		logg.Fatal(err)
	}

	fmt.Printf("fleet of %d arrays (%d disks each, %d racks) — %s members, %s routing\n",
		res.Arrays, *disks, *racks, *policyName, res.Routing)
	fmt.Printf("requests:       %d arrived, %d served, %d failed, %d shed\n",
		res.Requests, res.Served, res.Failed, res.Shed)
	fmt.Printf("fleet latency:  mean %.2f ms (p95 %.2f, p99 %.2f, max %.0f ms)\n",
		res.MeanResponse*1e3, res.P95Response*1e3, res.P99Response*1e3, res.MaxResponse*1e3)
	fmt.Printf("resilience:     %d retries, %d hedges (%d won), %d failovers, %d timeouts, %d deferred\n",
		res.Retries, res.Hedges, res.HedgeWins, res.Failovers, res.Timeouts, res.Deferred)
	fmt.Printf("faults:         %d disk failures, %d member-lost requests, %d rack shocks\n",
		res.DiskFailures, res.LostRequests, res.ShocksInjected)
	fmt.Printf("energy:         %.1f kJ   worst member AFR: %.3f%%   events: %d\n",
		res.EnergyJ/1e3, res.WorstAFR, res.EventsFired)

	if *table {
		fmt.Printf("\n%5s %4s %4s %9s %8s %8s %8s %9s\n",
			"array", "rack", "encl", "requests", "energy", "AFR%", "failures", "dataloss")
		for _, a := range res.PerArray {
			fmt.Printf("%5d %4d %4d %9d %7.1fk %8.3f %8d %9d\n",
				a.Array, a.Rack, a.Enclosure, a.Requests, a.EnergyJ/1e3,
				a.ArrayAFR, a.DiskFailures, a.DataLossEvents)
		}
	}
}

// clusterConfig builds the fleet mc describes: the one place a fleetsim
// configuration becomes a cluster.Config.
func (mc manifestConfig) clusterConfig() (cluster.Config, error) {
	trace, err := runcmd.SyntheticTrace(mc.Requests, mc.Intensity, mc.Seed)
	if err != nil {
		return cluster.Config{}, err
	}
	stats, err := trace.ComputeStats()
	if err != nil {
		return cluster.Config{}, err
	}
	kind := diskarray.PolicyKind(mc.Policy)
	cfg := cluster.Config{
		Arrays:   mc.Arrays,
		Replicas: mc.Replicas,
		Topology: cluster.Topology{Racks: mc.Racks, EnclosuresPerRack: mc.Enclosures},
		Trace:    trace,
		Proto: diskarray.SimConfig{
			Disks:        mc.Disks,
			EpochSeconds: stats.Duration / float64(mc.Epochs),
			Faults:       mc.Faults,
			Spares:       mc.Spares,
		},
		MakePolicy:           func(int) (diskarray.Policy, error) { return experiment.NewPolicy(kind) },
		Routing:              cluster.RoutingPolicy(mc.Routing),
		DeadlineSeconds:      mc.Deadline,
		MaxAttempts:          mc.MaxAttempts,
		RetryBaseSeconds:     mc.RetryBase,
		RetryCapSeconds:      mc.RetryCap,
		RetryJitterFrac:      mc.RetryJitter,
		HedgeAfterP99Mult:    mc.HedgeMult,
		HedgeFallbackSeconds: mc.HedgeFallback,
		MaxBacklog:           mc.MaxBacklog,
		Seed:                 mc.Seed,
	}
	if mc.Shocks != nil {
		cfg.Shocks = *mc.Shocks
	}
	return cfg, nil
}

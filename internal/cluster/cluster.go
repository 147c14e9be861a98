// Package cluster simulates a fleet of disk arrays on one shared-clock DES.
// Each array is a full internal/array simulation mounted as a Member on the
// shared engine, mapped into a failure-domain topology (rack = power domain,
// subdivided into enclosures), and fronted by a routing tier that owns the
// fleet's request stream: per-request deadlines with deterministic timeout
// events, capped exponential backoff retries with seeded (pure-hash) jitter,
// optional hedged requests after a p99-derived delay, health gating
// (draining on outage/rebuild/backlog, ejection on data loss, backpressure
// instead of unbounded queuing), and cross-array failover for replicated
// placements. Correlated faults enter through internal/faults: per-rack
// power shocks force emergency spin-down and re-heat, and per-array vintage
// hazard multipliers model bad drive batches.
//
// Determinism rules for shared-clock fleets (DESIGN.md §15):
//
//   - One engine, one writer. Every member and the router schedule onto the
//     same des.Engine; ties at an instant break by scheduling sequence, so
//     CONSTRUCTION ORDER IS CONTRACT: members are built in index order, and
//     the router's first arrival is slotted inside member 0's construction
//     (exactly where a standalone run schedules its first trace arrival —
//     which is why a fleet of one with the resilience tier disabled
//     reproduces the single-array simulator event-for-event).
//   - No hidden randomness. Retry jitter and shock schedules are pure
//     splitmix64 hashes of (seed, request/domain, attempt/index) — there is
//     no RNG state to checkpoint and replay cannot perturb the members' own
//     draw logs.
//   - No cancellation. Deadline, hedge, and retry events are never removed
//     from the queue; stale ones fire and no-op against settled request
//     state. Checkpoints therefore never carry event IDs, only payloads.
package cluster

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/array"
	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// RoutingPolicy selects which replica serves an attempt.
type RoutingPolicy string

const (
	// RoundRobin rotates deterministically over a file's replica set by
	// request ID and attempt ordinal.
	RoundRobin RoutingPolicy = "round-robin"
	// LeastLoaded picks the replica with the smallest foreground backlog
	// (lowest index on ties).
	LeastLoaded RoutingPolicy = "least-loaded"
	// AFRAware picks the replica whose worst disk has the lowest live PRESS
	// AFR — the heat/frequency-aware router (lowest index on ties).
	AFRAware RoutingPolicy = "afr-aware"
)

// RoutingPolicies lists the accepted values.
func RoutingPolicies() []RoutingPolicy {
	return []RoutingPolicy{RoundRobin, LeastLoaded, AFRAware}
}

// Topology maps arrays into failure domains. Array i lives in rack
// i % Racks and enclosure (i / Racks) % EnclosuresPerRack within it. The
// rack is the power domain: a shock takes down every array it holds.
type Topology struct {
	// Racks is the number of racks (= power domains). Zero means 1.
	Racks int
	// EnclosuresPerRack subdivides a rack for reporting. Zero means 1.
	EnclosuresPerRack int
}

func (t Topology) normalized() Topology {
	if t.Racks <= 0 {
		t.Racks = 1
	}
	if t.EnclosuresPerRack <= 0 {
		t.EnclosuresPerRack = 1
	}
	return t
}

// RackOf returns array i's rack (power domain).
func (t Topology) RackOf(i int) int { return i % t.Racks }

// EnclosureOf returns array i's enclosure within its rack.
func (t Topology) EnclosureOf(i int) int { return (i / t.Racks) % t.EnclosuresPerRack }

// CheckpointSpec configures periodic fleet snapshots; see
// array.CheckpointSpec for field semantics (the tick is a real DES event and
// part of the determinism contract).
type CheckpointSpec struct {
	EverySimSeconds float64
	Path            string
	Tool            string
	ConfigDigest    string
	Sink            func(data []byte) error
}

// Config describes one fleet run.
type Config struct {
	// Arrays is the fleet size.
	Arrays int
	// Replicas is the number of arrays each file is placed on (array
	// (f + j) % Arrays for j < Replicas). Zero means 1 (no replication;
	// failover and hedging then have nowhere to go).
	Replicas int
	// Topology maps arrays into failure domains.
	Topology Topology
	// Trace is the FLEET workload: the router replays its requests and
	// splits its files over the arrays by the replica placement.
	Trace *workload.Trace
	// Proto is the per-array configuration template. Its Trace, Policy,
	// Telemetry, Watch, Checkpoint, and DecisionOverrides fields must be
	// nil/zero — the cluster derives each member's trace and policy, owns
	// the engine instrumentation, and drives checkpointing itself.
	Proto array.Config
	// MakePolicy constructs member i's policy. Policies are stateful, so
	// every member needs a fresh instance.
	MakePolicy func(i int) (array.Policy, error)
	// Routing selects the replica-choice rule. Empty means RoundRobin.
	Routing RoutingPolicy

	// DeadlineSeconds is the per-attempt deadline; a deterministic timeout
	// event fires when it expires and the router retries (or gives up).
	// Zero disables deadlines, and with them retry-on-timeout.
	DeadlineSeconds float64
	// MaxAttempts bounds total attempts per request (first + retries +
	// hedges + failovers). Zero means 1.
	MaxAttempts int
	// RetryBaseSeconds is the backoff base: attempt k retries after
	// min(cap, base·2^(k-1)) scaled by seeded jitter. Zero means 0.5.
	RetryBaseSeconds float64
	// RetryCapSeconds caps the exponential backoff. Zero means 30.
	RetryCapSeconds float64
	// RetryJitterFrac spreads backoff by ±frac via a pure hash of
	// (Seed, request, attempt). Zero means no jitter; must be in [0, 1].
	RetryJitterFrac float64
	// HedgeAfterP99Mult, when positive, issues a hedged attempt to another
	// replica after mult × (running fleet p99) of silence.
	HedgeAfterP99Mult float64
	// HedgeFallbackSeconds seeds the hedge delay before the fleet latency
	// histogram has hedgeMinSamples completions. Zero means 1.
	HedgeFallbackSeconds float64
	// MaxBacklog, when positive, marks an array draining while its total
	// foreground backlog exceeds it — the router's backpressure signal.
	MaxBacklog int
	// Seed drives retry jitter (shocks carry their own seed).
	Seed int64

	// Shocks configures per-rack power events.
	Shocks faults.ShockConfig
	// VintageHazardMultipliers optionally scales each array's Weibull/LSE
	// hazard (a bad drive batch). Empty means all 1; otherwise the length
	// must equal Arrays. The multiplier composes with Proto.Faults.
	VintageHazardMultipliers []float64
	// PerArrayFaults optionally replaces Proto.Faults for individual
	// arrays (scripted per-array failures, heterogeneous populations).
	// Empty means every array shares Proto.Faults; otherwise the length
	// must equal Arrays and nil entries fall back to Proto.Faults.
	PerArrayFaults []*faults.Config

	// StallLimit is the shared engine's watchdog. Zero means 1,000,000.
	StallLimit uint64
	// Telemetry, when non-nil, supplies the engine tracer and the decision
	// log that records retry/hedge/failover decisions. Member simulations
	// always run bare (nil recorder): fleet observability lives at the
	// router.
	Telemetry *telemetry.Recorder
	// Watch receives the shared engine's live position for the ops plane.
	Watch *des.Watch
	// FleetLive, when non-nil, receives router counters and per-array
	// health rows for the ops plane. Observation-only.
	FleetLive *telemetry.FleetLive
	// Checkpoint, when non-nil, snapshots the whole fleet (router + every
	// member) periodically; see Resume.
	Checkpoint *CheckpointSpec
}

// hedgeMinSamples is the completions needed before the live p99 replaces
// HedgeFallbackSeconds in the hedge delay.
const hedgeMinSamples = 100

func (c *Config) setDefaults() {
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	c.Topology = c.Topology.normalized()
	if c.Routing == "" {
		c.Routing = RoundRobin
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 1
	}
	if c.RetryBaseSeconds == 0 {
		c.RetryBaseSeconds = 0.5
	}
	if c.RetryCapSeconds == 0 {
		c.RetryCapSeconds = 30
	}
	if c.HedgeFallbackSeconds == 0 {
		c.HedgeFallbackSeconds = 1
	}
	if c.StallLimit == 0 {
		c.StallLimit = 1_000_000
	}
}

// Validate reports the first configuration error.
func (c *Config) Validate() error {
	switch {
	case c.Arrays < 1:
		return errors.New("cluster: need at least 1 array")
	case c.Replicas < 1 || c.Replicas > c.Arrays:
		return fmt.Errorf("cluster: replicas %d must be in [1, %d]", c.Replicas, c.Arrays)
	case c.Trace == nil:
		return errors.New("cluster: nil trace")
	case c.MakePolicy == nil:
		return errors.New("cluster: nil MakePolicy")
	case c.DeadlineSeconds < 0 || math.IsNaN(c.DeadlineSeconds):
		return errors.New("cluster: negative deadline")
	case c.MaxAttempts < 1 || c.MaxAttempts > 64:
		// The upper bound keeps the per-request attempt set a bitmask.
		return fmt.Errorf("cluster: MaxAttempts %d must be in [1, 64]", c.MaxAttempts)
	case c.RetryBaseSeconds <= 0 || c.RetryCapSeconds <= 0:
		return errors.New("cluster: retry backoff base and cap must be positive")
	case c.RetryJitterFrac < 0 || c.RetryJitterFrac > 1 || math.IsNaN(c.RetryJitterFrac):
		return fmt.Errorf("cluster: retry jitter fraction %v must be in [0, 1]", c.RetryJitterFrac)
	case c.HedgeAfterP99Mult < 0 || math.IsNaN(c.HedgeAfterP99Mult):
		return errors.New("cluster: negative hedge multiplier")
	case c.MaxBacklog < 0:
		return errors.New("cluster: negative backlog limit")
	}
	switch c.Routing {
	case RoundRobin, LeastLoaded, AFRAware:
	default:
		return fmt.Errorf("cluster: unknown routing policy %q", c.Routing)
	}
	if err := c.Shocks.Validate(); err != nil {
		return err
	}
	if n := len(c.VintageHazardMultipliers); n != 0 && n != c.Arrays {
		return fmt.Errorf("cluster: %d vintage multipliers for %d arrays", n, c.Arrays)
	}
	if n := len(c.PerArrayFaults); n != 0 && n != c.Arrays {
		return fmt.Errorf("cluster: %d per-array fault configs for %d arrays", n, c.Arrays)
	}
	for i, m := range c.VintageHazardMultipliers {
		if m < 0 || math.IsNaN(m) {
			return fmt.Errorf("cluster: vintage multiplier[%d] = %v must be non-negative", i, m)
		}
	}
	if c.Proto.Trace != nil || c.Proto.Policy != nil || c.Proto.Telemetry != nil ||
		c.Proto.Watch != nil || c.Proto.Checkpoint != nil || len(c.Proto.DecisionOverrides) > 0 {
		return errors.New("cluster: Proto must leave Trace/Policy/Telemetry/Watch/Checkpoint/DecisionOverrides unset")
	}
	if c.Checkpoint != nil {
		if c.Checkpoint.EverySimSeconds <= 0 || math.IsNaN(c.Checkpoint.EverySimSeconds) {
			return fmt.Errorf("cluster: checkpoint interval %v must be positive", c.Checkpoint.EverySimSeconds)
		}
		if c.Checkpoint.Path == "" && c.Checkpoint.Sink == nil {
			return errors.New("cluster: checkpoint needs a path or a sink")
		}
	}
	return c.Trace.Validate()
}

// replicaArray returns the array holding replica j of file f; replica 0 is
// the primary.
func (c *Config) replicaArray(f, j int) int {
	a := (f + j) % c.Arrays
	if a < 0 {
		a += c.Arrays
	}
	return a
}

// memberTrace builds array a's trace: the fleet files placed on it (in fleet
// file order) and no requests.
func (c *Config) memberTrace(a int) *workload.Trace {
	t := &workload.Trace{}
	for _, f := range c.Trace.Files {
		for j := 0; j < c.Replicas; j++ {
			if c.replicaArray(f.ID, j) == a {
				t.Files = append(t.Files, f)
				break
			}
		}
	}
	return t
}

// memberConfig derives member a's array.Config from the prototype.
func (c *Config) memberConfig(a int) (array.Config, error) {
	cfg := c.Proto
	cfg.Trace = c.memberTrace(a)
	pol, err := c.MakePolicy(a)
	if err != nil {
		return array.Config{}, fmt.Errorf("cluster: policy for array %d: %w", a, err)
	}
	cfg.Policy = pol
	if len(c.PerArrayFaults) > 0 && c.PerArrayFaults[a] != nil {
		f := *c.PerArrayFaults[a]
		cfg.Faults = &f
	}
	if len(c.VintageHazardMultipliers) > 0 && cfg.Faults != nil {
		f := *cfg.Faults
		m := c.VintageHazardMultipliers[a]
		base := f.HazardMultiplier
		if base == 0 {
			base = 1
		}
		f.HazardMultiplier = base * m
		cfg.Faults = &f
	}
	return cfg, nil
}

// ArrayResult pairs one member's standalone result with its topology slot.
type ArrayResult struct {
	Array     int
	Rack      int
	Enclosure int
	*array.Result
}

// Result is the outcome of one fleet run.
type Result struct {
	Arrays   int
	Replicas int
	Routing  RoutingPolicy

	// Duration is the shared clock at drain.
	Duration float64
	// EventsFired counts every event on the shared engine.
	EventsFired uint64

	// Fleet latency, measured at the router from fleet arrival to FIRST
	// successful completion (retries and hedges included).
	Requests     int
	Served       int
	MeanResponse float64
	P50Response  float64
	P95Response  float64
	P99Response  float64
	P999Response float64
	MaxResponse  float64

	// Resilience counters.
	Retries    int // retry attempts issued after a timeout
	Hedges     int // hedged attempts issued
	HedgeWins  int // requests whose hedge finished first
	Failovers  int // attempts re-issued to a replica after data loss
	Timeouts   int // attempts that exceeded their deadline
	Deferred   int // attempts deferred by backpressure (all replicas draining)
	Duplicates int // late completions for already-settled requests
	Shed       int // requests dropped without service (no eligible replica)
	Failed     int // requests that exhausted every attempt and replica

	// ShocksInjected counts rack power events that fired.
	ShocksInjected int

	// Fleet roll-ups over members.
	EnergyJ      float64
	WorstAFR     float64 // max per-array PRESS AFR, percent
	DiskFailures int
	LostRequests int // member-level unrecoverable losses (pre-failover)

	PerArray []ArrayResult
}

// Run executes one fleet simulation.
func Run(cfg Config) (*Result, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c, err := newClusterSim(&cfg)
	if err != nil {
		return nil, err
	}
	if err := c.start(); err != nil {
		return nil, err
	}
	return c.finish()
}

// finish drives the shared engine to completion and collects the result; it
// is the common tail of Run and Resume.
func (c *clusterSim) finish() (*Result, error) {
	watchdogErr := c.eng.RunGuarded(c.cfg.StallLimit)
	if c.failure != nil {
		return nil, c.failure
	}
	for i, m := range c.members {
		if err := m.Err(); err != nil {
			return nil, fmt.Errorf("cluster: array %d: %w", i, err)
		}
	}
	if watchdogErr != nil {
		return nil, fmt.Errorf("cluster: %w (routing %q, %d arrays, %d/%d requests delivered)",
			watchdogErr, c.cfg.Routing, c.cfg.Arrays, c.delivered, len(c.cfg.Trace.Requests))
	}
	c.cfg.Watch.MarkDone()
	return c.collect()
}

func (c *clusterSim) collect() (*Result, error) {
	res := &Result{
		Arrays:         c.cfg.Arrays,
		Replicas:       c.cfg.Replicas,
		Routing:        c.cfg.Routing,
		Duration:       c.eng.Now(),
		EventsFired:    c.eng.Fired(),
		Requests:       len(c.cfg.Trace.Requests),
		Served:         int(c.hist.N()),
		MeanResponse:   c.hist.Mean(),
		MaxResponse:    c.hist.Max(),
		Retries:        c.retries,
		Hedges:         c.hedges,
		HedgeWins:      c.hedgeWins,
		Failovers:      c.failovers,
		Timeouts:       c.timeouts,
		Deferred:       c.deferred,
		Duplicates:     c.duplicates,
		Shed:           c.shed,
		Failed:         c.failed,
		ShocksInjected: c.shocks,
	}
	if c.hist.N() > 0 {
		for _, q := range []struct {
			p   float64
			dst *float64
		}{
			{0.50, &res.P50Response}, {0.95, &res.P95Response},
			{0.99, &res.P99Response}, {0.999, &res.P999Response},
		} {
			v, err := c.hist.Quantile(q.p)
			if err != nil {
				return nil, err
			}
			*q.dst = v
		}
	}
	res.PerArray = make([]ArrayResult, len(c.members))
	for i, m := range c.members {
		ar, err := m.Collect()
		if err != nil {
			return nil, fmt.Errorf("cluster: array %d: %w", i, err)
		}
		res.PerArray[i] = ArrayResult{
			Array:     i,
			Rack:      c.cfg.Topology.RackOf(i),
			Enclosure: c.cfg.Topology.EnclosureOf(i),
			Result:    ar,
		}
		res.EnergyJ += ar.EnergyJ
		if ar.ArrayAFR > res.WorstAFR {
			res.WorstAFR = ar.ArrayAFR
		}
		res.DiskFailures += ar.DiskFailures
		res.LostRequests += ar.LostRequests
	}
	return res, nil
}

// The fleet latency histogram has the same geometry as the per-array one,
// so quantiles are comparable; a snapshot's must match it.
const histLoExp, histHiExp, histPerDecade = -6, 5, 50

// newFleetHist builds the fleet latency histogram.
func newFleetHist() (*stats.LatencyHistogram, error) {
	return stats.NewLatencyHistogram(histLoExp, histHiExp, histPerDecade)
}

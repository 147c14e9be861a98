package experiment

// The fleet sweep scales the paper's question from one array to a cluster:
// N arrays on one shared-clock DES, a routing tier with deadlines, retries,
// hedging, and failover in front of them, and correlated faults (rack power
// shocks, bad vintages) underneath. The axes are fleet size × routing policy
// × member energy policy, so the sweep measures how much of a single array's
// energy/reliability trade-off survives — or is masked by — fleet-level
// resilience machinery.

import (
	"fmt"
	"io"

	"repro/internal/array"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/runstore"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// FleetSweepConfig parameterizes a fleet-size × routing × policy comparison.
type FleetSweepConfig struct {
	// ArrayCounts is the fleet-size axis.
	ArrayCounts []int
	// Routings is the routing-policy axis (empty means all of
	// cluster.RoutingPolicies).
	Routings []cluster.RoutingPolicy
	// Policies is the member energy-policy axis.
	Policies []PolicyKind
	// Replicas is the replication factor for every cell; it must not exceed
	// the smallest fleet size. Zero means 2 (so failover has somewhere to go).
	Replicas int
	// Racks is the number of power domains per cell. Zero means 2.
	Racks int
	// EnclosuresPerRack subdivides racks for reporting. Zero means 1.
	EnclosuresPerRack int
	// Disks is the per-array size. Zero means 8.
	Disks int

	// TraceSpec is the FLEET trace and the member policy epoch; the router
	// splits the trace over the arrays by the replica placement.
	TraceSpec

	// Resilience knobs, applied to every cell (see cluster.Config).
	DeadlineSeconds      float64
	MaxAttempts          int
	RetryBaseSeconds     float64
	RetryCapSeconds      float64
	RetryJitterFrac      float64
	HedgeAfterP99Mult    float64
	HedgeFallbackSeconds float64
	MaxBacklog           int
	// Seed drives the router's retry jitter.
	Seed int64

	// Shocks injects rack power events into every cell.
	Shocks faults.ShockConfig
	// Faults, when non-nil and enabled, is the shared member fault
	// configuration. Each cell offsets the injector seed by its fleet size so
	// every (routing, policy) pair at a given size faces the identical draw.
	Faults *faults.Config
	// Spares is the per-member hot-spare pool (only meaningful with Faults).
	Spares int

	// Exec holds the execution knobs, as in SweepConfig; none enters the
	// digest.
	Exec
}

// DefaultFleetSweepConfig returns an interactive-scale fleet comparison:
// fleets of 2 and 4 arrays under every routing policy, READ members,
// replication factor 2, deadlines with two retries, and hedging at 3× the
// running p99, replaying DefaultSweepConfig's churning workload.
func DefaultFleetSweepConfig() FleetSweepConfig {
	return FleetSweepConfig{
		ArrayCounts:       []int{2, 4},
		Routings:          cluster.RoutingPolicies(),
		Policies:          []PolicyKind{KindREAD},
		Replicas:          2,
		Racks:             2,
		Disks:             8,
		TraceSpec:         DefaultSweepConfig().TraceSpec,
		DeadlineSeconds:   5,
		MaxAttempts:       3,
		RetryBaseSeconds:  0.25,
		RetryJitterFrac:   0.2,
		HedgeAfterP99Mult: 3,
	}
}

func (c *FleetSweepConfig) setDefaults() {
	if len(c.ArrayCounts) == 0 {
		c.ArrayCounts = []int{2, 4}
	}
	if len(c.Routings) == 0 {
		c.Routings = cluster.RoutingPolicies()
	}
	if len(c.Policies) == 0 {
		c.Policies = []PolicyKind{KindREAD}
	}
	if c.Replicas == 0 {
		c.Replicas = 2
	}
	if c.Racks == 0 {
		c.Racks = 2
	}
	if c.EnclosuresPerRack == 0 {
		c.EnclosuresPerRack = 1
	}
	if c.Disks == 0 {
		c.Disks = 8
	}
	c.TraceSpec.setDefaults()
	c.Exec.setDefaults()
}

// Validate reports the first invalid sweep parameter. Per-cell cluster
// parameters are validated again by cluster.Run; the checks here catch the
// cross-cell constraints a single cell cannot see.
func (c *FleetSweepConfig) Validate() error {
	if err := validateGrid(&c.TraceSpec, c.Policies, c.Faults, c.Spares); err != nil {
		return err
	}
	if c.Disks < 2 {
		return fmt.Errorf("experiment: disk count %d too small", c.Disks)
	}
	for _, n := range c.ArrayCounts {
		if n < 1 {
			return fmt.Errorf("experiment: fleet size %d too small", n)
		}
		if c.Replicas > n {
			return fmt.Errorf("experiment: replicas %d exceed fleet size %d", c.Replicas, n)
		}
	}
	for _, r := range c.Routings {
		ok := false
		for _, v := range cluster.RoutingPolicies() {
			if r == v {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("experiment: unknown routing policy %q", r)
		}
	}
	return c.Shocks.Validate()
}

// FleetCell is one fleet sweep cell result. Result is nil exactly when
// Status is CellFailed; the outcome fields follow the Cell contract, with
// Decisions holding the fleet decision log (retry/hedge/failover
// attribution).
type FleetCell struct {
	Arrays  int
	Routing cluster.RoutingPolicy
	Policy  PolicyKind
	Result  *cluster.Result
	Outcome
}

// Key is the cell's ops-plane and manifest identity:
// "fleet.<policy>.<routing>.<arrays>" — the "fleet." prefix keeps the keys
// disjoint from single-array sweep cells in any shared namespace.
func (c FleetCell) Key() string { return fmt.Sprintf("fleet.%s.%s.%d", c.Policy, c.Routing, c.Arrays) }

func (c *FleetCell) desc() string {
	return fmt.Sprintf("arrays=%d routing=%s policy=%s", c.Arrays, c.Routing, c.Policy)
}

func (c *FleetCell) cost() (float64, uint64) { return c.Result.Duration, c.Result.EventsFired }

// cells lays out the fleet grid: fleet-size-major, then routing, then
// policy.
func (c *FleetSweepConfig) cells() []FleetCell {
	cells := make([]FleetCell, 0, len(c.ArrayCounts)*len(c.Routings)*len(c.Policies))
	for _, n := range c.ArrayCounts {
		for _, r := range c.Routings {
			for _, p := range c.Policies {
				cells = append(cells, FleetCell{Arrays: n, Routing: r, Policy: p})
			}
		}
	}
	return cells
}

// CellKeys enumerates the sweep's cell identities in grid order, for
// building a telemetry.SweepTracker before the sweep starts.
func (c FleetSweepConfig) CellKeys() []string {
	c.setDefaults()
	return cellKeys(c.cells())
}

// FleetSweepResult is the full fleet-size × routing × policy grid.
type FleetSweepResult struct {
	Config FleetSweepConfig
	Cells  []FleetCell
}

// Outcomes lists every cell's outcome in grid order.
func (s *FleetSweepResult) Outcomes() []KeyedOutcome { return keyedOutcomes(s.Cells) }

// Manifest is FleetManifest over the sweep's own configuration.
func (s *FleetSweepResult) Manifest(name string) (*runstore.Manifest, error) {
	return FleetManifest(name, s.Config, s)
}

// fleetCellConfig assembles one cell's cluster configuration under the
// runner-supplied observers. Policies are stateful, so MakePolicy
// constructs a fresh member instance per call.
func (c *FleetSweepConfig) fleetCellConfig(trace *workload.Trace, epoch float64, cell *FleetCell, rec *telemetry.Recorder, watch *des.Watch) cluster.Config {
	cc := cluster.Config{
		Arrays:   cell.Arrays,
		Replicas: c.Replicas,
		Topology: cluster.Topology{Racks: c.Racks, EnclosuresPerRack: c.EnclosuresPerRack},
		Trace:    trace,
		Proto: array.Config{
			Disks:        c.Disks,
			EpochSeconds: epoch,
			Spares:       c.Spares,
		},
		MakePolicy:           func(int) (array.Policy, error) { return NewPolicy(cell.Policy) },
		Routing:              cell.Routing,
		DeadlineSeconds:      c.DeadlineSeconds,
		MaxAttempts:          c.MaxAttempts,
		RetryBaseSeconds:     c.RetryBaseSeconds,
		RetryCapSeconds:      c.RetryCapSeconds,
		RetryJitterFrac:      c.RetryJitterFrac,
		HedgeAfterP99Mult:    c.HedgeAfterP99Mult,
		HedgeFallbackSeconds: c.HedgeFallbackSeconds,
		MaxBacklog:           c.MaxBacklog,
		Seed:                 c.Seed,
		Shocks:               c.Shocks,
		Telemetry:            rec,
		Watch:                watch,
	}
	if c.Faults != nil {
		// Same seed offset across routings and policies at a given fleet
		// size: the comparison is down to the machinery, not sampling luck.
		fc := *c.Faults
		fc.Seed += int64(cell.Arrays)
		cc.Proto.Faults = &fc
	}
	return cc
}

// RunFleetSweep generates the fleet workload once and replays it through
// every (fleet size, routing, policy) cell on the shared sweep runner.
// Cell isolation, retry, and partial-result semantics follow RunSweep.
func RunFleetSweep(cfg FleetSweepConfig) (*FleetSweepResult, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	trace, epoch, err := cfg.trace()
	if err != nil {
		return nil, err
	}
	cells := cfg.cells()
	err = runGrid(&cfg.Exec, "fleet", cfg.Workload.Seed, cells, func(c *FleetCell, rec *telemetry.Recorder, watch *des.Watch) (err error) {
		c.Result, err = cluster.Run(cfg.fleetCellConfig(trace, epoch, c, rec, watch))
		return err
	})
	return &FleetSweepResult{Config: cfg, Cells: cells}, err
}

// FleetSummary condenses one cluster result into the manifest summary block,
// with the fleet resilience counters under their FleetOn gate. It is the
// fleet's runstore.SummaryFromResult, which does the same for an array
// Result; it lives here so that runstore, which imports the array package
// for that one function, does not import the cluster package too.
func FleetSummary(r *cluster.Result, faultsOn bool) runstore.Summary {
	s := runstore.Summary{
		EnergyJ:       r.EnergyJ,
		ArrayAFRPct:   r.WorstAFR,
		MeanResponseS: r.MeanResponse,
		P50ResponseS:  r.P50Response,
		P95ResponseS:  r.P95Response,
		P99ResponseS:  r.P99Response,
		P999ResponseS: r.P999Response,
		MaxResponseS:  r.MaxResponse,
		Requests:      float64(r.Requests),
		EventsFired:   float64(r.EventsFired),

		FleetOn:             true,
		FleetArrays:         float64(r.Arrays),
		FleetServed:         float64(r.Served),
		FleetRetries:        float64(r.Retries),
		FleetHedges:         float64(r.Hedges),
		FleetHedgeWins:      float64(r.HedgeWins),
		FleetFailovers:      float64(r.Failovers),
		FleetTimeouts:       float64(r.Timeouts),
		FleetDeferred:       float64(r.Deferred),
		FleetShed:           float64(r.Shed),
		FleetFailedRequests: float64(r.Failed),
		FleetShocks:         float64(r.ShocksInjected),
		FleetLostRequests:   float64(r.LostRequests),
	}
	disks := 0
	for _, a := range r.PerArray {
		for _, d := range a.PerDisk {
			s.TransitionsPerDay += d.TransitionsPerDay
			disks++
		}
	}
	if disks > 0 {
		s.TransitionsPerDay /= float64(disks)
	}
	if faultsOn {
		s.FaultsOn = true
		s.DiskFailures = float64(r.DiskFailures)
		for _, a := range r.PerArray {
			s.DataLossEvents += float64(a.DataLossEvents)
		}
	}
	return s
}

// WriteFleetCSV writes one machine-readable row per fleet cell.
func WriteFleetCSV(w io.Writer, s *FleetSweepResult) error {
	if _, err := fmt.Fprintln(w, "arrays,routing,policy,requests,served,mean_response_s,p99_response_s,retries,hedges,hedge_wins,failovers,timeouts,deferred,shed,failed,shocks,energy_j,worst_afr_pct,disk_failures,lost_requests,events_fired"); err != nil {
		return err
	}
	for _, c := range s.Cells {
		r := c.Result
		if r == nil {
			continue
		}
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%d,%d,%.6g,%.6g,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.6g,%.6g,%d,%d,%d\n",
			c.Arrays, c.Routing, c.Policy, r.Requests, r.Served,
			r.MeanResponse, r.P99Response, r.Retries, r.Hedges, r.HedgeWins,
			r.Failovers, r.Timeouts, r.Deferred, r.Shed, r.Failed,
			r.ShocksInjected, r.EnergyJ, r.WorstAFR, r.DiskFailures,
			r.LostRequests, r.EventsFired); err != nil {
			return err
		}
	}
	return nil
}

// RenderFleetSummary writes the per-cell account of a fleet sweep: served
// fraction and tail latency next to what the resilience tier did to deliver
// them, and the energy and worst-member AFR they cost.
func RenderFleetSummary(w io.Writer, s *FleetSweepResult, title string) {
	fmt.Fprintf(w, "%s\n", title)
	rows := [][]string{{
		"arrays", "routing", "policy", "served", "p99", "retries", "hedges",
		"failover", "timeout", "shed", "failed", "shocks", "energy", "worstAFR",
	}}
	for _, c := range s.Cells {
		r := c.Result
		if r == nil {
			rows = append(rows, []string{
				fmt.Sprintf("%d", c.Arrays), string(c.Routing), string(c.Policy),
				"FAILED", "-", "-", "-", "-", "-", "-", "-", "-", "-", "-",
			})
			continue
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", c.Arrays),
			string(c.Routing),
			string(c.Policy),
			fmt.Sprintf("%d/%d", r.Served, r.Requests),
			fmt.Sprintf("%.4f s", r.P99Response),
			fmt.Sprintf("%d", r.Retries),
			fmt.Sprintf("%d", r.Hedges),
			fmt.Sprintf("%d", r.Failovers),
			fmt.Sprintf("%d", r.Timeouts),
			fmt.Sprintf("%d", r.Shed),
			fmt.Sprintf("%d", r.Failed),
			fmt.Sprintf("%d", r.ShocksInjected),
			formatMetric(MetricEnergy, r.EnergyJ),
			fmt.Sprintf("%.3f%%", r.WorstAFR),
		})
	}
	writeAligned(w, rows)
}

package experiment

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/runstore"
)

// FleetManifestConfig is the digested configuration block of one fleet sweep
// condition. The execution knobs (Exec) are deliberately excluded: they
// never change results.
type FleetManifestConfig struct {
	ArrayCounts       []int                   `json:"array_counts"`
	Routings          []cluster.RoutingPolicy `json:"routings"`
	Policies          []PolicyKind            `json:"policies"`
	Replicas          int                     `json:"replicas"`
	Racks             int                     `json:"racks"`
	EnclosuresPerRack int                     `json:"enclosures_per_rack"`
	Disks             int                     `json:"disks"`
	Workload          map[string]any          `json:"workload"`
	Scale             float64                 `json:"scale"`
	Intensity         float64                 `json:"intensity"`
	EpochSeconds      float64                 `json:"epoch_seconds,omitempty"`
	EpochsPerTrace    int                     `json:"epochs_per_trace,omitempty"`

	DeadlineSeconds      float64 `json:"deadline_seconds,omitempty"`
	MaxAttempts          int     `json:"max_attempts,omitempty"`
	RetryBaseSeconds     float64 `json:"retry_base_seconds,omitempty"`
	RetryCapSeconds      float64 `json:"retry_cap_seconds,omitempty"`
	RetryJitterFrac      float64 `json:"retry_jitter_frac,omitempty"`
	HedgeAfterP99Mult    float64 `json:"hedge_after_p99_mult,omitempty"`
	HedgeFallbackSeconds float64 `json:"hedge_fallback_seconds,omitempty"`
	MaxBacklog           int     `json:"max_backlog,omitempty"`
	Seed                 int64   `json:"seed,omitempty"`

	Shocks map[string]any `json:"shocks,omitempty"`
	Faults map[string]any `json:"faults,omitempty"`
	Spares int            `json:"spares,omitempty"`
}

// FleetManifest condenses one finished fleet sweep condition into a runstore
// manifest: the digested configuration, an aggregate summary with the fleet
// resilience counters, and every cell's headline metrics flattened into
// Summary.Extra under "cell.fleet.<policy>.<routing>.<arrays>.<metric>" keys,
// so arrayreport diff compares fleets cell by cell.
func FleetManifest(name string, cfg FleetSweepConfig, res *FleetSweepResult) (*runstore.Manifest, error) {
	m, err := newFleetManifest(name, cfg)
	if err != nil {
		return nil, err
	}
	faultsOn := cfg.Faults != nil && cfg.Faults.Enabled
	gridManifest(m, res.Cells, func(c *FleetCell, prefix string, extra map[string]float64) runstore.Summary {
		cs := FleetSummary(c.Result, faultsOn)
		extra[prefix+"worst_afr_pct"] = cs.ArrayAFRPct
		extra[prefix+"p99_response_s"] = cs.P99ResponseS
		extra[prefix+"served"] = cs.FleetServed
		extra[prefix+"retries"] = cs.FleetRetries
		extra[prefix+"hedges"] = cs.FleetHedges
		extra[prefix+"hedge_wins"] = cs.FleetHedgeWins
		extra[prefix+"failovers"] = cs.FleetFailovers
		extra[prefix+"timeouts"] = cs.FleetTimeouts
		extra[prefix+"deferred"] = cs.FleetDeferred
		extra[prefix+"shed"] = cs.FleetShed
		extra[prefix+"failed_requests"] = cs.FleetFailedRequests
		extra[prefix+"shocks"] = cs.FleetShocks
		extra[prefix+"lost_requests"] = cs.FleetLostRequests
		return cs
	})
	return m, nil
}

// newFleetManifest builds the fleet sweep's manifest shell; see
// newManifest.
func newFleetManifest(name string, cfg FleetSweepConfig) (*runstore.Manifest, error) {
	cfg.setDefaults()
	mc := FleetManifestConfig{
		ArrayCounts:          cfg.ArrayCounts,
		Routings:             cfg.Routings,
		Policies:             cfg.Policies,
		Replicas:             cfg.Replicas,
		Racks:                cfg.Racks,
		EnclosuresPerRack:    cfg.EnclosuresPerRack,
		Disks:                cfg.Disks,
		Workload:             asMap(cfg.Workload),
		Scale:                cfg.Scale,
		Intensity:            cfg.Intensity,
		EpochSeconds:         cfg.EpochSeconds,
		EpochsPerTrace:       cfg.EpochsPerTrace,
		DeadlineSeconds:      cfg.DeadlineSeconds,
		MaxAttempts:          cfg.MaxAttempts,
		RetryBaseSeconds:     cfg.RetryBaseSeconds,
		RetryCapSeconds:      cfg.RetryCapSeconds,
		RetryJitterFrac:      cfg.RetryJitterFrac,
		HedgeAfterP99Mult:    cfg.HedgeAfterP99Mult,
		HedgeFallbackSeconds: cfg.HedgeFallbackSeconds,
		MaxBacklog:           cfg.MaxBacklog,
		Seed:                 cfg.Seed,
		Spares:               cfg.Spares,
	}
	if cfg.Shocks.Active() {
		mc.Shocks = asMap(cfg.Shocks)
	}
	if cfg.Faults != nil {
		mc.Faults = asMap(*cfg.Faults)
	}
	return newManifest(name, mc, cfg.Workload.Seed, cfg.Policies,
		fmt.Sprintf("fleet scale %g intensity %g", cfg.Scale, cfg.Intensity))
}

// FleetManifestID computes the run-store ID a fleet sweep condition would be
// recorded under, without running it; the resumable driver uses it to skip
// already-recorded conditions.
func FleetManifestID(name string, cfg FleetSweepConfig) (string, error) {
	return manifestID(newFleetManifest(name, cfg))
}

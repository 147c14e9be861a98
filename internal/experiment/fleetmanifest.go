package experiment

import "repro/internal/runstore"

// FleetManifest condenses one finished fleet sweep condition into a runstore
// manifest: the digested configuration (cfg itself, defaulted), an
// aggregate summary with the fleet resilience counters, and every cell's
// headline metrics flattened into Summary.Extra under
// "cell.fleet.<policy>.<routing>.<arrays>.<metric>" keys, so arrayreport
// diff compares fleets cell by cell.
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
	return newManifest(name, &cfg, &cfg.TraceSpec, cfg.Policies, "fleet ")
}

// FleetManifestID computes the run-store ID a fleet sweep condition would be
// recorded under, without running it; the resumable driver uses it to skip
// already-recorded conditions.
func FleetManifestID(name string, cfg FleetSweepConfig) (string, error) {
	return manifestID(newFleetManifest(name, cfg))
}

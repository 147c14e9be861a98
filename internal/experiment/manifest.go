package experiment

import (
	"fmt"

	"repro/internal/array"
	"repro/internal/runstore"
	"repro/internal/telemetry"
)

// SweepManifestConfig is the digested configuration block of one sweep
// condition's manifest. It carries exactly the parameters that determine the
// sweep's results — execution knobs (Parallelism, Track) and the
// non-serializable Press override are deliberately excluded, the latter
// surfaced as a marker instead so a custom-model run never shares a digest
// with a default-model run.
type SweepManifestConfig struct {
	DiskCounts     []int          `json:"disk_counts"`
	Policies       []PolicyKind   `json:"policies"`
	Workload       map[string]any `json:"workload"`
	Scale          float64        `json:"scale"`
	Intensity      float64        `json:"intensity"`
	EpochSeconds   float64        `json:"epoch_seconds,omitempty"`
	EpochsPerTrace int            `json:"epochs_per_trace,omitempty"`
	CustomPress    bool           `json:"custom_press,omitempty"`
	Faults         map[string]any `json:"faults,omitempty"`
	Spares         int            `json:"spares,omitempty"`
	RebuildMBps    float64        `json:"rebuild_mbps,omitempty"`
	// RAID axis; omitted (and digest-neutral) when the sweep has none.
	RAIDLevels      []array.RAIDLevel `json:"raid_levels,omitempty"`
	RAIDStripeWidth int               `json:"raid_stripe_width,omitempty"`
}

// SweepManifest condenses one finished sweep condition into a runstore
// manifest: the digested configuration, an aggregate summary over all cells,
// and every cell's headline metrics flattened into Summary.Extra under
// "cell.<policy>.<disks>.<metric>" keys, so arrayreport diff compares sweeps
// cell by cell, not just in aggregate.
func SweepManifest(name string, cfg SweepConfig, res *SweepResult) (*runstore.Manifest, error) {
	m, err := newSweepManifest(name, cfg)
	if err != nil {
		return nil, err
	}
	faultsOn := cfg.Faults != nil && cfg.Faults.Enabled
	gridManifest(m, res.Cells, func(c *Cell, prefix string, extra map[string]float64) runstore.Summary {
		cs := runstore.SummaryFromResult(c.Result, faultsOn)
		extra[prefix+"array_afr_pct"] = cs.ArrayAFRPct
		if faultsOn && c.Result.LSEModeled {
			extra[prefix+"lse_errors"] = float64(c.Result.LSEErrors)
			extra[prefix+"lse_cleared"] = float64(c.Result.LSECleared)
			extra[prefix+"scrubs"] = float64(c.Result.Scrubs)
		}
		// The RAID segment appears only on RAID-axis sweeps, so the cell
		// keys (and therefore diffs against pre-RAID manifests) of plain
		// sweeps are unchanged.
		if c.RAID != "" && c.Result.RAIDLevel != "" {
			extra[prefix+"raid_loss_events"] = float64(c.Result.RAIDDataLossEvents)
			extra[prefix+"mttdl_est_hours"] = c.Result.MTTDLEstHours
		}
		return cs
	})
	m.Attribution = aggregateAttribution(res.Cells)
	return m, nil
}

// gridManifest fills m's summary, status, and per-cell perf section from a
// finished grid of either kind. summarize returns a completed cell's
// summary and adds the cell kind's own metrics to extra under prefix
// ("cell.<key>."); this loop adds the keys every kind shares, the attempts
// and failed markers, and the aggregate: energy, requests, events, and
// every counter summed, intensive metrics averaged over completed cells.
func gridManifest[C any, P cellPtr[C]](m *runstore.Manifest, cells []C, summarize func(c P, prefix string, extra map[string]float64) runstore.Summary) {
	var sum runstore.Summary
	sum.Extra = make(map[string]float64, 8*len(cells))
	status := CellOK
	okCells := 0
	perfCells := make(map[string]runstore.PerfSample)
	for i := range cells {
		c := P(&cells[i])
		o := c.outcome()
		prefix := "cell." + c.Key() + "."
		if o.Perf != nil {
			perfCells[c.Key()] = *o.Perf
		}
		if o.Attempts > 0 {
			sum.Extra[prefix+"attempts"] = float64(o.Attempts)
		}
		if o.Status == CellFailed {
			// A failed cell contributes a marker instead of metrics, so the
			// diff toolchain flags it as a metric-set mismatch rather than
			// comparing against silent zeros.
			sum.Extra[prefix+"failed"] = 1
			status = CellFailed
			continue
		}
		if o.Status == CellRetried && status != CellFailed {
			status = CellRetried
		}
		okCells++
		cs := summarize(c, prefix, sum.Extra)
		sum.EnergyJ += cs.EnergyJ
		sum.ArrayAFRPct += cs.ArrayAFRPct
		sum.MeanResponseS += cs.MeanResponseS
		sum.P50ResponseS += cs.P50ResponseS
		sum.P95ResponseS += cs.P95ResponseS
		sum.P99ResponseS += cs.P99ResponseS
		sum.P999ResponseS += cs.P999ResponseS
		if cs.MaxResponseS > sum.MaxResponseS {
			sum.MaxResponseS = cs.MaxResponseS
		}
		sum.TransitionsPerDay += cs.TransitionsPerDay
		sum.Requests += cs.Requests
		sum.EventsFired += cs.EventsFired
		sum.Extra[prefix+"energy_j"] = cs.EnergyJ
		sum.Extra[prefix+"mean_response_s"] = cs.MeanResponseS
		sum.Extra[prefix+"events_fired"] = cs.EventsFired
		if cs.FleetOn {
			sum.FleetOn = true
			sum.FleetArrays += cs.FleetArrays
			sum.FleetServed += cs.FleetServed
			sum.FleetRetries += cs.FleetRetries
			sum.FleetHedges += cs.FleetHedges
			sum.FleetHedgeWins += cs.FleetHedgeWins
			sum.FleetFailovers += cs.FleetFailovers
			sum.FleetTimeouts += cs.FleetTimeouts
			sum.FleetDeferred += cs.FleetDeferred
			sum.FleetShed += cs.FleetShed
			sum.FleetFailedRequests += cs.FleetFailedRequests
			sum.FleetShocks += cs.FleetShocks
			sum.FleetLostRequests += cs.FleetLostRequests
		}
		if cs.FaultsOn {
			sum.FaultsOn = true
			sum.DiskFailures += cs.DiskFailures
			sum.DataLossEvents += cs.DataLossEvents
			sum.Extra[prefix+"disk_failures"] = cs.DiskFailures
			sum.Extra[prefix+"data_loss_events"] = cs.DataLossEvents
		}
	}
	if n := float64(okCells); n > 0 {
		sum.ArrayAFRPct /= n
		sum.MeanResponseS /= n
		sum.P50ResponseS /= n
		sum.P95ResponseS /= n
		sum.P99ResponseS /= n
		sum.P999ResponseS /= n
		sum.TransitionsPerDay /= n
	}
	m.Summary = sum
	m.Status = string(status)
	if len(perfCells) > 0 {
		// Per-cell self-performance rides outside Summary (like
		// Attribution): wall-clocks differ run to run by construction and
		// must never join the diffed metric set. The caller fills Perf.Run.
		m.Perf = &runstore.Perf{Cells: perfCells}
	}
}

// aggregateAttribution rolls the per-cell attribution reports into one
// sweep-wide report (nil when no cell traced decisions). Per-epoch rows are
// per-cell detail and do not aggregate meaningfully across cells, so only
// the totals and decision counts are merged.
func aggregateAttribution(cells []Cell) *telemetry.AttributionReport {
	var out *telemetry.AttributionReport
	for _, c := range cells {
		if c.Result == nil || c.Result.Attribution == nil {
			continue
		}
		a := c.Result.Attribution
		if out == nil {
			out = &telemetry.AttributionReport{}
		}
		out.Totals.Add(a.Totals)
		out.Decisions += a.Decisions
		out.SpinDowns += a.SpinDowns
		out.SpinUps += a.SpinUps
		out.Migrations += a.Migrations
		out.Reassigns += a.Reassigns
		out.RebuildPaces += a.RebuildPaces
		out.WakeRequests += a.WakeRequests
		out.ParkedSeconds += a.ParkedSeconds
		out.ParkNetSavedJ += a.ParkNetSavedJ
	}
	return out
}

// newSweepManifest builds the sweep's manifest shell; see newManifest.
func newSweepManifest(name string, cfg SweepConfig) (*runstore.Manifest, error) {
	cfg.setDefaults()
	mc := SweepManifestConfig{
		DiskCounts:      cfg.DiskCounts,
		Policies:        cfg.Policies,
		Workload:        asMap(cfg.Workload),
		Scale:           cfg.Scale,
		Intensity:       cfg.Intensity,
		EpochSeconds:    cfg.EpochSeconds,
		EpochsPerTrace:  cfg.EpochsPerTrace,
		CustomPress:     cfg.Press != nil,
		Spares:          cfg.Spares,
		RebuildMBps:     cfg.RebuildMBps,
		RAIDLevels:      cfg.RAIDLevels,
		RAIDStripeWidth: cfg.RAIDStripeWidth,
	}
	if cfg.Faults != nil {
		mc.Faults = asMap(*cfg.Faults)
	}
	return newManifest(name, mc, cfg.Workload.Seed, cfg.Policies,
		fmt.Sprintf("scale %g intensity %g", cfg.Scale, cfg.Intensity))
}

// newManifest builds the manifest shell both sweep kinds share — digested
// config block mc, workload seed, policy list, workload line — without the
// summary block. A sweep's manifest and its ManifestID both derive from it,
// so the resume-skip ID always matches the recorded one.
func newManifest(name string, mc any, seed int64, policies []PolicyKind, workload string) (*runstore.Manifest, error) {
	m, err := runstore.New("experiments", name, mc)
	if err != nil {
		return nil, err
	}
	m.Seed = seed
	m.Policy = policyList(policies)
	m.Workload = workload
	return m, nil
}

// SweepManifestID computes the run-store ID a sweep condition would be
// recorded under, without running the sweep. A resumable driver uses it to
// skip conditions whose store entry already exists with an ok status.
func SweepManifestID(name string, cfg SweepConfig) (string, error) {
	return manifestID(newSweepManifest(name, cfg))
}

func manifestID(m *runstore.Manifest, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return m.ID(), nil
}

// asMap flattens a config struct through its JSON form so the manifest's
// config block (and therefore the digest) only sees exported, serialized
// state.
func asMap(v any) map[string]any {
	out, err := runstore.ToJSONMap(v)
	if err != nil {
		// All config types here are plain data; failure is a programming
		// error surfaced at first use in tests.
		panic(fmt.Sprintf("experiment: config not serializable: %v", err))
	}
	return out
}

func policyList(ps []PolicyKind) string {
	s := ""
	for i, p := range ps {
		if i > 0 {
			s += "+"
		}
		s += string(p)
	}
	return s
}

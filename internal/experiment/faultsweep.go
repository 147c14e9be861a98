package experiment

// The fault sweep is the experiment the fault-injection subsystem exists
// for: the same policy comparison as Figure 7, but with Weibull failures
// (hazard-scaled by each disk's live PRESS AFR) actually injected, so the
// policies are compared on energy consumed AND data loss observed — the
// paper's trade-off measured on both sides instead of predicted on one.

import (
	"fmt"
	"io"

	"repro/internal/faults"
)

// FaultSweepAcceleration compresses the reliability timescale for the
// default fault sweep so that a trace lasting minutes of virtual time sees
// a handful of decade-scale Weibull failures per array. At 2×10^5 — with
// PRESS scaling multiplying the base hazard by a further ~3-4× at the
// default operating points — the default interactive trace produces roughly
// one to three failures per cell across the 6-16 disk sweep.
const FaultSweepAcceleration = 2e5

// DefaultFaultSweepConfig returns the light-workload policy comparison with
// fault injection enabled: PRESS-scaled hazard, accelerated timescale, one
// hot spare, and default-paced rebuilds.
func DefaultFaultSweepConfig() SweepConfig {
	cfg := DefaultSweepConfig()
	fc := faults.Default()
	fc.Acceleration = FaultSweepAcceleration
	cfg.Faults = &fc
	cfg.Spares = 1
	return cfg
}

// RenderFaultSummary writes the observed-reliability account of a
// fault-injecting sweep: for every (array size, policy) cell, the energy
// consumed next to the failures observed and what they cost — the "is it
// worthwhile?" question with both sides measured.
func RenderFaultSummary(w io.Writer, s *SweepResult, title string) {
	fmt.Fprintf(w, "%s\n", title)
	rows := [][]string{{
		"disks", "policy", "energy", "failures", "spares", "dataloss",
		"lost", "degraded", "reassigned", "rebuild", "MTTDL",
	}}
	for _, c := range s.Cells {
		r := c.Result
		if r == nil {
			rows = append(rows, []string{
				fmt.Sprintf("%d", c.Disks), string(c.Policy),
				"FAILED", "-", "-", "-", "-", "-", "-", "-", "-",
			})
			continue
		}
		mttdl := "-"
		if r.MTTDLHours > 0 {
			mttdl = fmt.Sprintf("%.2f h", r.MTTDLHours)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", c.Disks),
			string(c.Policy),
			formatMetric(MetricEnergy, r.EnergyJ),
			fmt.Sprintf("%d", r.DiskFailures),
			fmt.Sprintf("%d", r.SparesUsed),
			fmt.Sprintf("%d", r.DataLossEvents),
			fmt.Sprintf("%d", r.LostRequests),
			fmt.Sprintf("%d", r.DegradedRequests),
			fmt.Sprintf("%d", r.ReassignedFiles),
			fmt.Sprintf("%.0f MB", r.RebuildMB),
			mttdl,
		})
	}
	writeAligned(w, rows)
}

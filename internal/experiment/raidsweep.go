package experiment

// The RAID-loss sweep is the reliability counterpart of the fault sweep:
// instead of counting spare-pool exhaustion, it organizes the array into a
// redundancy scheme (RAID-5/6 or 2/3-way replication) and counts the failure
// *combinations* that actually lose data — a second disk (or unscrubbed
// latent sector error) giving out while a rebuild is still running. Crossing
// that with the energy policies answers the paper's question at the data
// level: how much does each watt saved cost in mean time to data loss?

import (
	"fmt"
	"io"
	"math"

	"repro/internal/array"
	"repro/internal/faults"
	"repro/internal/reliability"
	"repro/internal/stats"
)

// RAIDLossAcceleration compresses the reliability timescale for the default
// RAID-loss sweep. Data loss needs *coincident* failures, which are far
// rarer than single failures, so the sweep runs hotter than the fault
// sweep's 2e5 to observe a usable number of loss events per cell.
const RAIDLossAcceleration = 5e5

// DefaultRAIDLossSweepConfig returns the MTTDL-per-policy experiment: every
// energy policy crossed with every RAID organization at a single array size,
// with latent sector errors, Weibull-interval scrubbing, and Weibull rebuild
// durations all enabled. Two hot spares keep the arrays repairing (so losses
// come from failure overlap, not spare exhaustion) without hiding rebuild
// windows.
func DefaultRAIDLossSweepConfig() SweepConfig {
	cfg := DefaultSweepConfig()
	cfg.DiskCounts = []int{12}
	cfg.Policies = AllPolicyKinds()
	cfg.RAIDLevels = []array.RAIDLevel{array.RAID5, array.RAID6, array.Repl2, array.Repl3}
	fc := faults.Default()
	fc.Acceleration = RAIDLossAcceleration
	fc.LSERatePerHour = faults.DefaultLSERatePerHour
	fc.RebuildTime = &reliability.Weibull{Shape: 1, ScaleHours: 12}
	cfg.Faults = &fc
	cfg.Spares = 2
	return cfg
}

// RenderRAIDLoss writes the MTTDL-per-policy account of a RAID-loss sweep:
// one row per (RAID organization, policy) cell with the loss events broken
// down by mechanism — rebuild windows pierced by a latent sector error
// versus outright overlapping failures — and the exposure-based MTTDL
// estimate with its 95% confidence bounds.
func RenderRAIDLoss(w io.Writer, s *SweepResult, title string) {
	fmt.Fprintf(w, "%s\n", title)
	rows := [][]string{{
		"raid", "policy", "disks", "energy", "failures", "lse", "scrubbed",
		"losses", "lse-loss", "overlap", "MTTDL", "MTTDL-95%",
	}}
	for _, c := range s.Cells {
		r := c.Result
		raid := string(c.RAID)
		if raid == "" {
			raid = "-"
		}
		if r == nil {
			rows = append(rows, []string{
				raid, string(c.Policy), fmt.Sprintf("%d", c.Disks),
				"FAILED", "-", "-", "-", "-", "-", "-", "-", "-",
			})
			continue
		}
		mttdl, bounds := "-", "-"
		if r.RAIDLevel != "" {
			est := stats.MTTDL{ExposureHours: r.ExposureHours, Events: r.RAIDDataLossEvents}
			if h := est.Hours(); h > 0 && !math.IsInf(h, 1) {
				mttdl = fmt.Sprintf("%.3g h", h)
			} else {
				// No loss observed: the exposure gives only a lower bound.
				mttdl = fmt.Sprintf(">%.3g h", est.LowerHours())
			}
			up := "inf"
			if u := est.UpperHours(); !math.IsInf(u, 1) {
				up = fmt.Sprintf("%.3g", u)
			}
			bounds = fmt.Sprintf("[%.3g, %s]", est.LowerHours(), up)
		}
		rows = append(rows, []string{
			raid,
			string(c.Policy),
			fmt.Sprintf("%d", c.Disks),
			formatMetric(MetricEnergy, r.EnergyJ),
			fmt.Sprintf("%d", r.DiskFailures),
			fmt.Sprintf("%d", r.LSEErrors),
			fmt.Sprintf("%d", r.LSECleared),
			fmt.Sprintf("%d", r.RAIDDataLossEvents),
			fmt.Sprintf("%d", r.RAIDLSELosses),
			fmt.Sprintf("%d", r.RAIDOverlapLosses),
			mttdl,
			bounds,
		})
	}
	writeAligned(w, rows)
}

package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// Sample is one row of the array timeline: the array-wide aggregates of one
// disk walk, at an epoch boundary or at the run-final sample. The same walk
// writes the walk's DiskSamples and publishes Live's epoch gauges, so a row
// equals the sums over its DiskSamples.
type Sample struct {
	// T is the virtual time of the walk.
	T float64
	// EnergyJ is the array's cumulative energy at T, in joules.
	EnergyJ float64
	// HighDisks counts disks spinning at high speed (DiskSample.Speed).
	HighDisks int
	// Queued counts operations waiting (not in service) across the array.
	Queued int
	// InService counts disks currently serving.
	InService int
	// Completed is the cumulative user-request completions.
	Completed uint64
}

// powerW gives each row's mean array power over the interval since the
// previous row. The first row's interval starts at time zero, where every
// run's energy starts, and a row at its predecessor's time repeats its
// power, so every value is finite.
func powerW(rows []Sample) []float64 {
	power := make([]float64, len(rows))
	var t, energy, p float64
	for i, r := range rows {
		if r.T > t {
			p = (r.EnergyJ - energy) / (r.T - t)
		}
		power[i] = p
		t, energy = r.T, r.EnergyJ
	}
	return power
}

// WriteTimelineCSV exports timeline rows as CSV with a fixed header row.
// Floats are formatted with full round-trip precision so exported rows can
// be compared exactly across runs.
func WriteTimelineCSV(w io.Writer, rows []Sample) error {
	if _, err := fmt.Fprintln(w, "t,power_w,high_disks,queued,in_service,completed"); err != nil {
		return err
	}
	for i, p := range powerW(rows) {
		r := rows[i]
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d\n",
			g(r.T), g(p), r.HighDisks, r.Queued, r.InService, r.Completed); err != nil {
			return err
		}
	}
	return nil
}

// RenderTimeline prints a compact fixed-width view of timeline rows,
// downsampled to at most maxRows rows (at least two), with a power sparkbar.
// Rows that share a time print once, as the later row, and the last row,
// the run-final one that equals the Result, always prints.
func RenderTimeline(w io.Writer, rows []Sample, maxRows int) {
	if len(rows) == 0 {
		fmt.Fprintln(w, "(no timeline samples; attach a telemetry recorder)")
		return
	}
	keep := make([]int, 0, len(rows))
	for i := range rows {
		if i+1 == len(rows) || rows[i+1].T != rows[i].T {
			keep = append(keep, i)
		}
	}
	// Every stride-th row from the first, then the last: ceil((n-1)/(m-1))
	// keeps the count within m.
	stride := (len(keep)-2)/(max(maxRows, 2)-1) + 1
	power := powerW(rows)
	var maxPower float64
	for _, p := range power {
		maxPower = max(maxPower, p)
	}
	fmt.Fprintf(w, "%10s %9s %6s %7s %8s %10s  %s\n",
		"time(s)", "power(W)", "high", "queue", "serving", "done", "power bar")
	for j, i := range keep {
		if j%stride != 0 && j != len(keep)-1 {
			continue
		}
		r := rows[i]
		bar := ""
		if maxPower > 0 {
			bar = strings.Repeat("#", int(power[i]/maxPower*30))
		}
		fmt.Fprintf(w, "%10.0f %9.1f %6d %7d %8d %10d  %s\n",
			r.T, power[i], r.HighDisks, r.Queued, r.InService, r.Completed, bar)
	}
}

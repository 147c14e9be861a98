package array

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/des"
	"repro/internal/diskmodel"
)

// Sample is one point of the run's time series.
type Sample struct {
	// T is the virtual time of the sample.
	T float64
	// PowerW is the mean array power over the interval ending at T.
	PowerW float64
	// HighDisks counts disks at (or transitioning toward) high speed.
	HighDisks int
	// Queued counts requests waiting (not in service) across the array.
	Queued int
	// InService counts disks currently serving.
	InService int
	// Completed is the cumulative user-request completions.
	Completed uint64
}

// installSampler arms periodic timeline sampling when cfg.SampleInterval is
// positive. Samples stop with the trace (plus one tail sample at drain).
func (s *sim) installSampler() {
	if s.cfg.SampleInterval <= 0 {
		return
	}
	s.schedule(s.cfg.SampleInterval, sampleEvent(0))
}

// onSampleTick records one timeline sample. lastEnergy is the array energy
// at the previous sample, threaded through the event record (it used to be
// a closure variable) so the power delta survives a checkpoint/restore.
func (s *sim) onSampleTick(e *des.Engine, lastEnergy float64) {
	now := e.Now()
	var energy float64
	high, queued, serving := 0, 0, 0
	for _, ds := range s.disks {
		energy += ds.disk.EnergyJ(now)
		speed := ds.disk.Speed()
		if ds.disk.State() == diskmodel.Transitioning {
			// Attribute to the target, like the thermal model.
			if p := ds.pending; p != nil {
				speed = *p
			}
		}
		if speed == diskmodel.High {
			high++
		}
		queued += ds.queueLen()
		if ds.disk.State() == diskmodel.Active {
			serving++
		}
	}
	power := (energy - lastEnergy) / s.cfg.SampleInterval
	s.timeline = append(s.timeline, Sample{
		T:         now,
		PowerW:    power,
		HighDisks: high,
		Queued:    queued,
		InService: serving,
		Completed: s.respHist.N(),
	})
	if s.workRemains() {
		s.schedule(s.cfg.SampleInterval, sampleEvent(energy))
	}
}

// WriteTimelineCSV exports a timeline as CSV with a fixed header row. Floats
// are formatted with full round-trip precision so exported rows can be
// compared exactly across runs.
func WriteTimelineCSV(w io.Writer, samples []Sample) error {
	if _, err := fmt.Fprintln(w, "t,power_w,high_disks,queued,in_service,completed"); err != nil {
		return err
	}
	for _, s := range samples {
		_, err := fmt.Fprintf(w, "%s,%s,%d,%d,%d,%d\n",
			strconv.FormatFloat(s.T, 'g', -1, 64),
			strconv.FormatFloat(s.PowerW, 'g', -1, 64),
			s.HighDisks, s.Queued, s.InService, s.Completed)
		if err != nil {
			return err
		}
	}
	return nil
}

// RenderTimeline prints a compact fixed-width view of a timeline,
// downsampled to at most maxRows rows, with a power sparkbar.
func RenderTimeline(w io.Writer, samples []Sample, maxRows int) {
	if len(samples) == 0 {
		fmt.Fprintln(w, "(no timeline samples; set SimConfig.SampleInterval)")
		return
	}
	if maxRows < 1 {
		maxRows = 1
	}
	stride := (len(samples) + maxRows - 1) / maxRows
	var maxPower float64
	for _, s := range samples {
		if s.PowerW > maxPower {
			maxPower = s.PowerW
		}
	}
	fmt.Fprintf(w, "%10s %9s %6s %7s %8s %10s  %s\n",
		"time(s)", "power(W)", "high", "queue", "serving", "done", "power bar")
	for i := 0; i < len(samples); i += stride {
		s := samples[i]
		bar := ""
		if maxPower > 0 {
			n := int(s.PowerW / maxPower * 30)
			bar = strings.Repeat("#", n)
		}
		fmt.Fprintf(w, "%10.0f %9.1f %6d %7d %8d %10d  %s\n",
			s.T, s.PowerW, s.HighDisks, s.Queued, s.InService, s.Completed, bar)
	}
}

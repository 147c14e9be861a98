package runcmd

import (
	"testing"
	"time"

	"repro/internal/telemetry"
)

// The -progress line is a rendering of the ops plane's snapshot; these pin
// it for a fixed run snapshot and a fixed sweep snapshot.
func TestProgressLines(t *testing.T) {
	live := telemetry.LiveSnapshot{SimSeconds: 3600, Events: 120000, Requests: 40000, Arrivals: 40010, EnergyJ: 54321.5}
	if got, want := liveLine(live, 2500*time.Millisecond), "sim=3600.0s events=120000 speedup=1440x (t+2.5s)"; got != want {
		t.Errorf("liveLine = %q, want %q", got, want)
	}
	if got, want := liveLine(telemetry.LiveSnapshot{}, 0), "sim=0.0s events=0 speedup=0x (t+0s)"; got != want {
		t.Errorf("liveLine at start = %q, want %q", got, want)
	}
	sweep := telemetry.SweepSnapshot{Total: 18, Pending: 9, Running: 2, Done: 6, Failed: 1,
		ElapsedSeconds: 12.3456, EventsPerSecond: 81234.6, ETASeconds: 61.4}
	if got, want := SweepLine(sweep), "cells=6/18 running=2 failed=1 events/s=81235 eta=1m1s (t+12.346s)"; got != want {
		t.Errorf("SweepLine = %q, want %q", got, want)
	}
	sweep.ETASeconds = -1
	if got, want := SweepLine(sweep), "cells=6/18 running=2 failed=1 events/s=81235 eta=? (t+12.346s)"; got != want {
		t.Errorf("SweepLine without an ETA = %q, want %q", got, want)
	}
}

// With neither -ops-addr nor -progress there is no monitor, and the nil
// monitor hands out no views, so the run stays unobserved.
func TestNilMonitor(t *testing.T) {
	cmd, _ := testCommand("sim")
	cmd.parse(nil)
	m := cmd.Observe(false)
	if m != nil {
		t.Fatal("Observe(false) without -ops-addr returned a monitor")
	}
	if live, watch := m.Run("run", 2); live != nil || watch != nil {
		t.Error("a nil monitor handed out run views")
	}
	if m.Sweep("sweep", []string{"a"}, 1) != nil {
		t.Error("a nil monitor handed out a sweep tracker")
	}
	m.MarkDone()
	m.Close()
}

// A progress-only monitor hands out views and closes its ticker cleanly.
func TestProgressMonitorViews(t *testing.T) {
	cmd, _ := testCommand("sim")
	cmd.parse([]string{"-quiet"})
	m := cmd.Observe(true)
	defer m.Close()
	live, watch := m.Run("run", 2)
	if live == nil || watch == nil || live.Rows() != 2 {
		t.Fatalf("run views %v %v", live, watch)
	}
	if tr := m.Sweep("sweep", []string{"a", "b"}, 1); tr.Snapshot().Total != 2 {
		t.Fatal("sweep tracker does not hold the sweep's cells")
	}
}

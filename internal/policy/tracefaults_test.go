package policy

import (
	"reflect"
	"testing"

	"repro/internal/array"
	"repro/internal/faults"
	"repro/internal/telemetry"
)

// TestREADTracedSpareCoveredFailure runs READ with decision tracing through
// a failure that a hot spare covers. READ leaves a covered disk's files in
// place, so arrivals for the dead disk bypass the normal enqueue path and
// wait out the repair on its queue. Tracing must carry those parked ops
// through service and attribution, and it must observe the run without
// steering it.
func TestREADTracedSpareCoveredFailure(t *testing.T) {
	tr := genTrace(t, 200, 4000, 0.005, 0.8) // ~20 s
	cfg := func(rec *telemetry.Recorder) array.Config {
		return array.Config{
			Disks:  8,
			Trace:  tr,
			Policy: NewREAD(READConfig{}),
			Spares: 1,
			Faults: &faults.Config{
				Enabled:              true,
				Seed:                 1,
				Acceleration:         3600, // FixedRepairHours reads as seconds
				FixedRepairHours:     5,
				CheckIntervalSeconds: 1,
				Scripted:             []faults.ScriptedEvent{{Disk: 0, At: 5}},
			},
			Telemetry: rec,
		}
	}
	off := run(t, cfg(nil))
	log := telemetry.NewDecisionLog()
	on := run(t, cfg(&telemetry.Recorder{Decisions: log}))

	if off.DiskFailures != 1 || off.SparesUsed != 1 || off.DiskRepairs != 1 {
		t.Fatalf("failures/spares/repairs = %d/%d/%d, want 1/1/1",
			off.DiskFailures, off.SparesUsed, off.DiskRepairs)
	}
	if off.DegradedRequests == 0 {
		t.Fatal("no request waited out the covered outage; the test exercises nothing")
	}
	a := on.Attribution
	if a == nil {
		t.Fatal("traced run missing its attribution report")
	}
	if a.Totals.Requests != off.Requests {
		t.Errorf("attributed %d requests, run completed %d", a.Totals.Requests, off.Requests)
	}
	if a.Totals.DegradedRequests == 0 {
		t.Error("attribution counted no request served by the replacement")
	}
	if log.Len() == 0 {
		t.Error("traced run recorded no decisions")
	}
	on.Attribution = nil
	if !reflect.DeepEqual(off, on) {
		t.Fatalf("decision tracing changed the result:\noff: %+v\non:  %+v", off, on)
	}
}

package array

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/telemetry"
)

// decisionWorkload runs a workload whose idle threshold is short enough that
// disks actually park and wake — the decision mix these tests need.
func decisionWorkload(t *testing.T, rec *telemetry.Recorder, overrides map[uint64]string) *Result {
	t.Helper()
	res, err := Run(Config{
		Disks:             4,
		Trace:             tinyTrace(t, 40, 3000, 0.02), // ~60 s
		Policy:            &spinDownPolicy{h: 0.3},
		EpochSeconds:      10,
		Telemetry:         rec,
		DecisionOverrides: overrides,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// decisionRun executes the reference workload with decision tracing on and
// returns the result and the populated log.
func decisionRun(t *testing.T) (*Result, *telemetry.DecisionLog) {
	t.Helper()
	log := telemetry.NewDecisionLog()
	res := decisionWorkload(t, &telemetry.Recorder{Decisions: log}, nil)
	if log.Len() == 0 {
		t.Fatal("reference workload produced no decisions; the tests below exercise nothing")
	}
	return res, log
}

// Decision tracing obeys the same central invariant as the rest of
// telemetry: it observes the run, it never steers it. The only permitted
// difference in the traced Result is the attribution report itself.
func TestDecisionTracingOnOffResultsIdentical(t *testing.T) {
	off := decisionWorkload(t, nil, nil)
	on, _ := decisionRun(t)

	if off.Attribution != nil {
		t.Fatal("untraced run carries an attribution report")
	}
	if on.Attribution == nil {
		t.Fatal("traced run missing its attribution report")
	}
	on.Attribution = nil
	if !reflect.DeepEqual(off, on) {
		t.Fatalf("decision tracing changed the result:\noff: %+v\non:  %+v", off, on)
	}
}

func TestDecisionLogContents(t *testing.T) {
	res, log := decisionRun(t)

	var downs, ups, observedDowns int
	for i, rec := range log.Records() {
		if rec.Seq != uint64(i)+1 {
			t.Fatalf("record %d has seq %d; the log must be dense and 1-based", i, rec.Seq)
		}
		if rec.T < 0 || rec.Epoch < 0 {
			t.Fatalf("record %d has negative time or epoch: %+v", i, rec)
		}
		switch rec.Kind {
		case telemetry.DecisionSpinDown:
			downs++
			// The test policy spins down on idle timeout without declaring a
			// cause, so the hook-context fallback must have named it.
			if rec.Cause != "idle-threshold" {
				t.Fatalf("spin-down %d has cause %q, want idle-threshold", rec.Seq, rec.Cause)
			}
			if rec.PredictedSaveW <= 0 || rec.PredictedJ <= 0 || rec.PredictedWaitS <= 0 {
				t.Fatalf("spin-down %d missing predicted costs: %+v", rec.Seq, rec)
			}
			if rec.Observed {
				observedDowns++
				if rec.ObservedParkedS <= 0 {
					t.Fatalf("observed spin-down %d parked for %v s", rec.Seq, rec.ObservedParkedS)
				}
			}
		case telemetry.DecisionSpinUp:
			ups++
			if rec.Observed && rec.ObservedWaitS <= 0 {
				t.Fatalf("observed spin-up %d took %v s", rec.Seq, rec.ObservedWaitS)
			}
		}
	}
	if downs == 0 || ups == 0 || observedDowns == 0 {
		t.Fatalf("workload too tame: %d spin-downs (%d observed), %d spin-ups", downs, observedDowns, ups)
	}

	// The attribution rollup decomposes every completed request and its
	// decision counters partition the log.
	rep := res.Attribution
	if rep.Totals.Requests != res.Requests {
		t.Fatalf("attributed %d requests, run completed %d", rep.Totals.Requests, res.Requests)
	}
	if rep.Decisions != log.Len() {
		t.Fatalf("report counts %d decisions, log holds %d", rep.Decisions, log.Len())
	}
	if got := rep.SpinDowns + rep.SpinUps + rep.Migrations + rep.Reassigns + rep.RebuildPaces; got != rep.Decisions {
		t.Fatalf("kind counters sum to %d, want %d", got, rep.Decisions)
	}
	if rep.Totals.SeekS <= 0 || rep.Totals.TransferS <= 0 || rep.Totals.ServiceEnergyJ <= 0 {
		t.Fatalf("latency decomposition empty: %+v", rep.Totals)
	}
	if rep.Totals.SpinupWaitS <= 0 || rep.Totals.SpinupWaits == 0 {
		t.Fatalf("no request ever waited on a spin-up despite %d spin-downs: %+v", downs, rep.Totals)
	}

	// Per-epoch rows are slices of the totals: they must sum back exactly.
	var sum telemetry.Attribution
	for _, row := range rep.Epochs {
		sum.Add(row.Attribution)
	}
	if sum != rep.Totals {
		t.Fatalf("epoch rows do not sum to totals:\nsum:    %+v\ntotals: %+v", sum, rep.Totals)
	}
}

func TestDecisionLogRecordsMigrations(t *testing.T) {
	tr := tinyTrace(t, 40, 3000, 0.02)
	log := telemetry.NewDecisionLog()
	res, err := Run(Config{
		Disks:        4,
		Trace:        tr,
		Policy:       &ckptMigrator{ckptSpinDown: ckptSpinDown{spinDownPolicy{h: 2}}},
		EpochSeconds: 5,
		Telemetry:    &telemetry.Recorder{Decisions: log},
	})
	if err != nil {
		t.Fatal(err)
	}
	var migrates, observed int
	for _, rec := range log.Records() {
		if rec.Kind != telemetry.DecisionMigrate {
			continue
		}
		migrates++
		if rec.Cause != "epoch" {
			t.Fatalf("undeclared migrate cause should fall back to the epoch hook, got %q", rec.Cause)
		}
		if rec.From == rec.To {
			t.Fatalf("migrate %d moves file %d nowhere", rec.Seq, rec.FileID)
		}
		if rec.Observed {
			observed++
			if rec.ObservedWaitS <= 0 {
				t.Fatalf("migrate %d landed in %v s", rec.Seq, rec.ObservedWaitS)
			}
		}
	}
	if migrates == 0 || observed == 0 {
		t.Fatalf("migrator produced %d migrations (%d observed)", migrates, observed)
	}
	if res.Attribution.Migrations != migrates {
		t.Fatalf("report counts %d migrations, log holds %d", res.Attribution.Migrations, migrates)
	}
}

// Killing a traced run at a checkpoint and resuming must yield a merged
// decision log bit-identical to the uninterrupted run's — including records
// that were still open (unresolved outcomes, migrations in flight) when the
// snapshot was taken.
func TestDecisionLogKillResumeBitIdentical(t *testing.T) {
	const interval = 0.9
	makeCfg := func(log *telemetry.DecisionLog) Config {
		return Config{
			Disks:        4,
			Trace:        tinyTrace(t, 40, 2000, 0.01),
			EpochSeconds: 1.5,
			Policy:       &ckptMigrator{ckptSpinDown: ckptSpinDown{spinDownPolicy{h: 0.3}}},
			Telemetry:    &telemetry.Recorder{Decisions: log},
		}
	}

	baseLog := telemetry.NewDecisionLog()
	want, snaps := runWithSnapshots(t, makeCfg(baseLog), interval)
	if baseLog.Len() == 0 {
		t.Fatal("uninterrupted run produced no decisions")
	}
	var wantBytes bytes.Buffer
	if err := baseLog.WriteNDJSON(&wantBytes); err != nil {
		t.Fatal(err)
	}

	for _, idx := range []int{0, len(snaps) / 2, len(snaps) - 1} {
		resLog := telemetry.NewDecisionLog()
		cfg := makeCfg(resLog)
		got := resumeFromSnapshot(t, cfg, cfg.Policy, snaps[idx], interval)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("resume from snapshot %d/%d diverged:\nwant %+v\ngot  %+v",
				idx+1, len(snaps), want, got)
		}
		var gotBytes bytes.Buffer
		if err := resLog.WriteNDJSON(&gotBytes); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantBytes.Bytes(), gotBytes.Bytes()) {
			t.Errorf("merged decision log from snapshot %d/%d not bit-identical to the uninterrupted run (%d vs %d records)",
				idx+1, len(snaps), resLog.Len(), baseLog.Len())
		}
	}
}

// Skipping one recorded spin-down changes the run: the disk never parks, so
// energy and the decision stream both move. This is the array-level contract
// counterfactual replay (arraysim -replay-decisions -override) builds on.
func TestDecisionOverrideSkipChangesOutcome(t *testing.T) {
	base, baseLog := decisionRun(t)
	var target uint64
	for _, rec := range baseLog.Records() {
		if rec.Kind == telemetry.DecisionSpinDown && rec.Observed {
			target = rec.Seq
			break
		}
	}
	if target == 0 {
		t.Fatal("baseline has no observed spin-down to skip")
	}

	overLog := telemetry.NewDecisionLog()
	res := decisionWorkload(t, &telemetry.Recorder{Decisions: overLog},
		map[uint64]string{target: OverrideSkip})

	skipped := overLog.Records()[target-1]
	if skipped.Overridden != OverrideSkip {
		t.Fatalf("decision %d not marked overridden: %+v", target, skipped)
	}
	if skipped.Observed {
		t.Fatalf("skipped spin-down %d still resolved an outcome: %+v", target, skipped)
	}
	if res.EnergyJ == base.EnergyJ {
		t.Fatalf("skipping spin-down %d left energy unchanged at %v J", target, res.EnergyJ)
	}
	// Up to the forced decision the two runs are identical, so the prefix of
	// the decision stream must agree record for record.
	for i := 0; i < int(target); i++ {
		b, o := baseLog.Records()[i], overLog.Records()[i]
		b.Overridden, o.Overridden = "", ""
		if i == int(target)-1 {
			// The skipped record never resolves; compare its decision half.
			b.Observed, b.ObservedJ, b.ObservedParkedS, b.ObservedWaitS, b.WakeRequests = false, 0, 0, 0, 0
		}
		if b != o {
			t.Fatalf("decision stream diverged before the override at record %d:\nbase: %+v\nover: %+v", i+1, b, o)
		}
	}
}

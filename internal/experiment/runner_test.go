package experiment

import (
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// gridRun is one finished sweep of either kind, with each cell's Result in
// grid order for deep comparison.
type gridRun struct {
	Finished
	results []any
}

// gridCase is one sweep kind driven through the shared cell runner.
type gridCase struct {
	name string
	// keys is the grid's cell keys; broken and flaky name two distinct
	// cells of it.
	keys          []string
	broken, flaky string
	run           func(x Exec) (gridRun, error)
	// render writes the sweep's table and CSV.
	render func(w io.Writer, f Finished) error
}

func gridCases() []gridCase {
	return []gridCase{{
		name:   "array",
		keys:   tinySweep().CellKeys(),
		broken: "maid.4",
		flaky:  "pdc.6",
		run: func(x Exec) (gridRun, error) {
			cfg := tinySweep()
			cfg.Exec = x
			res, err := RunSweep(cfg)
			if res == nil {
				return gridRun{}, err
			}
			g := gridRun{Finished: res}
			for _, c := range res.Cells {
				g.results = append(g.results, c.Result)
			}
			return g, err
		},
		render: func(w io.Writer, f Finished) error {
			res := f.(*SweepResult)
			if err := RenderSweepTable(w, res, MetricEnergy, "partial"); err != nil {
				return err
			}
			return WriteSweepCSV(w, res)
		},
	}, {
		name:   "fleet",
		keys:   tinyFleetConfig().CellKeys(),
		broken: "fleet.read.least-loaded.2",
		flaky:  "fleet.read.round-robin.2",
		run: func(x Exec) (gridRun, error) {
			cfg := tinyFleetConfig()
			cfg.Exec = x
			res, err := RunFleetSweep(cfg)
			if res == nil {
				return gridRun{}, err
			}
			g := gridRun{Finished: res}
			for _, c := range res.Cells {
				g.results = append(g.results, c.Result)
			}
			return g, err
		},
		render: func(w io.Writer, f Finished) error {
			res := f.(*FleetSweepResult)
			RenderFleetSummary(w, res, "partial")
			return WriteFleetCSV(w, res)
		},
	}}
}

// isNil reports whether a cell's Result, held as an interface, is a nil
// pointer.
func isNil(result any) bool { return reflect.ValueOf(result).IsNil() }

// withCellHook installs testCellHook for one test and restores it after.
func withCellHook(t *testing.T, hook func(key string)) {
	t.Helper()
	testCellHook = hook
	t.Cleanup(func() { testCellHook = nil })
}

// TestSweepWorkerCountIdentity pins the worker pool's core contract: the
// grid is bit-identical for every worker count. Everything except the
// wall-clock perf sample — results, decision logs, statuses, attempt counts
// — must deep-compare equal between a sequential run and a pooled one.
func TestSweepWorkerCountIdentity(t *testing.T) {
	for _, tc := range gridCases() {
		t.Run(tc.name, func(t *testing.T) {
			a, err := tc.run(Exec{Parallelism: 1, TraceDecisions: true})
			if err != nil {
				t.Fatal(err)
			}
			b, err := tc.run(Exec{Parallelism: 4, TraceDecisions: true})
			if err != nil {
				t.Fatal(err)
			}
			oa, ob := a.Outcomes(), b.Outcomes()
			if len(oa) != len(ob) || len(oa) != len(tc.keys) {
				t.Fatalf("grid sizes differ: %d vs %d (want %d)", len(oa), len(ob), len(tc.keys))
			}
			for i := range oa {
				// Perf carries wall-clock readings, the one legitimately
				// nondeterministic field; everything else must match exactly.
				oa[i].Perf, ob[i].Perf = nil, nil
				if oa[i].Decisions == nil {
					t.Errorf("cell %s traced no decision log", oa[i].Key)
				}
				if !reflect.DeepEqual(oa[i], ob[i]) || !reflect.DeepEqual(a.results[i], b.results[i]) {
					t.Errorf("cell %s differs between -workers=1 and -workers=4", oa[i].Key)
				}
			}
		})
	}
}

// TestSweepSurvivesPanickingCell: one cell panics on every attempt, every
// other cell completes, the failure lands in the manifest, and only the
// broken cell is failed.
func TestSweepSurvivesPanickingCell(t *testing.T) {
	for _, tc := range gridCases() {
		t.Run(tc.name, func(t *testing.T) {
			withCellHook(t, func(key string) {
				if key == tc.broken {
					panic("injected cell panic")
				}
			})
			res, err := tc.run(Exec{CellAttempts: 2, RetryBaseDelay: time.Millisecond})
			if err == nil {
				t.Fatal("want a failure-summary error")
			}
			if res.Finished == nil {
				t.Fatal("want the partial sweep result alongside the error")
			}
			if !strings.Contains(err.Error(), "1 of") {
				t.Fatalf("error should count failed cells, got: %v", err)
			}
			for i, o := range res.Outcomes() {
				if o.Key != tc.broken {
					if o.Status != CellOK || isNil(res.results[i]) || o.Attempts != 1 {
						t.Fatalf("healthy cell damaged by the panicking one: %+v", o)
					}
					continue
				}
				if !isNil(res.results[i]) || o.Status != CellFailed || o.Attempts != 2 {
					t.Fatalf("failed cell = %+v", o)
				}
				if !strings.Contains(o.Err, "injected cell panic") {
					t.Fatalf("cell error lost the panic message: %q", o.Err)
				}
			}

			// The failure is recorded in the manifest: overall status, a
			// per-cell marker instead of metrics, and attempts for the
			// post-mortem.
			m, err := res.Manifest("panicking")
			if err != nil {
				t.Fatal(err)
			}
			prefix := "cell." + tc.broken + "."
			if m.Status != string(CellFailed) {
				t.Fatalf("manifest status = %q, want failed", m.Status)
			}
			if m.Summary.Extra[prefix+"failed"] != 1 {
				t.Fatal("manifest lacks the failed-cell marker")
			}
			if _, ok := m.Summary.Extra[prefix+"energy_j"]; ok {
				t.Fatal("failed cell contributed metrics")
			}
			if m.Summary.Extra[prefix+"attempts"] != 2 {
				t.Fatalf("attempts marker = %v, want 2", m.Summary.Extra[prefix+"attempts"])
			}

			// Rendering a partial sweep must not panic either.
			var sb strings.Builder
			if err := tc.render(&sb, res.Finished); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSweepRetriesTransientFailure makes one cell panic only on its first
// attempt: the retry succeeds, the cell (and the manifest) records
// "retried", and the sweep as a whole succeeds.
func TestSweepRetriesTransientFailure(t *testing.T) {
	for _, tc := range gridCases() {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			tripped := false
			withCellHook(t, func(key string) {
				if key == tc.flaky {
					mu.Lock()
					first := !tripped
					tripped = true
					mu.Unlock()
					if first {
						panic("transient fault")
					}
				}
			})
			res, err := tc.run(Exec{CellAttempts: 3, RetryBaseDelay: time.Millisecond})
			if err != nil {
				t.Fatalf("retried sweep should succeed, got: %v", err)
			}
			found := false
			for i, o := range res.Outcomes() {
				if o.Key == tc.flaky {
					found = true
					if o.Status != CellRetried || o.Attempts != 2 || isNil(res.results[i]) {
						t.Fatalf("retried cell = %+v", o)
					}
				}
			}
			if !found {
				t.Fatalf("cell %s not in the grid", tc.flaky)
			}
			m, err := res.Manifest("retried")
			if err != nil {
				t.Fatal(err)
			}
			if m.Status != string(CellRetried) {
				t.Fatalf("manifest status = %q, want retried", m.Status)
			}
		})
	}
}

// A tracked sweep and an untracked sweep of the same config remain
// bit-identical — the ops plane never perturbs results — and the tracker
// sees every cell through to done.
func TestSweepTrackerOnOffResultsIdentical(t *testing.T) {
	for _, tc := range gridCases() {
		t.Run(tc.name, func(t *testing.T) {
			plain, err := tc.run(Exec{})
			if err != nil {
				t.Fatal(err)
			}
			track := telemetry.NewSweepTracker(tc.keys, 2)
			tracked, err := tc.run(Exec{Track: track})
			if err != nil {
				t.Fatal(err)
			}
			for i, o := range plain.Outcomes() {
				if !reflect.DeepEqual(plain.results[i], tracked.results[i]) {
					t.Fatalf("cell %s diverged under tracking", o.Key)
				}
			}
			if snap := track.Snapshot(); snap.Done != len(tc.keys) {
				t.Fatalf("tracker sees %d/%d cells done", snap.Done, len(tc.keys))
			}
		})
	}
}

package main

import (
	"reflect"
	"testing"

	"repro/internal/array"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/workload"
)

// interfaces names the optional policy interfaces p implements.
func interfaces(p array.Policy) string {
	s := ""
	if _, ok := p.(array.FailureAwarePolicy); ok {
		s += " FailureAware"
	}
	if _, ok := p.(array.CheckpointablePolicy); ok {
		s += " Checkpointable"
	}
	if _, ok := p.(array.StripePolicy); ok {
		s += " Stripe"
	}
	return s
}

// TestWrapPolicyIdentity runs every policy on a small trace with epochs, a
// scripted disk failure and repair, and checkpoints, once bare and once
// wrapped: results and snapshots must be identical, and the wrapper must
// expose the same optional interfaces.
func TestWrapPolicyIdentity(t *testing.T) {
	wl, _, err := sweepWorkload(5, experiment.LightIntensity, 0.003)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range experiment.AllPolicyKinds() {
		t.Run(string(kind), func(t *testing.T) {
			run := func(tr *tracer) (*array.Result, [][]byte, array.Policy) {
				t.Helper()
				p, err := experiment.NewPolicy(kind)
				if err != nil {
					t.Fatal(err)
				}
				p = instrument(p, tr)
				var snaps [][]byte
				res, err := array.Run(array.Config{
					Disks: 6, Trace: trace, Policy: p, EpochSeconds: 4, Spares: 1,
					Faults: &faults.Config{
						Enabled: true, Seed: 3, Acceleration: 3600, CheckIntervalSeconds: 1,
						FixedRepairHours: 1, Scripted: []faults.ScriptedEvent{{Disk: 1, At: 15}},
					},
					Checkpoint: &array.CheckpointSpec{EverySimSeconds: 7, Sink: func(b []byte) error {
						snaps = append(snaps, append([]byte(nil), b...))
						return nil
					}},
				})
				if err != nil {
					t.Fatal(err)
				}
				return res, snaps, p
			}
			want, wantSnaps, bare := run(nil)
			tr := newTracer()
			got, gotSnaps, wrapped := run(tr)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("wrapped run differs:\nbare    %+v\nwrapped %+v", want, got)
			}
			if !reflect.DeepEqual(wantSnaps, gotSnaps) {
				t.Errorf("wrapped run wrote different snapshots (%d vs %d)", len(gotSnaps), len(wantSnaps))
			}
			if a, b := interfaces(bare), interfaces(wrapped); a != b {
				t.Errorf("interfaces: bare%s, wrapped%s", a, b)
			}
			h := tr.hooks
			if h[hookTargetDisk].Calls+h[hookStripeTargets].Calls == 0 || h[hookEpoch].Calls == 0 ||
				h[hookSaveState].Calls == 0 || h[hookInit].Calls != 1 {
				t.Errorf("hooks not reached: %+v", h)
			}
			for _, k := range []hook{hookTargetDisk, hookStripeTargets, hookRequestComplete} {
				if s := h[k]; s.Timed != (s.Calls+sampleEvery-1)/sampleEvery {
					t.Errorf("%s: %d of %d calls timed, want 1 in %d", hookNames[k], s.Timed, s.Calls, sampleEvery)
				}
			}
			if s := h[hookEpoch]; s.Timed != s.Calls {
				t.Errorf("OnEpoch: %d of %d calls timed, want all", s.Timed, s.Calls)
			}
			if _, ok := bare.(array.FailureAwarePolicy); ok && (h[hookDiskFailure].Calls != 1 || h[hookDiskRepair].Calls != 1) {
				t.Errorf("failure hooks: %d failures, %d repairs; want 1 each",
					h[hookDiskFailure].Calls, h[hookDiskRepair].Calls)
			}
		})
	}
}

type stubPolicy struct{}

func (stubPolicy) Name() string                               { return "stub" }
func (stubPolicy) Init(*array.Context) error                  { return nil }
func (stubPolicy) TargetDisk(*array.Context, int) int         { return 0 }
func (stubPolicy) OnRequestComplete(*array.Context, int, int) {}
func (stubPolicy) OnEpoch(*array.Context)                     {}
func (stubPolicy) OnIdleTimeout(*array.Context, int)          {}
func (stubFail) OnDiskFailure(*array.Context, int)            {}
func (stubFail) OnDiskRepair(*array.Context, int)             {}
func (stubCkpt) SaveState() ([]byte, error)                   { return nil, nil }
func (stubCkpt) LoadState([]byte) error                       { return nil }
func (stubStripe) StripeTargets(*array.Context, int) []int    { return nil }

type (
	stubFail   struct{}
	stubCkpt   struct{}
	stubStripe struct{}
)

// TestWrapPolicyInterfaceSets checks every combination of optional
// interfaces, including those no shipped policy has.
func TestWrapPolicyInterfaceSets(t *testing.T) {
	seen := make(map[string]bool)
	for _, p := range []array.Policy{
		stubPolicy{},
		struct {
			stubPolicy
			stubFail
		}{},
		struct {
			stubPolicy
			stubCkpt
		}{},
		struct {
			stubPolicy
			stubStripe
		}{},
		struct {
			stubPolicy
			stubFail
			stubCkpt
		}{},
		struct {
			stubPolicy
			stubFail
			stubStripe
		}{},
		struct {
			stubPolicy
			stubCkpt
			stubStripe
		}{},
		struct {
			stubPolicy
			stubFail
			stubCkpt
			stubStripe
		}{},
	} {
		want := interfaces(p)
		if got := interfaces(wrapPolicy(p, newTracer())); got != want {
			t.Errorf("wrapping a policy with%s gives one with%s", want, got)
		}
		seen[want] = true
	}
	if len(seen) != 8 {
		t.Fatalf("covered %d interface sets, want 8", len(seen))
	}
}

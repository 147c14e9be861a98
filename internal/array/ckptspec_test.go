package array_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/array"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/policy"
	"repro/internal/workload"
)

// opaque is a policy with its checkpoint methods hidden: a Policy only.
type opaque struct{ array.Policy }

// TestCheckpointSpecValidation: an array and a fleet reject an unusable
// checkpoint spec, and a policy that cannot be checkpointed, with the same
// message and before any event fires.
func TestCheckpointSpecValidation(t *testing.T) {
	wl := workload.DefaultGenConfig()
	wl.NumFiles = 40
	wl.NumRequests = 2000
	trace, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	sink := func([]byte) error { return nil }
	cases := []struct {
		name   string
		spec   checkpoint.Spec
		opaque bool
		want   string
	}{
		{"zero interval", checkpoint.Spec{EverySimSeconds: 0, Sink: sink}, false, "array: checkpoint interval 0 must be positive"},
		{"NaN interval", checkpoint.Spec{EverySimSeconds: math.NaN(), Sink: sink}, false, "array: checkpoint interval NaN must be positive"},
		{"no destination", checkpoint.Spec{EverySimSeconds: 5}, false, "array: checkpoint needs a path or a sink"},
		{"non-checkpointable policy", checkpoint.Spec{EverySimSeconds: 5, Sink: sink}, true, `array: policy "read" does not support checkpointing`},
	}
	targets := []struct {
		prefix string
		run    func(spec *checkpoint.Spec, pol func() array.Policy, w *des.Watch) error
	}{
		{"", func(spec *checkpoint.Spec, pol func() array.Policy, w *des.Watch) error {
			_, err := array.Run(array.Config{Disks: 4, Trace: trace, Policy: pol(), Watch: w, Checkpoint: spec})
			return err
		}},
		{"fleet ", func(spec *checkpoint.Spec, pol func() array.Policy, w *des.Watch) error {
			_, err := cluster.Run(cluster.Config{Arrays: 2, Trace: trace, Proto: array.Config{Disks: 4},
				MakePolicy: func(int) (array.Policy, error) { return pol(), nil }, Watch: w, Checkpoint: spec})
			return err
		}},
	}
	for _, target := range targets {
		for _, tc := range cases {
			t.Run(target.prefix+tc.name, func(t *testing.T) {
				pol := func() array.Policy {
					var p array.Policy = policy.NewREAD(policy.READConfig{})
					if tc.opaque {
						p = opaque{p}
					}
					return p
				}
				w := des.NewWatch()
				spec := tc.spec
				err := target.run(&spec, pol, w)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("want error containing %q, got %v", tc.want, err)
				}
				if fired := w.Snapshot().Fired; fired != 0 {
					t.Fatalf("rejected only after %d events fired", fired)
				}
			})
		}
	}
}

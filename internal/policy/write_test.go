package policy

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/array"
	"repro/internal/checkpoint"
)

// ckptOnly forwards the base and checkpoint hooks of the policy it wraps
// and nothing else, as an instrumenting wrapper that does not know
// array.WritePolicy does.
type ckptOnly struct{ array.CheckpointablePolicy }

// TestWrappedPolicyKeepsWrites: MAID hands itself to Context.EnqueueWrite,
// so its cache fills complete under a wrapper that hides its OnWriteDone
// and the run equals the bare one. A resume with a fill in flight needs the
// hook on the configured policy, and under the wrapper fails with an error
// instead of dropping the fill.
func TestWrappedPolicyKeepsWrites(t *testing.T) {
	tr := genTrace(t, 200, 2000, 0.01, 0.2)
	config := func(p array.Policy, sink func([]byte) error) array.Config {
		return array.Config{
			Disks: 5, Trace: tr, Policy: p,
			Checkpoint: &array.CheckpointSpec{EverySimSeconds: 1, Sink: sink},
		}
	}
	bare := NewMAID(MAIDConfig{CacheDisks: 1})
	want := run(t, config(bare, func([]byte) error { return nil }))

	inner := NewMAID(MAIDConfig{CacheDisks: 1})
	var inFlight *checkpoint.Envelope
	got := run(t, config(ckptOnly{inner}, func(data []byte) error {
		env, err := checkpoint.Decode(data)
		if inFlight == nil && err == nil && bytes.Contains(env.State, []byte(`{"kind":"policy-write"`)) {
			inFlight = env
		}
		return err
	}))
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("wrapped run differs:\nbare    %+v\nwrapped %+v", want, got)
	}
	if inner.Copies() == 0 || inner.Copies() != bare.Copies() {
		t.Fatalf("wrapped MAID made %d cache copies, bare %d", inner.Copies(), bare.Copies())
	}
	if inFlight == nil {
		t.Fatal("no snapshot holds a cache fill in flight")
	}
	_, err := array.Resume(config(ckptOnly{NewMAID(MAIDConfig{CacheDisks: 1})}, func([]byte) error { return nil }), inFlight.State)
	if err == nil || !strings.Contains(err.Error(), "no write-completion hook") {
		t.Fatalf("resume under the wrapper: want a missing-hook error, got %v", err)
	}
}

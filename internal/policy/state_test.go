package policy

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/array"
	"repro/internal/checkpoint"
)

// TestShippedPoliciesResumeBitIdentical runs every shipped policy with
// periodic in-process snapshots, resumes every snapshot into a freshly
// constructed instance, and requires each resumed result to equal the
// uninterrupted one exactly. This is the end-to-end exercise of each
// policy's SaveState/LoadState pair: any counter, cache entry, or adaptive
// threshold missing from the round trip shows up as a divergence. For MAID
// and READReplica, some snapshot must catch one of their copies (a
// policy-write continuation) in flight; MAID runs on a flatter popularity
// curve, whose cache misses keep fills in flight. READ and READReplica run
// behind popularMemo, which checks READ's snapshot memo of its popular set
// after every epoch and every load.
func TestShippedPoliciesResumeBitIdentical(t *testing.T) {
	cases := []struct {
		name   string
		fresh  func() array.Policy
		alpha  float64 // Zipf popularity skew of the trace
		writes bool    // some snapshot must hold a policy write in flight
	}{
		{"always-on", func() array.Policy { return NewAlwaysOn() }, 0.9, false},
		{"drpm", func() array.Policy { return NewDRPM(DRPMConfig{}) }, 0.9, false},
		{"read", func() array.Policy { return newMemoREAD(t, NewREAD(READConfig{})) }, 0.9, false},
		{"maid", func() array.Policy { return NewMAID(MAIDConfig{}) }, 0.3, true},
		{"pdc", func() array.Policy { return NewPDC(PDCConfig{}) }, 0.9, false},
		{"read-replica", func() array.Policy { return newMemoREADReplica(t, NewREADReplica(READReplicaConfig{})) }, 0.9, true},
		{"striped-always-on", func() array.Policy { return NewStripedAlwaysOn(StripedConfig{}) }, 0.9, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := genTrace(t, 60, 3000, 0.01, tc.alpha) // ~30 s of virtual time
			baseCfg := func(pol array.Policy, sink func([]byte) error) array.Config {
				return array.Config{
					Disks:        5,
					Trace:        tr,
					Policy:       pol,
					EpochSeconds: 4, // several epochs, so policies migrate/copy
					Checkpoint: &array.CheckpointSpec{
						EverySimSeconds: 2.5,
						Tool:            "policy-test",
						ConfigDigest:    "policy-digest",
						Sink:            sink,
					},
				}
			}

			var snaps [][]byte
			pol := tc.fresh()
			want, err := array.Run(baseCfg(pol, func(data []byte) error {
				snaps = append(snaps, append([]byte(nil), data...))
				return nil
			}))
			if err != nil {
				t.Fatal(err)
			}
			if len(snaps) < 2 {
				t.Fatalf("only %d snapshots captured", len(snaps))
			}

			writes := 0
			for _, snap := range snaps {
				env, err := checkpoint.Decode(snap)
				if err != nil {
					t.Fatal(err)
				}
				if bytes.Contains(env.State, []byte(`{"kind":"policy-write"`)) {
					writes++
				}
				got, err := array.Resume(baseCfg(tc.fresh(), func([]byte) error { return nil }), env.State)
				if err != nil {
					t.Fatalf("resume from t=%v: %v", env.SimTime, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("resume from t=%v diverged from uninterrupted run:\nwant %+v\ngot  %+v", env.SimTime, want, got)
				}
			}
			if tc.writes && writes == 0 {
				t.Fatalf("none of %d snapshots holds a policy write in flight", len(snaps))
			}
			if m, ok := pol.(interface{ popularChanges() int }); ok && m.popularChanges() < 2 {
				t.Fatalf("the popular set changed at %d epochs; the memo check needs a change after a snapshot", m.popularChanges()-1)
			}
			t.Logf("%d snapshots resume exactly, %d with a policy write in flight", len(snaps), writes)
		})
	}
}

// TestPolicyStateRejectsGarbage checks LoadState surfaces malformed payloads
// instead of silently zeroing the policy.
func TestPolicyStateRejectsGarbage(t *testing.T) {
	bad := []byte(`{"theta": `)
	for _, p := range []array.CheckpointablePolicy{
		NewREAD(READConfig{}),
		NewMAID(MAIDConfig{}),
		NewPDC(PDCConfig{}),
		NewREADReplica(READReplicaConfig{}),
		NewStripedAlwaysOn(StripedConfig{}),
	} {
		if err := p.LoadState(bad); err == nil {
			t.Errorf("%s: LoadState accepted truncated JSON", p.Name())
		}
	}
}

// popularMemo checks, after every epoch and every load of the READ inside
// a policy, that READ's snapshot memo of its popular set is sortedKeys of
// the set: an assignment of the set that left a stale memo behind fails it.
// Each check also leaves the memo built, so the next epoch's new set meets
// a memo it must clear.
type popularMemo struct {
	t       *testing.T
	read    *READ
	changes int // checks at which the set differed from the last check's
	last    []int
}

func (m *popularMemo) check(when string) {
	m.t.Helper()
	want := sortedKeys(m.read.popular)
	if got := m.read.sortedPopular(); !slices.Equal(got, want) {
		m.t.Errorf("after %s: popular memo %v, want %v", when, got, want)
	}
	if m.changes == 0 || !slices.Equal(want, m.last) {
		m.changes++
	}
	m.last = want
}

func (m *popularMemo) popularChanges() int { return m.changes }

// memoREAD is READ with popularMemo's checks.
type memoREAD struct {
	*READ
	*popularMemo
}

func newMemoREAD(t *testing.T, r *READ) memoREAD {
	return memoREAD{r, &popularMemo{t: t, read: r}}
}

func (p memoREAD) OnEpoch(ctx *array.Context) {
	p.READ.OnEpoch(ctx)
	p.check("epoch")
}

func (p memoREAD) LoadState(data []byte) error {
	err := p.READ.LoadState(data)
	p.check("load")
	return err
}

// memoREADReplica is READReplica with popularMemo's checks.
type memoREADReplica struct {
	*READReplica
	*popularMemo
}

func newMemoREADReplica(t *testing.T, r *READReplica) memoREADReplica {
	return memoREADReplica{r, &popularMemo{t: t, read: &r.READ}}
}

func (p memoREADReplica) OnEpoch(ctx *array.Context) {
	p.READReplica.OnEpoch(ctx)
	p.check("epoch")
}

func (p memoREADReplica) LoadState(data []byte) error {
	err := p.READReplica.LoadState(data)
	p.check("load")
	return err
}

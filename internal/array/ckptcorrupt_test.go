package array_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/array"
	"repro/internal/checkpoint"
)

// TestResumeRejectsCorruptFixture restores corrupted copies of the v1
// fixture. Each must fail with an error: never a panic, and never a disk
// index narrowed into range, a field the event's kind does not carry
// silently dropped, or a continuation that would index past the array or
// the file set when its op completes.
func TestResumeRejectsCorruptFixture(t *testing.T) {
	env, err := checkpoint.Read(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture's events: 0–4 idle-arm, 5–9 service (with their ops),
	// 10 repair, 11 fault-tick, 12 checkpoint.
	event := func(st map[string]any, i int) map[string]any {
		return st["events"].([]any)[i].(map[string]any)
	}
	// asKind turns event i into kind with only the given wire fields.
	asKind := func(st map[string]any, i int, kind string, fields map[string]any) {
		ev := event(st, i)
		for k := range ev {
			if k != "time" && k != "seq" {
				delete(ev, k)
			}
		}
		ev["kind"] = kind
		for k, v := range fields {
			ev[k] = v
		}
	}
	// withDone replaces the continuation of service event i's op.
	withDone := func(st map[string]any, i int, done map[string]any) {
		event(st, i)["op"].(map[string]any)["done"] = done
	}
	cases := []struct {
		name    string
		corrupt func(st map[string]any)
		want    string
	}{
		{"disk past the array", func(st map[string]any) { event(st, 1)["disk"] = 6 }, "disk 6 outside [0, 6)"},
		{"negative disk", func(st map[string]any) { event(st, 10)["disk"] = -1 }, "disk -1 outside [0, 6)"},
		{"disk wider than int32", func(st map[string]any) { event(st, 5)["disk"] = int64(1)<<32 + 3 }, "disk 4294967299 outside [0, 6)"},
		{"migrate target wider than int32", func(st map[string]any) {
			asKind(st, 0, "migrate-start", map[string]any{"from": 1, "to": int64(1) << 31, "file_id": 7, "size_mb": 2.5})
		}, "to 2147483648 outside [0, 6)"},
		{"deadline on service", func(st map[string]any) { event(st, 6)["deadline"] = 70.0 }, "foreign"},
		{"disk on migrate-start", func(st map[string]any) {
			asKind(st, 0, "migrate-start", map[string]any{"disk": 2, "from": 1, "to": 3, "file_id": 7, "size_mb": 2.5})
		}, "foreign"},
		{"timeout on sample", func(st map[string]any) {
			asKind(st, 0, "sample", map[string]any{"last_energy": 9.5, "timeout": 1.0})
		}, "foreign"},
		{"disk on fault-tick", func(st map[string]any) { event(st, 11)["disk"] = 2 }, "foreign"},
		{"scrub pass past the array", func(st map[string]any) {
			withDone(st, 5, map[string]any{"kind": "scrub-pass", "disk": 42, "size_mb": 256})
		}, "scrub-pass continuation: disk 42 outside [0, 6)"},
		{"rebuild chunk on a negative disk", func(st map[string]any) {
			withDone(st, 6, map[string]any{"kind": "rebuild-chunk", "disk": -1, "size_mb": 64, "remaining_mb": 128})
		}, "rebuild-chunk continuation: disk -1 outside [0, 6)"},
		{"migration read to a disk past the array", func(st map[string]any) {
			withDone(st, 7, map[string]any{"kind": "migrate-read", "file_id": 7, "to": 42, "size_mb": 2.5})
		}, "migrate-read continuation: to 42 outside [0, 6)"},
		{"migration write of an unknown file", func(st map[string]any) {
			withDone(st, 8, map[string]any{"kind": "migrate-write", "file_id": 4242, "to": 3})
		}, "migrate-write continuation: unknown file 4242"},
		{"policy write past the array", func(st map[string]any) {
			withDone(st, 5, map[string]any{"kind": "policy-write", "file_id": 7, "disk": 42, "size_mb": 2.5})
		}, "policy-write continuation: disk 42 outside [0, 6)"},
		{"policy write of an unknown file", func(st map[string]any) {
			withDone(st, 8, map[string]any{"kind": "policy-write", "file_id": -3, "disk": 2, "size_mb": 2.5})
		}, "policy-write continuation: unknown file -3"},
		{"policy write under a policy without the hook", func(st map[string]any) {
			withDone(st, 6, map[string]any{"kind": "policy-write", "file_id": 7, "disk": 2, "size_mb": 2.5})
		}, `policy "read" has a write in flight but no write-completion hook`},
		{"unknown continuation kind", func(st map[string]any) {
			withDone(st, 7, map[string]any{"kind": "opaque"})
		}, `unknown continuation kind "opaque"`},
		{"resp_stream differs", func(st map[string]any) {
			st["resp_stream"].(map[string]any)["sum"] = json.Number("3817.5")
		}, "resp_stream"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dec := json.NewDecoder(bytes.NewReader(env.State))
			dec.UseNumber()
			var st map[string]any
			if err := dec.Decode(&st); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(st)
			state, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			cfg := fixtureConfig(t)
			cfg.Checkpoint = &array.CheckpointSpec{EverySimSeconds: fixtureEvery, Sink: func([]byte) error { return nil }}
			_, err = array.Resume(cfg, state)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

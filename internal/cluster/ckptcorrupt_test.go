package cluster

import (
	"strings"
	"testing"

	"repro/internal/array/arraytest"
	"repro/internal/checkpoint"
)

// The fleet fixture's router events: 0 shock-start (rack 1, shock 0),
// 1 shock-start (rack 0, shock 2), 2–26 and 28–29 deadlines and hedges,
// 27 the arrival of request 259, 30 checkpoint. Its requests in flight, in
// order: 169, 175, 185, 187, 228 (done, a hedge outstanding on array 0) and
// 258 (its first attempt on array 1).
func fleetEvent(st map[string]any, i int) map[string]any {
	return st["events"].([]any)[i].(map[string]any)
}

func fleetReq(st map[string]any, i int) map[string]any {
	return st["reqs"].([]any)[i].(map[string]any)
}

// fleetCorruptions lists one defect per check a restore makes of the
// router's state in the fleet fixture, each an invariant router.go keeps.
// Each must be rejected with an error: never a panic, a run that never
// ends, or a silent resume.
var fleetCorruptions = []struct {
	name    string
	corrupt func(st map[string]any)
	want    string // a substring of the error
}{
	{"shock on a rack past the fleet", func(st map[string]any) { fleetEvent(st, 0)["rack"] = 7 },
		"rack 7 outside [0, 2)"},
	{"shock on a negative rack", func(st map[string]any) { fleetEvent(st, 1)["rack"] = -1 },
		"rack -1 outside [0, 2)"},
	{"negative shock ordinal", func(st map[string]any) { fleetEvent(st, 0)["shock"] = -1 },
		"shock -1 outside [0, 2]"},
	{"shock ordinal past the shocks fired", func(st map[string]any) { fleetEvent(st, 1)["shock"] = 1 << 40 },
		"shock 1099511627776 outside [0, 2]"},
	{"negative shock depth", func(st map[string]any) { st["shock_depth"] = []any{-1, 0} },
		"rack 0: negative shock depth -1"},
	{"shock depth with no shock to end it", func(st map[string]any) { st["shock_depth"] = []any{0, 1} },
		"rack 1: shock depth 1 with 0 shock-end events pending"},
	{"negative delivered", func(st map[string]any) { st["delivered"] = -4 }, "delivered -4 outside [0, 500]"},
	{"delivered past the trace", func(st map[string]any) { st["delivered"] = 9999 }, "delivered 9999 outside [0, 500]"},
	{"arrival of the wrong request", func(st map[string]any) { fleetEvent(st, 27)["req"] = 300 },
		"fleet-arrival event for request 300 after 258 of 500 delivered"},
	{"arrival long after its request", func(st map[string]any) { fleetEvent(st, 27)["time"] = 2e15 },
		"fleet-arrival event at 2e+15: due by 2.02065761262033 at the latest"},
	{"retry long after its backoff", func(st map[string]any) {
		fleetReq(st, 5)["retry_queued"] = true
		ev := fleetEvent(st, 28)
		ev["kind"], ev["time"] = "fleet-retry", 1e9
	}, "fleet-retry event at 1e+09: due by 2.75 at the latest"},
	{"router event before the clock", func(st map[string]any) { fleetEvent(st, 2)["time"] = 1.5 },
		"fleet-hedge event at 1.5 before the clock 2"},
	{"fault work on an array without faults", func(st map[string]any) {
		ev := st["members"].([]any)[0].(map[string]any)["events"].([]any)[9].(map[string]any)
		ev["kind"] = "fault-tick"
	}, "array 0: array: resume: fault-tick event but faults are disabled"},
	{"request ID zero", func(st map[string]any) { fleetReq(st, 0)["id"] = 0 }, "request 0 outside the 258 delivered"},
	{"request not yet delivered", func(st map[string]any) { fleetReq(st, 5)["id"] = 400 },
		"request 400 outside the 258 delivered"},
	{"two requests with one ID", func(st map[string]any) { fleetReq(st, 1)["id"] = 169 }, "request 169 saved twice"},
	{"request of an unknown file", func(st map[string]any) { fleetReq(st, 0)["file"] = 4242 },
		"request 169: unknown file 4242"},
	{"request of a negative file", func(st map[string]any) { fleetReq(st, 0)["file"] = -5 },
		"request 169: unknown file -5"},
	{"last array past the fleet", func(st map[string]any) { fleetReq(st, 0)["last"] = 9 },
		"request 169: last array 9 outside [-1, 2)"},
	{"attempts past the limit", func(st map[string]any) { fleetReq(st, 0)["attempts"] = 100 },
		"request 169: 100 attempts outside [0, 4]"},
	{"hedge past the attempts", func(st map[string]any) { fleetReq(st, 0)["hedge"] = 3 },
		"request 169: hedge 3 outside [0, 2]"},
	{"attempt pending past the attempts", func(st map[string]any) { fleetReq(st, 5)["pending"] = 2 },
		"request 258: attempt in flight past its 1 attempts"},
	{"negative outstanding", func(st map[string]any) { fleetReq(st, 0)["outstanding"] = -3 },
		"request 169: -3 outstanding but 1 attempts pending"},
	{"request that can never settle", func(st map[string]any) {
		r := fleetReq(st, 0)
		delete(r, "outstanding")
		delete(r, "pending")
	}, "request 169 can never settle"},
	{"retry queued with no retry pending", func(st map[string]any) { fleetReq(st, 5)["retry_queued"] = true },
		"request 258: retry_queued true with 0 fleet-retry events pending"},
	{"attempt the router holds on no array", func(st map[string]any) { fleetReq(st, 0)["pending"] = 2 },
		"array 0 holds attempt 1 of request 169, which the router has not in flight"},
	{"fired count inflated", func(st map[string]any) { st["fired"] = 1158 },
		"engine ledger: seq 1109 != fired 1158 + 51 pending"},
	{"two router events' seqs swapped", func(st map[string]any) {
		fleetEvent(st, 0)["seq"], fleetEvent(st, 1)["seq"] = fleetEvent(st, 1)["seq"], fleetEvent(st, 0)["seq"]
	}, "engine ledger: pending event seq 11 saved after seq 994"},
	{"a member event with a router event's seq", func(st map[string]any) {
		st["members"].([]any)[0].(map[string]any)["events"].([]any)[2].(map[string]any)["seq"] = 11
	}, "engine ledger: two pending events with seq 11"},
}

// TestFleetResumeRejectsCorruptFixture resumes each corrupted copy of the
// fleet fixture.
func TestFleetResumeRejectsCorruptFixture(t *testing.T) {
	env, err := checkpoint.Read(fleetFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range fleetCorruptions {
		t.Run(tc.name, func(t *testing.T) {
			state, err := arraytest.Edit(env.State, tc.corrupt)
			if err != nil {
				t.Fatal(err)
			}
			cfg := fleetFixtureConfig(t)
			cfg.Checkpoint = fleetFixtureSpec()
			if _, err := Resume(cfg, state); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestFleetValidateAloneRejectsCorruptFixture pins the one-validator
// contract for the fleet: every corruption is already rejected, with its
// error, by decoding and validating the payload, before anything is
// rebuilt, and the fixture itself passes.
func TestFleetValidateAloneRejectsCorruptFixture(t *testing.T) {
	env, err := checkpoint.Read(fleetFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fleetFixtureConfig(t)
	cfg.Checkpoint = fleetFixtureSpec()
	cfg.setDefaults()
	if _, _, err := decodeState(&cfg, env.State); err != nil {
		t.Fatalf("fixture fails validation: %v", err)
	}
	for _, tc := range fleetCorruptions {
		state, err := arraytest.Edit(env.State, tc.corrupt)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := decodeState(&cfg, state); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: validate: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}

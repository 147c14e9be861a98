// Package arraytest holds what the array's and the fleet's checkpoint
// tests share: the configuration of the committed version-1 array fixture
// (internal/array/testdata/ckpt_v1_raid6_read.json) and the corruptions of
// it that a restore must reject.
package arraytest

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/array"
	"repro/internal/faults"
	"repro/internal/policy"
	"repro/internal/reliability"
	"repro/internal/workload"
)

// FixtureFile is the array fixture's name in internal/array/testdata: the
// 15th snapshot (t = 60 s) a Run of FixtureConfig captured.
const FixtureFile = "ckpt_v1_raid6_read.json"

// FixtureEvery is the checkpoint interval the fixture was captured with.
// The snapshot holds a pending checkpoint tick, so a resume must keep it.
const FixtureEvery = 4.0

// FixtureConfig is the run the fixture was captured from: a small RAID-6
// READ array with failures, latent sector errors, scrubs and rebuilds.
func FixtureConfig(t testing.TB) array.Config {
	t.Helper()
	wl := workload.DefaultGenConfig()
	wl.NumFiles = 120
	wl.NumRequests = 1500
	wl.MeanInterarrival = 0.04
	wl.Seed = 3
	trace, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	fc := faults.Default()
	fc.Seed = 3
	fc.Acceleration = 5e5
	fc.LSERatePerHour = faults.DefaultLSERatePerHour
	fc.RebuildTime = &reliability.Weibull{Shape: 1, ScaleHours: 12}
	fc.Scripted = []faults.ScriptedEvent{{Disk: 1, At: 12}}
	return array.Config{
		Disks:        6,
		Trace:        trace,
		Policy:       policy.NewREAD(policy.READConfig{}),
		EpochSeconds: 5,
		Faults:       &fc,
		Spares:       2,
		RAID:         array.RAIDConfig{Level: array.RAID6},
	}
}

// Edit returns a copy of the checkpoint payload state with fn applied to
// its generic JSON form, numbers kept exact as json.Number.
func Edit(state []byte, fn func(st map[string]any)) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(state))
	dec.UseNumber()
	var st map[string]any
	if err := dec.Decode(&st); err != nil {
		return nil, err
	}
	fn(st)
	return json.Marshal(st)
}

// Corruption is one defect planted in the fixture's payload.
type Corruption struct {
	Name    string
	Corrupt func(st map[string]any)
	// Want is a substring of the error a restore must return.
	Want string
}

// The fixture's events: 0–4 idle-arm, 5–9 service (with their ops),
// 10 repair, 11 fault-tick, 12 checkpoint.
func event(st map[string]any, i int) map[string]any {
	return st["events"].([]any)[i].(map[string]any)
}

// asKind turns event i into kind with only the given wire fields.
func asKind(st map[string]any, i int, kind string, fields map[string]any) {
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

// disk returns disk i's saved state.
func disk(st map[string]any, i int) map[string]any {
	return st["disks"].([]any)[i].(map[string]any)
}

func faultState(st map[string]any) map[string]any { return st["faults"].(map[string]any) }

// withDone replaces the continuation of service event i's op.
func withDone(st map[string]any, i int, done map[string]any) {
	event(st, i)["op"].(map[string]any)["done"] = done
}

// Corruptions lists one defect per check a restore makes of the array
// payload that the fixture can show: each must be rejected with an error,
// never a panic, and never a disk index narrowed into range, a field the
// event's kind does not carry silently dropped, or a continuation that
// would index past the array or the file set when its op completes.
var Corruptions = []Corruption{
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
	{"speed outside low and high", func(st map[string]any) {
		disk(st, 0)["disk"].(map[string]any)["speed"] = 5
	}, "disk 0: diskmodel: speed 5 is neither low (0) nor high (1)"},
	{"transition target outside low and high", func(st map[string]any) {
		disk(st, 2)["disk"].(map[string]any)["transition_target"] = 7
	}, "disk 2: diskmodel: transition_target 7 is neither low (0) nor high (1)"},
	{"unknown disk state", func(st map[string]any) {
		disk(st, 0)["disk"].(map[string]any)["state"] = 9
	}, "disk 0: diskmodel: state 9 outside [0, 2]"},
	{"pending speed outside low and high", func(st map[string]any) { disk(st, 1)["pending"] = 9 },
		"disk 1: pending speed 9 is neither low nor high"},
	{"negative next request", func(st map[string]any) { st["next_req"] = -3 }, "next_req -3 outside [0, 1500]"},
	{"next request past the trace", func(st map[string]any) { st["next_req"] = 1501 }, "next_req 1501 outside [0, 1500]"},
	{"file placed past the array", func(st map[string]any) { st["place"].(map[string]any)["7"] = 99 },
		"file 7 placed on disk 99 outside [0, 6)"},
	{"file placed on a negative disk", func(st map[string]any) { st["place"].(map[string]any)["7"] = -1 },
		"file 7 placed on disk -1 outside [0, 6)"},
	{"placement of an unknown file", func(st map[string]any) { st["place"].(map[string]any)["4242"] = 1 },
		"placement of unknown file 4242"},
	{"access count of an unknown file", func(st map[string]any) {
		st["counts"] = map[string]any{"7": 2, "4242": 1}
	}, "access count of unknown file 4242"},
	{"migration of an unknown file", func(st map[string]any) { st["migrating"] = []any{7, 4242} },
		"migration of unknown file 4242"},
	{"unknown op kind", func(st map[string]any) { event(st, 5)["op"].(map[string]any)["kind"] = 99 },
		"unknown op kind 99"},
	{"op kind wrapping to a valid one", func(st map[string]any) { event(st, 6)["op"].(map[string]any)["kind"] = 256 },
		"unknown op kind 256"},
	{"fault injector short of disks", func(st map[string]any) {
		inj := faultState(st)["injector"].(map[string]any)
		inj["disks"] = inj["disks"].([]any)[:2]
	}, "fault injector has 2 disks, config has 6"},
	{"scripted failure past the array", func(st map[string]any) {
		faultState(st)["injector"].(map[string]any)["scripted"] = []any{map[string]any{"Disk": 42, "At": 70}}
	}, "pending scripted event 0 on disk 42 of 6"},
	{"scripted failure on a negative disk", func(st map[string]any) {
		faultState(st)["injector"].(map[string]any)["scripted"] = []any{map[string]any{"Disk": -1, "At": 70}}
	}, "pending scripted event 0 on disk -1 of 6"},
	{"negative spares", func(st map[string]any) { faultState(st)["spares"] = -5 }, "negative spare count"},
	{"negative spares used", func(st map[string]any) { faultState(st)["spares_used"] = -1 }, "negative spare count"},
	{"resp_stream differs", func(st map[string]any) {
		st["resp_stream"].(map[string]any)["sum"] = json.Number("3817.5")
	}, "resp_stream"},
	{"latent-error hazard past its threshold", func(st map[string]any) {
		faultState(st)["injector"].(map[string]any)["disks"].([]any)[0].(map[string]any)["lse_cum"] = 1e15
	}, "faults: disk 0: lse_cum 1e+15 past its threshold"},
	{"negative latent-error clock", func(st map[string]any) {
		faultState(st)["injector"].(map[string]any)["lse_now"] = -1e12
	}, "faults: negative lse_now -1e+12"},
	{"event before the clock", func(st map[string]any) { event(st, 11)["time"] = 30 },
		"fault-tick event at 30 before the clock 60"},
	{"service long after its op could end", func(st map[string]any) { event(st, 9)["time"] = 6272618392069664 },
		"service event at 6.272618392069664e+15: due by"},
	{"repair long after any repair could take", func(st map[string]any) { event(st, 10)["time"] = 6007713983717725 },
		"repair event at 6.007713983717725e+15: due by"},
	{"disk accrued past the clock", func(st map[string]any) { disk(st, 0)["disk"].(map[string]any)["last_accrual"] = 61 },
		"disk 0: diskmodel: last_accrual 61 after the clock 60"},
	{"temperature advanced past the clock", func(st map[string]any) { disk(st, 0)["temp"].(map[string]any)["last_time"] = 61 },
		"disk 0: thermal: last_time 61 after the clock 60"},
	{"idle disk with ops queued", func(st map[string]any) { disk(st, 0)["fg"] = disk(st, 3)["fg"] },
		"disk 0 is idle with 3 ops queued"},
	{"active disk with no service pending", func(st map[string]any) { disk(st, 0)["disk"].(map[string]any)["state"] = 1 },
		"disk 0 is active with 0 service and 0 transition events pending"},
	{"failed disk with no repair pending", func(st map[string]any) { asKind(st, 10, "scrub", map[string]any{"disk": 1}) },
		"disk 1: failed true with 0 repair events pending"},
	{"migration of a file outside the file set", func(st map[string]any) {
		asKind(st, 0, "migrate-start", map[string]any{"from": 1, "to": 2, "file_id": 4242, "size_mb": 2.5})
	}, "migrate-start event at 60.02267922944172: unknown file 4242"},
	{"user op on a stripe", func(st map[string]any) {
		st["stripes"] = []any{map[string]any{"file_id": 119, "arrival": 56.5, "remaining": 1}}
		disk(st, 3)["fg"].([]any)[0].(map[string]any)["stripe"] = 0
	}, "op of kind 0 on stripe 0: only chunks belong to a stripe"},
	{"stripe waiting for a chunk no disk holds", func(st map[string]any) {
		st["stripes"] = []any{map[string]any{"file_id": 119, "arrival": 56.5, "remaining": 2}}
		op := disk(st, 3)["fg"].([]any)[0].(map[string]any)
		op["kind"], op["stripe"] = 2, 0
	}, "stripe 0 has 2 chunks outstanding but 1 ops"},
	{"two service events on one disk", func(st map[string]any) { event(st, 6)["disk"] = 3 },
		"disk 3 has more than one service event pending"},
	{"user op of an unknown file", func(st map[string]any) { disk(st, 3)["fg"].([]any)[1].(map[string]any)["file_id"] = 4242 },
		"user op of unknown file 4242"},
}

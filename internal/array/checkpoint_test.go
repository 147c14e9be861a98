package array

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/reliability"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// ckptSpinDown is spinDownPolicy plus checkpoint support: the counters are
// the only mutable state.
type ckptSpinDown struct {
	spinDownPolicy
}

type ckptSpinDownState struct {
	Timeouts int `json:"timeouts"`
	SpinUps  int `json:"spin_ups"`
}

func (p *ckptSpinDown) SaveState() ([]byte, error) {
	return json.Marshal(ckptSpinDownState{Timeouts: p.timeouts, SpinUps: p.spinUps})
}

func (p *ckptSpinDown) LoadState(data []byte) error {
	var st ckptSpinDownState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	p.timeouts = st.Timeouts
	p.spinUps = st.SpinUps
	return nil
}

// ckptMigrator additionally moves one file to the next disk every epoch, so
// snapshots land while migrations (and their continuations) are in flight.
type ckptMigrator struct {
	ckptSpinDown
	next int
}

func (p *ckptMigrator) Name() string { return "ckpt-migrator" }

func (p *ckptMigrator) OnEpoch(ctx *Context) {
	files := ctx.Files()
	if len(files) == 0 {
		return
	}
	f := files[p.next%len(files)]
	ctx.Migrate(f.ID, (ctx.Placement(f.ID)+1)%ctx.NumDisks())
	p.next++
}

type ckptMigratorState struct {
	ckptSpinDownState
	Next int `json:"next"`
}

func (p *ckptMigrator) SaveState() ([]byte, error) {
	return json.Marshal(ckptMigratorState{
		ckptSpinDownState: ckptSpinDownState{Timeouts: p.timeouts, SpinUps: p.spinUps},
		Next:              p.next,
	})
}

func (p *ckptMigrator) LoadState(data []byte) error {
	var st ckptMigratorState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	p.timeouts = st.Timeouts
	p.spinUps = st.SpinUps
	p.next = st.Next
	return nil
}

// watchLedger attaches a fresh watch to cfg and returns a check of the
// engine's conservation ledger once the run is over: every event ever
// scheduled fired or is still pending.
func watchLedger(t *testing.T, cfg *Config) func() {
	w := des.NewWatch()
	cfg.Watch = w
	return func() {
		t.Helper()
		if ws := w.Snapshot(); ws.Scheduled != ws.Fired+ws.Pending {
			t.Fatalf("event ledger: %d scheduled != %d fired + %d pending", ws.Scheduled, ws.Fired, ws.Pending)
		}
	}
}

// runWithSnapshots runs cfg to completion while capturing every checkpoint
// envelope through the in-process sink.
func runWithSnapshots(t *testing.T, cfg Config, everySimSeconds float64) (*Result, [][]byte) {
	t.Helper()
	var snaps [][]byte
	cfg.Checkpoint = &CheckpointSpec{
		EverySimSeconds: everySimSeconds,
		Tool:            "array-test",
		ConfigDigest:    "test-digest",
		Sink: func(data []byte) error {
			snaps = append(snaps, append([]byte(nil), data...))
			return nil
		},
	}
	ledger := watchLedger(t, &cfg)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ledger()
	if len(snaps) < 2 {
		t.Fatalf("only %d snapshots captured; interval %v too coarse for the trace",
			len(snaps), everySimSeconds)
	}
	return res, snaps
}

// resumeFromSnapshot decodes one captured envelope and resumes it under the
// same configuration with a fresh policy instance.
func resumeFromSnapshot(t *testing.T, cfg Config, freshPolicy Policy, snap []byte, everySimSeconds float64) *Result {
	t.Helper()
	env, err := checkpoint.Decode(snap)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Policy = freshPolicy
	cfg.Checkpoint = &CheckpointSpec{
		EverySimSeconds: everySimSeconds,
		Tool:            "array-test",
		ConfigDigest:    "test-digest",
		Sink:            func([]byte) error { return nil },
	}
	ledger := watchLedger(t, &cfg)
	res, err := Resume(cfg, env.State)
	if err != nil {
		t.Fatal(err)
	}
	ledger()
	return res
}

// TestKillResumeBitIdentical is the subsystem's headline contract: killing a
// run at any checkpoint and resuming from the snapshot must reproduce the
// uninterrupted run exactly — same event count, bit-equal floats — not
// merely approximately.
func TestKillResumeBitIdentical(t *testing.T) {
	const interval = 0.9 // deliberately offset from the 1.5 s epoch

	cases := []struct {
		name   string
		policy func() Policy
		mut    func(cfg *Config)
		// check, when set, guards against the case silently not exercising
		// the machinery it was written for.
		check func(t *testing.T, r *Result)
	}{
		{
			name:   "spin-down",
			policy: func() Policy { return &ckptSpinDown{spinDownPolicy{h: 0.3}} },
		},
		{
			name:   "migrations in flight",
			policy: func() Policy { return &ckptMigrator{ckptSpinDown: ckptSpinDown{spinDownPolicy{h: 0.3}}} },
			mut:    func(cfg *Config) { cfg.EpochSeconds = 1.5 },
		},
		{
			name:   "fault injection",
			policy: func() Policy { return &ckptSpinDown{spinDownPolicy{h: 0.3}} },
			mut: func(cfg *Config) {
				// A scripted mid-trace failure with a sampled (not fixed)
				// repair time, so the resume must replay the injector's RNG
				// draw log to stay on the same random sequence.
				cfg.Faults = &faults.Config{
					Enabled:              true,
					Seed:                 7,
					Acceleration:         3600,
					CheckIntervalSeconds: 1,
					Scripted:             []faults.ScriptedEvent{{Disk: 1, At: 5}},
				}
				cfg.Spares = 1
			},
		},
		{
			name:   "lse, scrub, and raid rebuild in flight",
			policy: func() Policy { return &ckptSpinDown{spinDownPolicy{h: 0.3}} },
			mut: func(cfg *Config) {
				// Every second-generation failure mechanism at once: latent
				// errors accumulating, scrub passes as live background I/O,
				// a Weibull-drawn rebuild after the scripted failure, and a
				// RAID-5 group watching it all. The acceleration squeezes
				// the weekly scrub cycle to ~3 virtual seconds so snapshots
				// land with scrub passes and LSE state in flight.
				cfg.Faults = &faults.Config{
					Enabled:              true,
					Seed:                 11,
					Acceleration:         2e5,
					CheckIntervalSeconds: 0.5,
					Scripted:             []faults.ScriptedEvent{{Disk: 2, At: 5}},
					LSERatePerHour:       2e-3,
					ScrubIOMB:            4,
					RebuildTime:          &reliability.Weibull{Shape: 1, ScaleHours: 12},
				}
				cfg.Spares = 1
				cfg.RAID = RAIDConfig{Level: RAID5}
			},
			check: func(t *testing.T, r *Result) {
				if r.LSEErrors == 0 || r.Scrubs == 0 {
					t.Fatalf("case exercised nothing: %d LSEs, %d scrubs", r.LSEErrors, r.Scrubs)
				}
				if r.RebuildMB == 0 {
					t.Fatalf("no rebuild traffic after the scripted failure")
				}
				if r.RAIDLevel != string(RAID5) {
					t.Fatalf("RAID layer inactive (level %q)", r.RAIDLevel)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := tinyTrace(t, 40, 2000, 0.01) // ~20 s of virtual time
			cfg := Config{Disks: 4, Trace: tr}
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			cfg.Policy = tc.policy()
			want, snaps := runWithSnapshots(t, cfg, interval)
			if tc.check != nil {
				tc.check(t, want)
			}

			// Resume from an early, a middle, and the last snapshot: the
			// contract holds wherever the kill lands.
			for _, idx := range []int{0, len(snaps) / 2, len(snaps) - 1} {
				got := resumeFromSnapshot(t, cfg, tc.policy(), snaps[idx], interval)
				if !reflect.DeepEqual(want, got) {
					t.Errorf("resume from snapshot %d/%d diverged:\nwant %+v\ngot  %+v",
						idx+1, len(snaps), want, got)
				}
			}
		})
	}
}

// TestResumeIgnoresOldMetricsPayload pins compatibility with snapshots from
// builds that checkpointed a metrics registry next to Result: every
// file-backed run wrote a "metrics" object into its state. Such a snapshot
// must still resume, with the payload ignored, to the uninterrupted Result,
// with or without a recorder attached.
func TestResumeIgnoresOldMetricsPayload(t *testing.T) {
	resumeIgnoresOldPayload(t, `"metrics":{`+
		`"counters":{"sim.arrivals":812,"sim.completions":809,"sim.epochs":3,"sim.migrations":0,"sim.speed_transitions":14},`+
		`"gauges":{"sim.events_fired":4711,"sim.virtual_seconds":8.1},`+
		`"histograms":{"sim.queue_depth_at_enqueue":{"bounds":[0,1,2,4],"counts":[700,90,15,5,2],"count":812,"sum":131,"min":0,"max":9},`+
		`"sim.response_seconds":{"bounds":[0.0001,0.00025,0.0005],"counts":[0,0,1,808],"count":809,"sum":12.5,"min":0.0004,"max":0.9}}}`)
}

// TestResumeIgnoresOldTimelinePayload does the same for snapshots from
// builds whose timeline sampler checkpointed its rows in the state.
func TestResumeIgnoresOldTimelinePayload(t *testing.T) {
	resumeIgnoresOldPayload(t, `"timeline":[`+
		`{"T":2,"PowerW":41.5,"HighDisks":4,"Queued":1,"InService":2,"Completed":180},`+
		`{"T":4,"PowerW":38.25,"HighDisks":3,"Queued":0,"InService":1,"Completed":377}]`)
}

// resumeIgnoresOldPayload splices payload, a "name":value member an earlier
// build wrote, into a mid-run snapshot's state and requires the snapshot to
// resume to the uninterrupted Result, with and without a recorder.
func resumeIgnoresOldPayload(t *testing.T, payload string) {
	t.Helper()
	const interval = 0.9
	cfg := Config{Disks: 4, Trace: tinyTrace(t, 40, 2000, 0.01),
		Policy: &ckptSpinDown{spinDownPolicy{h: 0.3}}}
	want, snaps := runWithSnapshots(t, cfg, interval)
	env, err := checkpoint.Decode(snaps[len(snaps)/2])
	if err != nil {
		t.Fatal(err)
	}
	name, _, _ := strings.Cut(payload, ":")
	state := bytes.TrimSpace(env.State)
	if bytes.Contains(state, []byte(name+":")) || state[len(state)-1] != '}' {
		t.Fatalf("unexpected state shape: ...%s", state[max(0, len(state)-80):])
	}
	old := append(append([]byte(nil), state[:len(state)-1]...), ","+payload+"}"...)
	if !json.Valid(old) {
		t.Fatal("spliced state is not valid JSON")
	}
	for _, rec := range []*telemetry.Recorder{nil, {}} {
		rcfg := cfg
		rcfg.Policy = &ckptSpinDown{spinDownPolicy{h: 0.3}}
		rcfg.Telemetry = rec
		rcfg.Checkpoint = &CheckpointSpec{EverySimSeconds: interval, Tool: "array-test",
			ConfigDigest: "test-digest", Sink: func([]byte) error { return nil }}
		got, err := Resume(rcfg, old)
		if err != nil {
			t.Fatalf("recorder %v: %v", rec != nil, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("recorder %v: resume with an old %s payload diverged:\nwant %+v\ngot  %+v", rec != nil, name, want, got)
		}
	}
}

// TestResumeSnapshotFields sanity-checks the envelope metadata the CLI
// verifies before resuming.
func TestResumeSnapshotFields(t *testing.T) {
	tr := tinyTrace(t, 20, 500, 0.01)
	cfg := Config{Disks: 3, Trace: tr, Policy: &ckptSpinDown{spinDownPolicy{h: 0.3}}}
	_, snaps := runWithSnapshots(t, cfg, 1)
	env, err := checkpoint.Decode(snaps[len(snaps)/2])
	if err != nil {
		t.Fatal(err)
	}
	if env.Tool != "array-test" || env.ConfigDigest != "test-digest" {
		t.Fatalf("envelope identity = %q/%q", env.Tool, env.ConfigDigest)
	}
	if env.SimTime <= 0 || env.EventsFired == 0 {
		t.Fatalf("envelope progress = t=%v fired=%d", env.SimTime, env.EventsFired)
	}
}

func TestResumeRejectsMismatches(t *testing.T) {
	tr := tinyTrace(t, 20, 500, 0.01)
	cfg := Config{Disks: 3, Trace: tr, Policy: &ckptSpinDown{spinDownPolicy{h: 0.3}}}
	_, snaps := runWithSnapshots(t, cfg, 1)
	env, err := checkpoint.Decode(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	spec := func() *CheckpointSpec {
		return &CheckpointSpec{EverySimSeconds: 1, Sink: func([]byte) error { return nil }}
	}

	cases := []struct {
		name string
		mut  func(cfg *Config)
		want string
	}{
		{
			name: "wrong policy",
			mut: func(cfg *Config) {
				cfg.Policy = &ckptMigrator{ckptSpinDown: ckptSpinDown{spinDownPolicy{h: 0.3}}}
				cfg.Checkpoint = spec()
			},
			want: "policy",
		},
		{
			name: "wrong disk count",
			mut: func(cfg *Config) {
				cfg.Disks = 4
				cfg.Policy = &ckptSpinDown{spinDownPolicy{h: 0.3}}
				cfg.Checkpoint = spec()
			},
			want: "disks",
		},
		{
			name: "missing checkpoint spec",
			mut: func(cfg *Config) {
				cfg.Policy = &ckptSpinDown{spinDownPolicy{h: 0.3}}
				cfg.Checkpoint = nil
			},
			want: "pending checkpoint ticks",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg
			tc.mut(&c)
			_, err := Resume(c, env.State)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}

	t.Run("corrupt state", func(t *testing.T) {
		c := cfg
		c.Policy = &ckptSpinDown{spinDownPolicy{h: 0.3}}
		c.Checkpoint = spec()
		if _, err := Resume(c, []byte(`{"clock": `)); err == nil {
			t.Fatal("want parse error for truncated state")
		}
	})
}

// TestCheckpointEveryTickOverwrites drives the path-based writer and checks
// the file always holds the latest complete snapshot.
func TestCheckpointEveryTickOverwrites(t *testing.T) {
	tr := tinyTrace(t, 20, 500, 0.01)
	path := t.TempDir() + "/checkpoint.json"
	cfg := Config{
		Disks:  3,
		Trace:  tr,
		Policy: &ckptSpinDown{spinDownPolicy{h: 0.3}},
		Checkpoint: &CheckpointSpec{
			EverySimSeconds: 1,
			Path:            path,
			Tool:            "array-test",
			ConfigDigest:    "test-digest",
		},
	}
	ledger := watchLedger(t, &cfg)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ledger()
	env, err := checkpoint.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	// The surviving file is the LAST snapshot taken; when all work drains
	// before the final tick, that tick can be the run's last event, so
	// equality is legal here.
	if env.EventsFired == 0 || env.EventsFired > res.EventsFired {
		t.Fatalf("final snapshot at %d events, run fired %d", env.EventsFired, res.EventsFired)
	}
	// And the file resumes to the same end state.
	got := resumeFromSnapshot(t, cfg, &ckptSpinDown{spinDownPolicy{h: 0.3}},
		mustEncode(t, env), 1)
	if !reflect.DeepEqual(res, got) {
		t.Fatalf("resume from on-disk snapshot diverged:\nwant %+v\ngot  %+v", res, got)
	}
}

func mustEncode(t *testing.T, env *checkpoint.Envelope) []byte {
	t.Helper()
	data, err := checkpoint.Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFileMapMatchesEncodingJSON compares the wire-order map encoder with
// encoding/json's map[int]int encoding, and requires it to refuse a map
// with a key outside the order (the file set), which restore rejects and
// no simulator write adds.
func TestFileMapMatchesEncodingJSON(t *testing.T) {
	files := &sim{files: map[int]workload.File{}}
	for _, id := range []int{0, 1, 2, 9, 10, 11, 19, 100, 101, 1000, 4078} {
		files.files[id] = workload.File{ID: id}
	}
	order := files.fileOrder()
	if want := []int{0, 1, 10, 100, 1000, 101, 11, 19, 2, 4078, 9}; !reflect.DeepEqual(order, want) {
		t.Fatalf("wire order %v, want %v", order, want)
	}
	for _, tc := range []struct {
		name    string
		m       map[int]int
		foreign bool
	}{
		{"nil", nil, false},
		{"empty", map[int]int{}, false},
		{"all files", map[int]int{0: 3, 1: 0, 2: 1, 9: 2, 10: 0, 11: 5, 19: 1, 100: 2, 101: 0, 1000: 1, 4078: 7}, false},
		{"some files", map[int]int{2: 1, 10: 4, 9: 12345678}, false},
		{"negative values", map[int]int{0: -3, 10: 4}, false},
		{"key outside the files", map[int]int{2: 1, 10: 4, 3: 0}, true},
		{"only keys outside the files", map[int]int{5000: 1, 42: 2}, true},
		{"negative keys", map[int]int{-1: 1, -10: 2, 0: -3, 10: 4}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := checkpoint.NewWriter(nil)
			fileMap{tc.m, order}.writeJSON(&w)
			got, err := w.Bytes()
			if tc.foreign {
				if !errors.Is(err, errForeignKey) {
					t.Fatalf("want %v, got %v (%s)", errForeignKey, err, got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(tc.m)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("got  %s\nwant %s", got, want)
			}
			var back fileMap
			if err := json.Unmarshal(got, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back.m, tc.m) {
				t.Fatalf("decoded %v, want %v", back.m, tc.m)
			}
		})
	}
}

package runcmd

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/runstore"
	"repro/internal/telemetry"
)

// exitCode is what a test command's exit function panics with.
type exitCode int

// testCommand builds a command over its own flag set whose output lands in
// the returned buffer and whose exit panics with exitCode.
func testCommand(name string) (*Command, *bytes.Buffer) {
	var out bytes.Buffer
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(&out)
	fs.Usage = fs.PrintDefaults
	return newCommand(name, fs, &out, func(code int) { panic(exitCode(code)) }), &out
}

// exits runs fn and returns the exit code it ended with, or -1 when fn
// returned normally.
func exits(fn func()) (code int) {
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(exitCode)
			if !ok {
				panic(r)
			}
			code = int(c)
		}
	}()
	fn()
	return -1
}

func TestChoice(t *testing.T) {
	cases := []struct {
		name    string
		flag    string
		got     string
		valid   []string
		wantErr string // substring; empty means accept
	}{
		{"exact match", "policy", "read", []string{"read", "maid", "pdc"}, ""},
		{"last entry", "policy", "pdc", []string{"read", "maid", "pdc"}, ""},
		{"typo rejected", "policy", "raed", []string{"read", "maid", "pdc"},
			`invalid -policy "raed": valid values: read | maid | pdc`},
		{"case sensitive", "raid", "RAID5", []string{"raid5", "raid6"},
			`invalid -raid "RAID5"`},
		{"empty value rejected", "fig", "", []string{"7", "all"},
			`invalid -fig ""`},
		{"empty valid set rejects", "x", "anything", nil, `invalid -x "anything"`},
		{"prefix is not a match", "routing", "round", []string{"round-robin"},
			`valid values: round-robin`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Choice(tc.flag, tc.got, tc.valid...)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Choice(%q, %q) = %v, want nil", tc.flag, tc.got, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Choice(%q, %q) = nil, want error containing %q", tc.flag, tc.got, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Choice(%q, %q) = %q, want substring %q", tc.flag, tc.got, err, tc.wantErr)
			}
		})
	}
}

type kind string

func TestStrings(t *testing.T) {
	got := Strings([]kind{"a", "b"})
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Strings = %v", got)
	}
	if err := Choice("k", "b", Strings([]kind{"a", "b"})...); err != nil {
		t.Fatalf("Choice through Strings: %v", err)
	}
}

func TestParseRejectsPositionalArguments(t *testing.T) {
	c, out := testCommand("sim")
	if code := exits(func() { c.parse([]string{"-v", "stray"}) }); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if want := `sim: unexpected positional arguments ["stray"]`; !strings.Contains(out.String(), want) {
		t.Fatalf("stderr %q lacks %q", out.String(), want)
	}
}

// TestRecordUsage pins every run-record usage check: its message, and
// exit 2 before anything is opened.
func TestRecordUsage(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-run-name", "x"}, "-run-name requires -runs-dir"},
		{[]string{"-checkpoint-every", "-1"}, "-checkpoint-every -1 cannot be negative"},
		{[]string{"-checkpoint-every", "5"}, "-checkpoint-every requires -runs-dir (the snapshot lives in the run directory)"},
		{[]string{"-resume"}, "-resume requires -runs-dir"},
		{[]string{"-runs-dir", dir, "-resume"}, "-resume requires the original -checkpoint-every interval"},
		{[]string{"-runs-dir", dir, "-run-name", ""}, "-run-name must not be empty"},
	}
	for _, tc := range cases {
		c, out := testCommand("sim")
		r := c.RecordFlags()
		code := exits(func() {
			c.parse(tc.args)
			r.Open(struct{}{})
		})
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.HasPrefix(out.String(), "sim: "+tc.want) {
			t.Errorf("%v: stderr %q, want it to start with %q", tc.args, out.String(), "sim: "+tc.want)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("a rejected flag set wrote into the store: %v", entries)
	}
}

// openRecord opens a run record named "run" for config in a fresh store.
func openRecord(t *testing.T, tool string, config any, args ...string) *Record {
	t.Helper()
	c, _ := testCommand(tool)
	r := c.RecordFlags()
	c.parse(append([]string{"-runs-dir", t.TempDir(), "-run-name", "run"}, args...))
	if err := r.Open(config); err != nil {
		t.Fatal(err)
	}
	return r
}

// writeSnapshot writes a checkpoint envelope into r's run directory.
func writeSnapshot(t *testing.T, r *Record, tool, digest string) {
	t.Helper()
	data, err := checkpoint.Encode(&checkpoint.Envelope{Version: checkpoint.Version, Tool: tool, ConfigDigest: digest, State: []byte(`{"x":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.WriteFile(r.CheckpointPath(), data); err != nil {
		t.Fatal(err)
	}
}

func TestResumeState(t *testing.T) {
	cfg := map[string]int{"disks": 6}
	r := openRecord(t, "sim", cfg, "-checkpoint-every", "10", "-resume")
	digest := r.Manifest.ConfigDigest

	writeSnapshot(t, r, "sim", digest)
	state, err := r.ResumeState()
	if err != nil || string(state) != `{"x":1}` {
		t.Fatalf("ResumeState = %s, %v; want the snapshot's state", state, err)
	}

	writeSnapshot(t, r, "othersim", digest)
	if _, err := r.ResumeState(); err == nil || !strings.Contains(err.Error(), `was written by "othersim", not sim`) {
		t.Fatalf("snapshot from another tool: err = %v", err)
	}

	other, err := runstore.Digest(map[string]int{"disks": 8})
	if err != nil {
		t.Fatal(err)
	}
	writeSnapshot(t, r, "sim", other)
	if _, err := r.ResumeState(); err == nil || !strings.Contains(err.Error(), "was taken under config digest "+other+", current flags digest to "+digest) {
		t.Fatalf("snapshot under another config: err = %v", err)
	}
}

func TestCommitWritesDecisionLogsBeforeManifest(t *testing.T) {
	r := openRecord(t, "sim", map[string]int{"disks": 6})
	dlog := telemetry.NewDecisionLog()
	if err := r.Commit(DecisionFile{Name: "decisions.ndjson", Log: dlog}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"decisions.ndjson", runstore.ManifestName} {
		if _, err := os.Stat(filepath.Join(r.Dir, name)); err != nil {
			t.Fatal(err)
		}
	}

	// A decision log that cannot be written (its name is taken by a
	// directory) must leave the run without a manifest: a manifest on disk
	// promises every artifact is complete.
	r = openRecord(t, "sim", map[string]int{"disks": 6})
	if err := os.Mkdir(filepath.Join(r.Dir, "decisions.ndjson"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(DecisionFile{Name: "decisions.ndjson", Log: dlog}); err == nil {
		t.Fatal("Commit over an unwritable decision log succeeded")
	}
	if _, err := os.Stat(filepath.Join(r.Dir, runstore.ManifestName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("manifest after a failed decision-log write: stat err = %v", err)
	}
}

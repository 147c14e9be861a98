package runcmd

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/atomicio"
	"repro/internal/checkpoint"
	"repro/internal/runstore"
	"repro/internal/telemetry"
)

// Record is a single run's place in a run store: the -runs-dir, -run-name,
// -checkpoint-every and -resume flags and, once opened, the manifest and
// run directory they name.
type Record struct {
	RunsDir   string
	Name      string
	CkptEvery float64
	Resume    bool

	// Store and Manifest are nil, and Dir empty, without -runs-dir.
	Store    *runstore.Store
	Manifest *runstore.Manifest
	Dir      string

	cmd   *Command
	start time.Time
}

// RecordFlags registers the run-record flags.
func (c *Command) RecordFlags() *Record {
	r := &Record{cmd: c}
	c.fs.StringVar(&r.RunsDir, "runs-dir", "", "record this run in a run store: manifest.json and the run's artifacts under <runs-dir>/<name>-<digest>/")
	c.fs.StringVar(&r.Name, "run-name", c.Name, "run name inside the store (requires -runs-dir)")
	c.fs.Float64Var(&r.CkptEvery, "checkpoint-every", 0, "write a crash-recovery snapshot (checkpoint.json in the run directory) every this many virtual seconds (requires -runs-dir)")
	c.fs.BoolVar(&r.Resume, "resume", false, "resume from the run directory's checkpoint.json instead of starting fresh (requires -runs-dir and the original -checkpoint-every)")
	return r
}

// Open checks the run-record flags (a contradiction is a usage error) and,
// with -runs-dir, starts the manifest for config — the digested block that
// names the run — and opens the store and the run directory.
func (r *Record) Open(config any) error {
	c := r.cmd
	switch {
	case r.RunsDir == "" && c.Explicit["run-name"]:
		c.Usage("-run-name requires -runs-dir")
	case r.CkptEvery < 0:
		c.Usage("-checkpoint-every %g cannot be negative", r.CkptEvery)
	case r.CkptEvery > 0 && r.RunsDir == "":
		c.Usage("-checkpoint-every requires -runs-dir (the snapshot lives in the run directory)")
	case r.Resume && r.RunsDir == "":
		c.Usage("-resume requires -runs-dir")
	case r.Resume && r.CkptEvery <= 0:
		c.Usage("-resume requires the original -checkpoint-every interval (the resumed run must keep the same snapshot cadence to stay bit-identical)")
	case r.RunsDir != "" && r.Name == "":
		c.Usage("-run-name must not be empty")
	}
	r.start = time.Now()
	if r.RunsDir == "" {
		return nil
	}
	var err error
	if r.Manifest, err = runstore.New(c.Name, r.Name, config); err != nil {
		return err
	}
	if r.Store, err = runstore.Open(r.RunsDir); err != nil {
		return err
	}
	r.Dir, err = r.Store.RunDir(r.Manifest)
	return err
}

// CheckpointPath is the snapshot file inside the run directory.
func (r *Record) CheckpointPath() string { return filepath.Join(r.Dir, "checkpoint.json") }

// ResumeState reads the run directory's snapshot and returns its state. It
// rejects a snapshot another command wrote, or one taken under a different
// config digest: resuming it would silently continue some other run.
func (r *Record) ResumeState() (json.RawMessage, error) {
	path := r.CheckpointPath()
	env, err := checkpoint.Read(path)
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	if env.Tool != r.cmd.Name {
		return nil, fmt.Errorf("resume: %s was written by %q, not %s", path, env.Tool, r.cmd.Name)
	}
	if env.ConfigDigest != r.Manifest.ConfigDigest {
		return nil, fmt.Errorf("resume: %s was taken under config digest %s, current flags digest to %s — rerun with the original flags",
			path, env.ConfigDigest, r.Manifest.ConfigDigest)
	}
	r.cmd.Log.Infof("resuming from %s (t=%.1f s, %d events fired)", path, env.SimTime, env.EventsFired)
	return env.State, nil
}

// Commit records the finished run (a no-op without -runs-dir): the decision
// logs, then manifest.json.
func (r *Record) Commit(logs ...DecisionFile) error {
	if r.Store == nil {
		return nil
	}
	dir, err := Commit(r.Store, r.Manifest, r.start, logs...)
	if err != nil {
		return err
	}
	r.cmd.Log.Infof("run recorded in %s", dir)
	return nil
}

// DecisionFile is one decision log to write into a run directory.
type DecisionFile struct {
	Name string
	Log  *telemetry.DecisionLog
}

// Commit writes a finished run into store and returns its directory. It
// stamps m with the start time and the wall time since, writes every
// decision log, and writes manifest.json last: a manifest on disk means the
// run and all its artifacts are complete, so a crash in between leaves a
// directory that readers and -resume treat as unrecorded.
func Commit(store *runstore.Store, m *runstore.Manifest, start time.Time, logs ...DecisionFile) (string, error) {
	m.CreatedAt = start.UTC().Format(time.RFC3339)
	m.WallSeconds = time.Since(start).Seconds()
	dir, err := store.RunDir(m)
	if err != nil {
		return "", err
	}
	for _, l := range logs {
		f, err := atomicio.Create(filepath.Join(dir, l.Name))
		if err != nil {
			return "", err
		}
		if err := l.Log.WriteNDJSON(f); err != nil {
			f.Abort()
			return "", err
		}
		if err := f.Close(); err != nil {
			return "", err
		}
	}
	return store.Write(m)
}

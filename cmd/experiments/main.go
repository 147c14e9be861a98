// Command experiments regenerates every table and figure in the paper's
// evaluation section.
//
//	experiments -fig all                 # everything, interactive scale
//	experiments -fig 7a -scale 0.2       # one panel, bigger trace
//	experiments -fig 7 -heavy            # Figure 7 under the heavy workload
//	experiments -fig 7b -csv out.csv     # machine-readable series
//	experiments -fig all -full           # the full paper-size day (slow)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/cmd/internal/runcmd"
	"repro/internal/atomicio"
	"repro/internal/experiment"
	"repro/internal/reliability"
	"repro/internal/runstore"
	"repro/internal/telemetry"
)

// logg is the command-wide leveled logger (level set from -quiet/-v).
var logg *telemetry.Logger

// harness carries what every sweep condition shares: the run store, the
// live surface, the execution flags, and the count of failed cells that
// becomes the exit code.
type harness struct {
	store    *runstore.Store
	mon      *runcmd.Monitor
	exec     experiment.Exec // -workers, -retries, -trace-decisions
	progress bool
	resume   bool
	failed   int
}

// sweep runs one sweep condition of either kind; x is cfg's embedded Exec,
// id and run are the kind's ManifestID and Run functions. It skips the
// condition when -resume finds it already recorded, attaches a fresh
// tracker to the live surface, runs it, records it, and counts its failed
// cells. It returns the result and the condition's wall time, or nil when
// the condition was skipped.
func sweep[C, R any, P interface {
	*R
	experiment.Finished
}](h *harness, name string, cfg *C, x *experiment.Exec, keys []string,
	id func(string, C) (string, error), run func(C) (P, error)) (P, time.Duration) {
	*x = h.exec
	if h.resume {
		if rid, err := id(name, *cfg); err == nil && h.recorded(name, rid) {
			return nil, 0
		}
	}
	x.Track = h.mon.Sweep(name, keys, x.Parallelism)
	if h.progress {
		logg.Infof("phase %s: run %d cells", name, len(keys))
	}
	start := time.Now()
	pc := runstore.StartPerf()
	res, err := run(*cfg)
	if res == nil {
		logg.Fatal(err)
	}
	if err != nil {
		logg.Errorf("sweep %s: %v", name, err)
	}
	if h.progress {
		logg.Infof("done %s %s", name, runcmd.SweepLine(x.Track.Snapshot()))
	}
	h.record(name, res, start, pc)
	return res, time.Since(start)
}

// recorded reports whether the store already holds the manifest id for
// this sweep condition — same name, same config digest — with a status
// other than "failed".
func (h *harness) recorded(name, id string) bool {
	m, err := runstore.ReadManifest(filepath.Join(h.store.Root(), id))
	if err != nil || m.Status == string(experiment.CellFailed) {
		return false
	}
	logg.Infof("resume: skipping %s (already recorded as %s)", name, id)
	return true
}

// record counts a finished sweep's failed cells and commits it to the run
// store: each traced cell's decision log as
// decisions-<cell key, dots as dashes>.ndjson (e.g.
// decisions-read-raid5-12.ndjson, decisions-fleet-read-round-robin-2.ndjson),
// then the manifest, stamped with wall time and the sweep's perf sample.
// Writes nothing when the store is nil (-runs-dir unset).
func (h *harness) record(name string, res experiment.Finished, start time.Time, pc runstore.PerfCapture) {
	cells := res.Outcomes()
	// The sweep-level perf sample aggregates every completed cell: total
	// virtual time and events over the sweep's wall-clock and runtime deltas.
	var simSeconds float64
	var events uint64
	for _, c := range cells {
		if c.Status == experiment.CellFailed {
			h.failed++
		} else {
			simSeconds += c.Perf.SimSeconds
			events += uint64(c.Perf.Events)
		}
	}
	if h.store == nil {
		return
	}
	m, err := res.Manifest(name)
	if err != nil {
		logg.Fatal(err)
	}
	run := pc.Sample(simSeconds, events, false)
	if m.Perf == nil {
		m.Perf = &runstore.Perf{}
	}
	m.Perf.Run = &run
	var logs []runcmd.DecisionFile
	for _, c := range cells {
		if c.Decisions != nil {
			logs = append(logs, runcmd.DecisionFile{Name: "decisions-" + strings.ReplaceAll(c.Key, ".", "-") + ".ndjson", Log: c.Decisions})
		}
	}
	dir, err := runcmd.Commit(h.store, m, start, logs...)
	if err != nil {
		logg.Fatal(err)
	}
	logg.Infof("run %s recorded in %s", name, dir)
}

// validFigures is the closed set -fig accepts; "all" runs everything except
// the fleet sweep, which multiplies the workload by the fleet size and is
// requested explicitly.
var validFigures = []string{
	"2b", "3b", "4a", "4b", "5", "derive", "7", "7a", "7b", "7c",
	"faults", "raidloss", "fleet", "ablations", "calibration", "all",
}

func main() {
	os.Exit(run())
}

// run is main's body; it returns the process exit code — the number of sweep
// cells that ultimately failed (capped at 125), zero on full success — so
// deferred profile writers still flush on the failure path.
func run() int {
	cmd := runcmd.New("experiments")
	cmd.ProfileFlags()
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: "+strings.Join(validFigures, " | "))
		scale    = flag.Float64("scale", 0.05, "trace scale for Figure 7 sweeps (1 = full day)")
		full     = flag.Bool("full", false, "shorthand for -scale 1 (the full 1.48M-request day)")
		heavy    = flag.Bool("heavy", false, "run Figure 7 under the heavy workload condition")
		both     = flag.Bool("both", false, "run Figure 7 under both workload conditions")
		csvPath  = flag.String("csv", "", "also write machine-readable output to this file")
		steps    = flag.Int("steps", 13, "samples per axis for the function figures")
		runsDir  = flag.String("runs-dir", "", "record one manifest per sweep condition in this run store")
		traceDec = flag.Bool("trace-decisions", false, "trace every policy decision: attribution rollups land in the sweep manifests and per-cell decisions-*.ndjson logs in the run directories (requires -runs-dir)")
		resume   = flag.Bool("resume", false, "skip sweep conditions already recorded with an ok status in -runs-dir")
		retries  = flag.Int("retries", 0, "extra attempts per failed sweep cell (exponential backoff between attempts)")
		workers  = flag.Int("workers", 0, "sweep worker-pool size; 0 means one worker per CPU. Results are bit-identical for every value — -workers=1 is the sequential reference the CI identity gate diffs against")
		progress = flag.Bool("progress", false, "log sweep phases and, every 2 s, sweep progress (cells done, events/s, ETA) to stderr")
	)
	cmd.Parse()
	logg = cmd.Log
	cmd.Check(runcmd.Choice("fig", *fig, validFigures...))
	switch {
	case *retries < 0:
		cmd.Usage("-retries %d cannot be negative", *retries)
	case *workers < 0:
		cmd.Usage("-workers %d cannot be negative", *workers)
	case *resume && *runsDir == "":
		cmd.Usage("-resume requires -runs-dir (resume skips conditions by their recorded manifests)")
	case *traceDec && *runsDir == "":
		cmd.Usage("-trace-decisions requires -runs-dir (decision logs are recorded next to the sweep manifests)")
	}
	if *full {
		*scale = 1
	}

	var store *runstore.Store
	if *runsDir != "" {
		var err error
		store, err = runstore.Open(*runsDir)
		if err != nil {
			logg.Fatal(err)
		}
	}
	defer cmd.StartProfiles()()

	// One live surface for the whole invocation: each sweep condition
	// installs its tracker, so /progress, /metrics and the -progress line
	// follow whichever sweep is currently running. Observation-only —
	// results are bit-identical with or without -ops-addr and -progress.
	mon := cmd.Observe(*progress)
	defer mon.Close()
	h := &harness{
		store:    store,
		mon:      mon,
		progress: *progress,
		resume:   *resume,
		exec: experiment.Exec{
			Parallelism:    *workers,
			CellAttempts:   1 + *retries,
			TraceDecisions: *traceDec,
		},
	}
	load := "light"
	if *heavy {
		load = "heavy"
	}

	var csvW io.Writer
	var csvFile *atomicio.File
	if *csvPath != "" {
		// Atomic commit: the CSV appears under its final name only when the
		// sweep finishes, so a crashed run never leaves a torn artifact.
		var err error
		if csvFile, err = atomicio.Create(*csvPath); err != nil {
			logg.Fatal(err)
		}
		csvW = csvFile
	}

	model := reliability.NewModel()
	want := func(names ...string) bool {
		if *fig == "all" {
			return true
		}
		for _, n := range names {
			if *fig == n {
				return true
			}
		}
		return false
	}

	// The reliability-function figures: one table each, and a CSV series
	// for all but 4a.
	functions := []struct {
		fig, axis, csvAxis, title string
		points                    func(*reliability.Model, int) ([]experiment.FunctionPoint, error)
	}{
		{"2b", "temp_C", "temp_c", "Figure 2b — temperature-reliability function (3-year-old drives)", experiment.Fig2bTemperatureFunction},
		{"3b", "util", "utilization", "Figure 3b — utilization-reliability function (4-year-old drives)", experiment.Fig3bUtilizationFunction},
		{"4a", "startstops/day", "", "Figure 4a — IDEMA spindle start/stop failure-rate adder", experiment.Fig4aIDEMAAdder},
		{"4b", "transitions/day", "transitions_per_day", "Figure 4b — frequency-reliability function (Eq. 3, ½ × Figure 4a)", experiment.Fig4bFrequencyFunction},
	}
	for _, f := range functions {
		if !want(f.fig) {
			continue
		}
		pts, err := f.points(model, *steps)
		if err != nil {
			logg.Fatal(err)
		}
		experiment.RenderFunctionTable(os.Stdout, pts, f.axis, f.title)
		fmt.Println()
		if csvW != nil && f.csvAxis != "" {
			if err := experiment.WriteFunctionCSV(csvW, pts, f.csvAxis); err != nil {
				logg.Fatal(err)
			}
		}
	}
	if want("5") {
		at40, at50, err := experiment.Fig5Surfaces(model, 7, 9)
		if err != nil {
			logg.Fatal(err)
		}
		experiment.RenderSurfaceTable(os.Stdout, at40, "Figure 5a — PRESS surface at 40 °C (AFR%)")
		fmt.Println()
		experiment.RenderSurfaceTable(os.Stdout, at50, "Figure 5b — PRESS surface at 50 °C (AFR%)")
		fmt.Println()
	}
	if want("derive") {
		fmt.Println("§3.4 — modified Coffin-Manson derivation")
		experiment.RenderDerivation(os.Stdout, experiment.DerivationConstants())
		fmt.Println()
	}

	if want("7", "7a", "7b", "7c") {
		type condition struct {
			name      string
			intensity float64
		}
		light := condition{"light", experiment.LightIntensity}
		heavyCond := condition{"heavy", experiment.HeavyIntensity}
		conditions := []condition{light}
		switch {
		case *both:
			conditions = []condition{light, heavyCond}
		case *heavy:
			conditions = []condition{heavyCond}
		}
		for _, cond := range conditions {
			cfg := experiment.DefaultSweepConfig()
			cfg.Scale = *scale
			cfg.Intensity = cond.intensity
			res, took := sweep(h, "fig7-"+cond.name, &cfg, &cfg.Exec, cfg.CellKeys(), experiment.SweepManifestID, experiment.RunSweep)
			if res == nil {
				continue
			}
			fmt.Printf("Figure 7 — %s workload (scale %.3g, %s)\n\n",
				cond.name, *scale, took.Round(time.Millisecond))
			panels := []struct {
				id     string
				metric experiment.Metric
				title  string
			}{
				{"7a", experiment.MetricAFR, "Figure 7a — reliability (array AFR)"},
				{"7b", experiment.MetricEnergy, "Figure 7b — energy consumption"},
				{"7c", experiment.MetricResponse, "Figure 7c — mean response time"},
			}
			for _, p := range panels {
				if *fig != "all" && *fig != "7" && *fig != p.id {
					continue
				}
				if err := experiment.RenderSweepTable(os.Stdout, res, p.metric, p.title); err != nil {
					logg.Fatal(err)
				}
				if err := experiment.RenderImprovements(os.Stdout, res, p.metric, experiment.KindREAD); err != nil {
					logg.Fatal(err)
				}
				fmt.Println()
			}
			if csvW != nil {
				fmt.Fprintf(csvW, "# figure 7, %s workload\n", cond.name)
				if err := experiment.WriteSweepCSV(csvW, res); err != nil {
					logg.Fatal(err)
				}
			}
		}
	}

	// -scale, and -heavy's intensity, apply to every sweep's trace.
	trace := func(t *experiment.TraceSpec) {
		t.Scale = *scale
		if *heavy {
			t.Intensity = experiment.HeavyIntensity
		}
	}

	if want("faults") {
		cfg := experiment.DefaultFaultSweepConfig()
		trace(&cfg.TraceSpec)
		if res, took := sweep(h, "faults-"+load, &cfg, &cfg.Exec, cfg.CellKeys(), experiment.SweepManifestID, experiment.RunSweep); res != nil {
			fmt.Printf("Fault sweep — energy vs observed data loss (scale %.3g, accel %.0g, %d spare(s), %s)\n\n",
				*scale, experiment.FaultSweepAcceleration, cfg.Spares, took.Round(time.Millisecond))
			experiment.RenderFaultSummary(os.Stdout, res,
				"Observed reliability — Weibull failures under live PRESS hazard scaling")
			fmt.Println()
			if csvW != nil {
				fmt.Fprintf(csvW, "# fault sweep\n")
				if err := experiment.WriteSweepCSV(csvW, res); err != nil {
					logg.Fatal(err)
				}
			}
		}
	}

	if want("raidloss") {
		cfg := experiment.DefaultRAIDLossSweepConfig()
		trace(&cfg.TraceSpec)
		if res, took := sweep(h, "raidloss-"+load, &cfg, &cfg.Exec, cfg.CellKeys(), experiment.SweepManifestID, experiment.RunSweep); res != nil {
			fmt.Printf("RAID-loss sweep — MTTDL per RAID organization × energy policy (scale %.3g, accel %.0g, %d spare(s), %s)\n\n",
				*scale, experiment.RAIDLossAcceleration, cfg.Spares, took.Round(time.Millisecond))
			experiment.RenderRAIDLoss(os.Stdout, res,
				"Data-loss combinations — latent sector errors, scrubbing, Weibull rebuilds")
			fmt.Println()
			if csvW != nil {
				fmt.Fprintf(csvW, "# raidloss sweep\n")
				if err := experiment.WriteSweepCSV(csvW, res); err != nil {
					logg.Fatal(err)
				}
			}
		}
	}

	if want("calibration") {
		pts, err := experiment.IntensityScan(experiment.AblationConfig{TraceSpec: experiment.TraceSpec{Scale: *scale}}, nil, nil)
		if err != nil {
			logg.Fatal(err)
		}
		experiment.RenderIntensityScan(os.Stdout, pts,
			"Calibration — metrics vs arrival intensity (10 disks)")
		fmt.Println()
	}

	if want("ablations") {
		var acfg experiment.AblationConfig
		trace(&acfg.TraceSpec)
		caps, err := experiment.TransitionCapAblation(acfg, nil)
		if err != nil {
			logg.Fatal(err)
		}
		experiment.RenderVariants(os.Stdout, caps,
			"Ablation — READ transition cap S (the 65/day question)")
		fmt.Println()
		design, err := experiment.READDesignAblation(acfg)
		if err != nil {
			logg.Fatal(err)
		}
		experiment.RenderVariants(os.Stdout, design, "Ablation — READ design elements")
		fmt.Println()
		panel, err := experiment.BaselinePanelAblation(acfg)
		if err != nil {
			logg.Fatal(err)
		}
		experiment.RenderVariants(os.Stdout, panel, "Panel — every policy, one workload")
		fmt.Println()
	}

	// The fleet sweep runs only when asked for by name: every cell simulates
	// a whole fleet on one engine, so "all" deliberately excludes it.
	if *fig == "fleet" {
		cfg := experiment.DefaultFleetSweepConfig()
		trace(&cfg.TraceSpec)
		if res, took := sweep(h, "fleet-"+load, &cfg, &cfg.Exec, cfg.CellKeys(), experiment.FleetManifestID, experiment.RunFleetSweep); res != nil {
			fmt.Printf("Fleet sweep — routing × policy over fleet sizes (scale %.3g, replicas %d, %s)\n\n",
				*scale, cfg.Replicas, took.Round(time.Millisecond))
			experiment.RenderFleetSummary(os.Stdout, res,
				"Fleet resilience — deadlines, retries, hedging, failover")
			fmt.Println()
			if csvW != nil {
				fmt.Fprintf(csvW, "# fleet sweep\n")
				if err := experiment.WriteFleetCSV(csvW, res); err != nil {
					logg.Fatal(err)
				}
			}
		}
	}

	mon.MarkDone()
	if csvFile != nil {
		if err := csvFile.Close(); err != nil {
			logg.Errorf("%v", err)
			return 1
		}
	}
	if h.failed > 0 {
		logg.Errorf("%d sweep cell(s) failed after all retries", h.failed)
		return min(h.failed, 125)
	}
	return 0
}

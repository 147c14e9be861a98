// Command arraysim runs a single disk-array simulation and prints a full
// per-disk report.
//
//	arraysim -policy read -disks 12
//	arraysim -policy maid -disks 8 -requests 100000 -intensity 6
//	arraysim -policy pdc -trace day.trace
//	arraysim -policy read -faults -spares 1 -fault-accel 5e5
//	arraysim -policy read -faults -lse-rate 1.08e-4 -raid raid5 -rebuild-hours 12
//	arraysim -policy read -telemetry-dir out -trace-events -progress
//	arraysim -policy read -runs-dir runs -trace-decisions
//	arraysim -replay-decisions runs/arraysim-<digest> -override 3:skip
//	arraysim -policy read -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	diskarray "repro"
	"repro/cmd/internal/runcmd"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/runstore"
	"repro/internal/telemetry"
)

// manifestConfig is the digested configuration block of an arraysim run
// manifest: everything that determines the simulation's results. For trace
// replays the trace is identified by path only — the file's contents are not
// digested.
type manifestConfig struct {
	Policy      string                `json:"policy"`
	Disks       int                   `json:"disks"`
	Requests    int                   `json:"requests,omitempty"`
	Intensity   float64               `json:"intensity,omitempty"`
	Seed        int64                 `json:"seed,omitempty"`
	TraceFile   string                `json:"trace_file,omitempty"`
	Epochs      int                   `json:"epochs"`
	Faults      *faults.Config        `json:"faults,omitempty"`
	Spares      int                   `json:"spares,omitempty"`
	RebuildMBps float64               `json:"rebuild_mbps,omitempty"`
	RAID        *diskarray.RAIDConfig `json:"raid,omitempty"`
}

func main() {
	cmd := runcmd.New("arraysim")
	cmd.ProfileFlags()
	record := cmd.RecordFlags()
	var (
		policyName = flag.String("policy", "read", "policy: read | maid | pdc | always-on | drpm | read-replica | striped")
		disks      = flag.Int("disks", 10, "number of disks")
		requests   = flag.Int("requests", 50000, "synthetic trace length (ignored with -trace)")
		intensity  = flag.Float64("intensity", diskarray.LightIntensity, "arrival intensity multiplier")
		tracePath  = flag.String("trace", "", "replay a trace file instead of generating one")
		seed       = flag.Int64("seed", 1, "generator seed")
		epochs     = flag.Int("epochs", 24, "policy epochs across the trace")
		table      = flag.Bool("table", true, "print the per-disk table")
		timeline   = flag.Bool("timeline", false, "print a power/speed/queue timeline, one row per epoch boundary plus the run's end")

		telemetryDir = flag.String("telemetry-dir", "", "write per-disk NDJSON/CSV time-series and metrics.json into this directory")
		traceEvents  = flag.Bool("trace-events", false, "also record a Chrome trace_event DES trace (trace.json; requires -telemetry-dir)")
		traceSample  = flag.Int("trace-sample", 1, "record every Nth DES event in the Chrome trace")
		traceDec     = flag.Bool("trace-decisions", false, "record a structured policy decision log (decisions.ndjson) and attribution rollup (requires -telemetry-dir or -runs-dir)")
		replayDir    = flag.String("replay-decisions", "", "counterfactual replay: re-run the run recorded in this run directory (manifest.json + decisions.ndjson) and verify it reproduces, or perturb it with -override")
		overrideArg  = flag.String("override", "", "with -replay-decisions, force one recorded decision: <seq>:skip suppresses the decision and reports the energy/AFR/p99 delta")
		progress     = flag.Bool("progress", false, "log run phases and sim-time/wall-time progress to stderr")

		withFaults   = flag.Bool("faults", false, "inject Weibull disk failures (hazard scaled by live PRESS AFR)")
		faultSeed    = flag.Int64("fault-seed", 1, "failure-injection seed")
		faultAccel   = flag.Float64("fault-accel", 5e5, "reliability-timescale acceleration (1 = real time)")
		pressScaling = flag.Bool("press-scaling", true, "scale the failure hazard by each disk's live PRESS AFR")
		spares       = flag.Int("spares", 0, "hot-spare pool size (a failure with no spare left loses data)")
		rebuildMBps  = flag.Float64("rebuild-mbps", 0, "rebuild pacing in MB/s (0 = default 50)")

		lseRate      = flag.Float64("lse-rate", 0, "latent-sector-error rate per disk-hour (0 = LSEs off; paper-scale default is "+fmt.Sprint(faults.DefaultLSERatePerHour)+")")
		scrubHours   = flag.Float64("scrub-hours", 0, "Weibull scrub-interval scale in hours (0 = default 168; requires -lse-rate)")
		noScrub      = flag.Bool("no-scrub", false, "disable scrubbing so latent sector errors persist until repair (requires -lse-rate)")
		scrubIOMB    = flag.Float64("scrub-io-mb", 0, "I/O issued per scrub pass in MB (0 = default 256; requires -lse-rate)")
		raidLevel    = flag.String("raid", "", "RAID organization: raid5 | raid6 | repl2 | repl3 (requires -faults)")
		stripeWidth  = flag.Int("stripe-width", 0, "disks per RAID group (0 = whole array / replication default; requires -raid)")
		rebuildHours = flag.Float64("rebuild-hours", 0, "Weibull rebuild-duration scale in hours (0 = fixed -rebuild-mbps pacing; requires -faults)")
	)
	cmd.Parse()
	logg, explicit, usageErr := cmd.Log, cmd.Explicit, cmd.Usage

	switch {
	case *tracePath != "" && (explicit["requests"] || explicit["intensity"] || explicit["seed"]):
		usageErr("-trace replays a file; -requests/-intensity/-seed only apply to generated traces")
	case *disks < 2:
		usageErr("-disks %d: an array needs at least 2 disks", *disks)
	case *epochs <= 0:
		usageErr("-epochs %d must be positive", *epochs)
	case *tracePath == "" && *requests <= 0:
		usageErr("-requests %d must be positive", *requests)
	case *tracePath == "" && *intensity <= 0:
		usageErr("-intensity %g must be positive", *intensity)
	case *spares < 0:
		usageErr("-spares %d cannot be negative", *spares)
	case *rebuildMBps < 0:
		usageErr("-rebuild-mbps %g cannot be negative", *rebuildMBps)
	case *faultAccel <= 0:
		usageErr("-fault-accel %g must be positive", *faultAccel)
	case !*withFaults && (explicit["fault-seed"] || explicit["fault-accel"] || explicit["press-scaling"] || explicit["spares"] || explicit["rebuild-mbps"]):
		usageErr("fault flags require -faults")
	case !*withFaults && (explicit["lse-rate"] || explicit["raid"] || explicit["rebuild-hours"]):
		usageErr("-lse-rate/-raid/-rebuild-hours require -faults")
	case *lseRate < 0:
		usageErr("-lse-rate %g cannot be negative", *lseRate)
	case *lseRate == 0 && (explicit["scrub-hours"] || explicit["no-scrub"] || explicit["scrub-io-mb"]):
		usageErr("scrub flags require -lse-rate (scrubbing exists to clear latent sector errors)")
	case explicit["scrub-hours"] && *scrubHours <= 0:
		usageErr("-scrub-hours %g must be positive", *scrubHours)
	case explicit["scrub-hours"] && *noScrub:
		usageErr("-scrub-hours and -no-scrub contradict each other")
	case *scrubIOMB < 0:
		usageErr("-scrub-io-mb %g cannot be negative", *scrubIOMB)
	case *rebuildHours < 0:
		usageErr("-rebuild-hours %g cannot be negative", *rebuildHours)
	case *raidLevel == "" && explicit["stripe-width"]:
		usageErr("-stripe-width requires -raid")
	}
	cmd.Check(runcmd.Choice("policy", *policyName, runcmd.Strings(experiment.AllPolicyKinds())...))
	if *raidLevel != "" {
		cmd.Check(runcmd.Choice("raid", *raidLevel, runcmd.Strings(diskarray.RAIDLevels())...))
		rc := diskarray.RAIDConfig{Level: diskarray.RAIDLevel(*raidLevel), StripeWidth: *stripeWidth}
		cmd.Check(rc.Validate(*disks))
	}
	if *replayDir != "" {
		// Replay reconstructs the whole configuration from the recorded
		// manifest; any flag that would change it contradicts the point.
		allowed := map[string]bool{
			"replay-decisions": true, "override": true,
			"checkpoint-every": true, "progress": true,
			"v": true, "quiet": true, "ops-addr": true,
		}
		var clash []string
		for name := range explicit {
			if !allowed[name] {
				clash = append(clash, name)
			}
		}
		sort.Strings(clash)
		if len(clash) > 0 {
			usageErr("-replay-decisions derives the run configuration from the recorded manifest; drop -%s", strings.Join(clash, ", -"))
		}
		mon := cmd.Observe(*progress)
		defer mon.Close()
		if err := runReplay(*replayDir, *overrideArg, record.CkptEvery, mon); err != nil {
			logg.Fatal(err)
		}
		return
	}
	switch {
	case record.RunsDir != "" && *telemetryDir != "":
		usageErr("-telemetry-dir cannot be combined with -runs-dir: with -runs-dir, telemetry is written into the run directory")
	case record.RunsDir == "" && *telemetryDir == "" && (*traceEvents || explicit["trace-sample"]):
		usageErr("-trace-events/-trace-sample require -telemetry-dir or -runs-dir")
	case record.RunsDir == "" && *telemetryDir == "" && *traceDec:
		usageErr("-trace-decisions requires -telemetry-dir or -runs-dir (the decision log is written as decisions.ndjson)")
	case *overrideArg != "":
		usageErr("-override requires -replay-decisions")
	case *traceSample < 1:
		usageErr("-trace-sample %d must be at least 1", *traceSample)
	}
	defer cmd.StartProfiles()()

	// The flags become one manifestConfig: it names the run (with
	// -runs-dir) and is the only input to the simulation's configuration.
	mc := manifestConfig{Policy: *policyName, Disks: *disks, Epochs: *epochs}
	if *tracePath != "" {
		mc.TraceFile = *tracePath
	} else {
		mc.Requests, mc.Intensity, mc.Seed = *requests, *intensity, *seed
	}
	if *withFaults {
		fc := faults.Default()
		fc.Seed = *faultSeed
		fc.Acceleration = *faultAccel
		fc.PRESSScaling = *pressScaling
		fc.LSERatePerHour = *lseRate
		fc.NoScrub = *noScrub
		fc.ScrubIOMB = *scrubIOMB
		if *scrubHours > 0 {
			w := faults.DefaultScrub()
			w.ScaleHours = *scrubHours
			fc.Scrub = &w
		}
		if *rebuildHours > 0 {
			fc.RebuildTime = &diskarray.Weibull{Shape: 1, ScaleHours: *rebuildHours}
		}
		mc.Faults, mc.Spares, mc.RebuildMBps = &fc, *spares, *rebuildMBps
		if *raidLevel != "" {
			mc.RAID = &diskarray.RAIDConfig{Level: diskarray.RAIDLevel(*raidLevel), StripeWidth: *stripeWidth}
		}
	}
	if err := record.Open(mc); err != nil {
		logg.Fatal(err)
	}
	// With -runs-dir, telemetry lands next to the manifest so the artifacts
	// travel with the run.
	if record.Dir != "" {
		*telemetryDir = record.Dir
	}

	var rec *telemetry.Recorder
	if *telemetryDir != "" {
		var err error
		rec, err = telemetry.Open(telemetry.Config{
			Dir:              *telemetryDir,
			TraceEvents:      *traceEvents,
			TraceSampleEvery: *traceSample,
			TraceDecisions:   *traceDec,
		})
		if err != nil {
			logg.Fatal(err)
		}
	}

	// The live surface (the ops plane and the -progress ticker read the
	// run's lock-free Live and Watch) and the timeline both read what the
	// run's recorder collects, in memory when nothing is written. Attaching
	// a recorder is observation-only: the run is bit-identical with or
	// without -ops-addr, -progress and -timeline.
	mon := cmd.Observe(*progress)
	defer mon.Close()
	live, watch := mon.Run(record.Name, 0)
	if rec == nil && (live != nil || *timeline) {
		rec = &telemetry.Recorder{}
	}
	if live != nil {
		rec.Live = live
	}

	perfCap := runstore.StartPerf()
	simCfg, err := mc.simConfig()
	if err != nil {
		logg.Fatal(err)
	}
	simCfg.Telemetry = rec
	simCfg.Watch = watch
	if record.CkptEvery > 0 {
		simCfg.Checkpoint = &diskarray.CheckpointSpec{
			EverySimSeconds: record.CkptEvery,
			Path:            record.CheckpointPath(),
			Tool:            "arraysim",
			ConfigDigest:    record.Manifest.ConfigDigest,
		}
	}
	if *progress {
		logg.Infof("phase simulate")
	}
	var res *diskarray.SimResult
	if record.Resume {
		var state json.RawMessage
		if state, err = record.ResumeState(); err != nil {
			rec.Close()
			logg.Fatal(err)
		}
		res, err = diskarray.ResumeSimulation(simCfg, state)
	} else {
		res, err = diskarray.Simulate(simCfg)
	}
	if err != nil {
		rec.Close()
		logg.Fatal(err)
	}
	perf := perfCap.Sample(res.Duration, res.EventsFired, false)
	if *progress {
		logg.Infof("done simulate sim=%.1fs events=%d wall=%.3fs", res.Duration, res.EventsFired, perf.WallSeconds)
	}
	mon.MarkDone()
	if err := rec.Close(); err != nil {
		logg.Fatal(err)
	}
	// One ledger: the run's Summary is both the manifest's summary and, next
	// to the telemetry series, metrics.json. It is written before Commit,
	// which lists the run directory's artifacts.
	summary := runstore.SummaryFromResult(res, *withFaults)
	if rec.Dir() != "" {
		if err := runstore.WriteJSONFile(filepath.Join(rec.Dir(), "metrics.json"), summary); err != nil {
			logg.Fatal(err)
		}
		logg.Infof("telemetry written to %s", rec.Dir())
	}
	if m := record.Manifest; m != nil {
		m.Seed = *seed
		m.Policy = res.PolicyName
		if *tracePath != "" {
			m.Workload = "trace " + *tracePath
		} else {
			m.Workload = fmt.Sprintf("synthetic %d requests, intensity %g", *requests, *intensity)
		}
		m.Summary = summary
		m.Attribution = res.Attribution
		m.Perf = &runstore.Perf{Run: &perf}
	}
	if err := record.Commit(); err != nil {
		logg.Fatal(err)
	}

	fmt.Printf("policy %s on %d disks — %d requests over %.0f s\n\n",
		res.PolicyName, res.Disks, res.Requests, res.Duration)
	fmt.Printf("mean response:  %.2f ms (p95 %.2f, p99 %.2f, max %.0f ms)\n",
		res.MeanResponse*1e3, res.P95Response*1e3, res.P99Response*1e3, res.MaxResponse*1e3)
	fmt.Printf("energy:         %.1f kJ\n", res.EnergyJ/1e3)
	fmt.Printf("array AFR:      %.3f%% (worst disk %d)\n", res.ArrayAFR, res.WorstDisk)
	fmt.Printf("migrations:     %d   background ops: %d   epochs: %d\n",
		res.Migrations, res.BackgroundOps, res.Epochs)

	if *withFaults {
		fmt.Printf("\nfailures:       %d (%d on spares, %d data-loss)   repairs: %d\n",
			res.DiskFailures, res.SparesUsed, res.DataLossEvents, res.DiskRepairs)
		fmt.Printf("requests:       %d lost, %d degraded   files re-homed: %d\n",
			res.LostRequests, res.DegradedRequests, res.ReassignedFiles)
		fmt.Printf("rebuild:        %.0f MB, %.1f kJ\n", res.RebuildMB, res.RebuildEnergyJ/1e3)
		if res.MTTDLHours > 0 {
			fmt.Printf("MTTDL:          %.2f h (first data loss, virtual time)\n", res.MTTDLHours)
		}
		if res.LSEModeled {
			fmt.Printf("latent errors:  %d developed, %d scrubbed away, %d pending at end (%d scrub passes, %.0f MB)\n",
				res.LSEErrors, res.LSECleared, res.LSEPending, res.Scrubs, res.ScrubMB)
		}
		if res.RAIDLevel != "" {
			fmt.Printf("RAID:           %s × %d groups — %d data-loss combinations (%d via latent error during rebuild, %d overlapping failures)\n",
				res.RAIDLevel, res.RAIDGroups, res.RAIDDataLossEvents, res.RAIDLSELosses, res.RAIDOverlapLosses)
			if res.MTTDLEstHours > 0 {
				fmt.Printf("MTTDL estimate: %.3g h over %.3g h of accelerated exposure\n",
					res.MTTDLEstHours, res.ExposureHours)
			} else {
				fmt.Printf("MTTDL estimate: no loss observed over %.3g h of accelerated exposure\n",
					res.ExposureHours)
			}
		}
		for _, ev := range res.FailureLog {
			tag := "spare"
			if ev.DataLoss {
				tag = "DATA LOSS"
			}
			fmt.Printf("  t=%9.1f s  disk %2d failed (%s)\n", ev.Time, ev.Disk, tag)
		}
		for _, ev := range res.RAIDLossLog {
			fmt.Printf("  t=%9.1f s  RAID group %d lost data (%s, disk %d)\n",
				ev.Time, ev.Group, ev.Kind, ev.Disk)
		}
	}

	if *timeline {
		fmt.Println()
		diskarray.RenderTimeline(os.Stdout, rec.Timeline(), 24)
	}

	if *table {
		fmt.Printf("\n%4s %8s %6s %11s %8s %8s %9s %7s\n",
			"disk", "util%", "trans", "trans/day", "temp°C", "AFR%", "requests", "final")
		for _, d := range res.PerDisk {
			fmt.Printf("%4d %8.2f %6d %11.1f %8.1f %8.3f %9d %7s\n",
				d.ID, d.Utilization*100, d.Transitions, d.TransitionsPerDay,
				d.MeanTempC, d.AFR, d.RequestsServed, d.FinalSpeed)
		}
	}
}

// simConfig builds the simulation mc describes. It is the one place a
// configuration becomes a SimConfig: the run builds mc from its flags and
// -replay-decisions decodes it from the recorded manifest, so the two cannot
// drift apart.
func (mc manifestConfig) simConfig() (diskarray.SimConfig, error) {
	trace, err := mc.trace()
	if err != nil {
		return diskarray.SimConfig{}, err
	}
	stats, err := trace.ComputeStats()
	if err != nil {
		return diskarray.SimConfig{}, err
	}
	pol, err := experiment.NewPolicy(diskarray.PolicyKind(mc.Policy))
	if err != nil {
		return diskarray.SimConfig{}, err
	}
	cfg := diskarray.SimConfig{
		Disks:        mc.Disks,
		Trace:        trace,
		Policy:       pol,
		EpochSeconds: stats.Duration / float64(mc.Epochs),
	}
	if mc.Faults != nil {
		cfg.Faults, cfg.Spares, cfg.RebuildMBps = mc.Faults, mc.Spares, mc.RebuildMBps
		if mc.RAID != nil {
			cfg.RAID = *mc.RAID
		}
	}
	return cfg, nil
}

// trace loads the trace file or generates the synthetic workload.
func (mc manifestConfig) trace() (*diskarray.Trace, error) {
	if mc.TraceFile == "" {
		return runcmd.SyntheticTrace(mc.Requests, mc.Intensity, mc.Seed)
	}
	f, err := os.Open(mc.TraceFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return diskarray.ReadTrace(f)
}

// recordedConfig decodes the manifestConfig an arraysim run recorded.
func recordedConfig(m *runstore.Manifest) (manifestConfig, error) {
	var mc manifestConfig
	if err := json.Unmarshal(m.Config, &mc); err != nil {
		return mc, fmt.Errorf("replay: decode manifest config: %w", err)
	}
	return mc, nil
}

// runReplay is the -replay-decisions mode: rebuild the recorded run's
// configuration from its manifest, re-run it with a fresh decision log, and
// either verify the decision stream and headline metrics reproduce
// bit-identically (no -override) or force one decision and report the
// energy/AFR/p99 cost of that single choice. Replay never writes into the
// run directory.
func runReplay(runDir, override string, ckptEvery float64, mon *runcmd.Monitor) error {
	m, err := runstore.ReadManifest(runDir)
	if err != nil {
		return err
	}
	if m.Tool != "arraysim" {
		return fmt.Errorf("replay: %s was recorded by %q; only single arraysim runs can be replayed", runDir, m.Tool)
	}
	mc, err := recordedConfig(m)
	if err != nil {
		return err
	}
	basePath := filepath.Join(runDir, "decisions.ndjson")
	baseBytes, err := os.ReadFile(basePath)
	if err != nil {
		return fmt.Errorf("replay: %s has no decision log — record the run with -trace-decisions first: %w", runDir, err)
	}
	baseLog, err := telemetry.ReadDecisionNDJSON(bytes.NewReader(baseBytes))
	if err != nil {
		return fmt.Errorf("replay: %s: %w", basePath, err)
	}

	cfg, err := mc.simConfig()
	if err != nil {
		return err
	}
	dlog := telemetry.NewDecisionLog()
	live, watch := mon.Run(filepath.Base(runDir), 0)
	cfg.Telemetry = &telemetry.Recorder{Decisions: dlog, Live: live}
	cfg.Watch = watch
	if ckptEvery > 0 {
		// The recorded run's checkpoint ticks are DES events; replaying with
		// the same cadence (into a discarding sink) keeps the event streams —
		// and therefore events_fired — aligned.
		cfg.Checkpoint = &diskarray.CheckpointSpec{
			EverySimSeconds: ckptEvery,
			Tool:            "arraysim",
			ConfigDigest:    m.ConfigDigest,
			Sink:            func([]byte) error { return nil },
		}
	}

	var forcedSeq uint64
	if override != "" {
		seqStr, action, ok := strings.Cut(override, ":")
		if !ok {
			return fmt.Errorf("replay: -override %q is not <seq>:<action>", override)
		}
		seq, err := strconv.ParseUint(seqStr, 10, 64)
		if err != nil || seq == 0 {
			return fmt.Errorf("replay: -override sequence %q is not a positive integer", seqStr)
		}
		if action != "skip" {
			return fmt.Errorf("replay: -override action %q not supported (only: skip)", action)
		}
		if int(seq) > baseLog.Len() {
			return fmt.Errorf("replay: decision %d out of range; the recorded log has %d decisions", seq, baseLog.Len())
		}
		base := baseLog.Records()[seq-1]
		if base.Kind == telemetry.DecisionSpinUp || base.Kind == telemetry.DecisionRebuildPace {
			return fmt.Errorf("replay: decision %d is a %s, which cannot be skipped (queued work must eventually be served)", seq, base.Kind)
		}
		cfg.DecisionOverrides = map[uint64]string{seq: action}
		forcedSeq = seq
	}

	res, err := diskarray.Simulate(cfg)
	if err != nil {
		return err
	}
	mon.MarkDone()
	sum := runstore.SummaryFromResult(res, mc.Faults != nil)

	if forcedSeq == 0 {
		var buf bytes.Buffer
		if err := dlog.WriteNDJSON(&buf); err != nil {
			return err
		}
		logOK := bytes.Equal(buf.Bytes(), baseBytes)
		sumOK := sum.EventsFired == m.Summary.EventsFired &&
			sum.EnergyJ == m.Summary.EnergyJ &&
			sum.P99ResponseS == m.Summary.P99ResponseS
		if !logOK || !sumOK {
			fmt.Printf("replay DIVERGED from %s\n", runDir)
			if !logOK {
				fmt.Printf("  decision log: %d recorded vs %d replayed decisions (or differing records)\n",
					baseLog.Len(), dlog.Len())
			}
			if !sumOK {
				fmt.Printf("  events fired: %.0f vs %.0f\n", m.Summary.EventsFired, sum.EventsFired)
				fmt.Printf("  energy (J):   %v vs %v\n", m.Summary.EnergyJ, sum.EnergyJ)
				fmt.Printf("  p99 (s):      %v vs %v\n", m.Summary.P99ResponseS, sum.P99ResponseS)
			}
			fmt.Println("likely causes: different binary, a moved trace file, or a run recorded with -checkpoint-every replayed without it")
			os.Exit(1)
		}
		fmt.Printf("replay of %s reproduces the baseline bit-identically\n", runDir)
		fmt.Printf("  %d decisions, %.0f events, %.1f kJ, p99 %.2f ms\n",
			dlog.Len(), sum.EventsFired, sum.EnergyJ/1e3, sum.P99ResponseS*1e3)
		return nil
	}

	base := baseLog.Records()[forcedSeq-1]
	fmt.Printf("counterfactual: decision %d (%s disk %d at t=%.1f s, cause %q) forced to skip\n",
		forcedSeq, base.Kind, base.Disk, base.T, base.Cause)
	fmt.Printf("  baseline:  %.3f kJ, AFR %.4f%%, p99 %.3f ms\n",
		m.Summary.EnergyJ/1e3, m.Summary.ArrayAFRPct, m.Summary.P99ResponseS*1e3)
	fmt.Printf("  replayed:  %.3f kJ, AFR %.4f%%, p99 %.3f ms\n",
		sum.EnergyJ/1e3, sum.ArrayAFRPct, sum.P99ResponseS*1e3)
	fmt.Printf("  delta:     %+.3f kJ, %+.5f%% AFR, %+.3f ms p99  (%d vs %d decisions)\n",
		(sum.EnergyJ-m.Summary.EnergyJ)/1e3,
		sum.ArrayAFRPct-m.Summary.ArrayAFRPct,
		(sum.P99ResponseS-m.Summary.P99ResponseS)*1e3,
		dlog.Len(), baseLog.Len())
	return nil
}

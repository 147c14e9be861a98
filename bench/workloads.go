package main

// The four workloads. Each simulates an open-loop Poisson arrival process in
// virtual time; on the host, units run closed-loop, one after another. Every
// generator, fault and shock seed comes from -seed, and the simulator
// receives only the generated trace. Scales are constants here and are
// recorded in README.md.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/array"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/diskmodel"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/policy"
	"repro/internal/reliability"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// workloadDef is one named workload. setup builds its inputs: the trace and
// validated configuration. Set-up is timed on its own (setup_s), so work
// moved out of a unit and into set-up shows.
type workloadDef struct {
	name, why string
	setup     func(seed int64, tr *tracer) (*instance, error)
}

// instance is a workload after set-up.
type instance struct {
	// requests is the number of simulated requests one unit serves.
	requests int
	// unit runs one unit of work. A non-nil tracer instruments it.
	unit func(tr *tracer) (unitOut, error)
	// replay, set for the sweep only, re-runs the sweep's cells one after
	// another through array.Run with instrumented policies and returns the
	// digest, which must equal the sweep's.
	replay func(tr *tracer) (string, error)
	// pool, set for the sweep only, runs the sweep on poolWorkers workers;
	// its digest must equal the one-worker sweep's.
	pool func() (unitOut, error)
	// plain, set for the checkpointing workload only, runs the unit's
	// simulation without checkpoints and returns its wall seconds.
	plain func() (float64, error)
}

// unitOut is what one unit produced: the digest of its simulated outputs and
// the counts the per-layer metrics are made from.
type unitOut struct {
	digest string
	c      counts
}

// counts are per-unit totals read from the Result structs the simulator
// returns, plus the benchmark's own phase timings.
type counts struct {
	events, backgroundOps, migrations, transitions float64
	failures, scrubs                               float64
	// Fleet router.
	attempts, hedges, hedgeWins, duplicates, deferred, timeouts float64
	// Checkpointing workload.
	snapshots, snapshotBytes       float64
	runS, decodeS, resumeS         float64
	cellWallSum, cellWallMax, wall float64
	workers                        int
}

const (
	steadyName = "steady-alwayson"
	sweepName  = "fig7-heavy-sweep"
	fleetName  = "fleet-shocks"
	ckptName   = "raid6-ckpt-resume"
)

// poolWorkers is the width of the sweep the traced run times to measure the
// worker pool (experiment.pool_efficiency). Timed units run the sweep on one
// worker, like every other workload: with two workers on a 2-vCPU VM, the
// two processors slowed each other by up to 1.4x at random, and the sweep's
// host times spread twice as far as with one (README.md).
var poolWorkers = min(2, runtime.NumCPU())

var workloads = []workloadDef{
	{steadyName, "AlwaysOn over the full paper-scale day: kernel, array queues, disk model and stats do the work; bypasses policies, router and checkpoints", setupSteady},
	{sweepName, "the paper's Fig-7 grid (READ/MAID/PDC x 6,10,16 disks, heavy load) through the sweep runner: policy hooks, migrations, idle timers", setupSweep},
	{fleetName, "4 READ arrays behind a least-loaded router with retries, hedges, backpressure and rack shocks: the router and shared-clock engine", setupFleet},
	{ckptName, "RAID-6 READ array with faults, scrubs and rebuilds, checkpointed every 1/60 of the run, then decoded and resumed: the checkpoint path", setupCkpt},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// instrument wraps p for a traced unit and returns it unchanged otherwise.
func instrument(p array.Policy, tr *tracer) array.Policy {
	if tr == nil {
		return p
	}
	return wrapPolicy(p, tr)
}

func generate(wl workload.GenConfig, tr *tracer) (*workload.Trace, error) {
	id := tr.begin("workload.Generate")
	trace, err := workload.Generate(wl)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	return trace, nil
}

func validate(tr *tracer, what string, check func() error) error {
	id := tr.begin("validate")
	err := check()
	tr.end(id)
	if err != nil {
		return fmt.Errorf("validate %s: %w", what, err)
	}
	return nil
}

// sweepWorkload derives a generator configuration exactly as
// experiment.RunSweep does from DefaultSweepConfig: popularity churn and a
// diurnal day, at the given intensity and scale, with the phase length
// scaled so every trace keeps its twelve popularity phases. It also returns
// the nominal trace duration, from which epochs, checkpoints and shocks are
// spaced.
func sweepWorkload(seed int64, intensity, scale float64) (workload.GenConfig, float64, error) {
	wl := experiment.DefaultSweepConfig().Workload
	wl.Seed = seed
	wl, err := wl.WithIntensity(intensity)
	if err != nil {
		return wl, 0, err
	}
	if wl, err = wl.Scaled(scale); err != nil {
		return wl, 0, err
	}
	wl.PhaseSeconds *= scale
	return wl, float64(wl.NumRequests) * wl.MeanInterarrival, nil
}

// epochsPerTrace matches experiment.SweepConfig's default.
const epochsPerTrace = 24

// baseArray is an array configuration with the defaults array.Run would fill
// in made explicit, so that Config.Validate can check it during set-up.
func baseArray(disks int, trace *workload.Trace, p array.Policy) array.Config {
	return array.Config{
		Disks:      disks,
		DiskParams: diskmodel.DefaultParams(),
		Thermal:    thermal.Default(),
		Trace:      trace,
		Policy:     p,
	}
}

func runArray(cfg array.Config, tr *tracer) (*array.Result, error) {
	id := tr.begin("array.Run")
	defer tr.end(id)
	return array.Run(cfg)
}

func setupSteady(seed int64, tr *tracer) (*instance, error) {
	wl := workload.DefaultGenConfig()
	wl.Seed = seed
	trace, err := generate(wl, tr)
	if err != nil {
		return nil, err
	}
	cfg := baseArray(10, trace, policy.NewAlwaysOn())
	if err := validate(tr, "array config", cfg.Validate); err != nil {
		return nil, err
	}
	return &instance{
		requests: len(trace.Requests),
		unit: func(tr *tracer) (unitOut, error) {
			c := cfg
			c.Policy = instrument(policy.NewAlwaysOn(), tr)
			res, err := runArray(c, tr)
			if err != nil {
				return unitOut{}, err
			}
			return arrayOut(res)
		},
	}, nil
}

func setupSweep(seed int64, tr *tracer) (*instance, error) {
	sc := experiment.DefaultSweepConfig()
	sc.Intensity = experiment.HeavyIntensity
	sc.DiskCounts = []int{6, 10, 16}
	sc.Scale = 0.1
	sc.Parallelism = 1
	sc.Workload.Seed = seed
	if err := validate(tr, "sweep config", sc.Validate); err != nil {
		return nil, err
	}
	// RunSweep generates its own trace inside each unit. Set-up generates
	// the same one to count the unit's requests and to replay its cells.
	wl, duration, err := sweepWorkload(seed, sc.Intensity, sc.Scale)
	if err != nil {
		return nil, err
	}
	trace, err := generate(wl, tr)
	if err != nil {
		return nil, err
	}
	epoch := duration / epochsPerTrace
	cells := len(sc.DiskCounts) * len(sc.Policies)
	sweep := func(tr *tracer, workers int) (unitOut, error) {
		c := sc
		c.Parallelism = workers
		id := tr.begin("experiment.RunSweep")
		start := time.Now()
		res, err := experiment.RunSweep(c)
		wall := time.Since(start).Seconds()
		tr.end(id)
		if err != nil {
			return unitOut{}, err
		}
		var out unitOut
		digests := make([]cellDigest, 0, len(res.Cells))
		for _, cell := range res.Cells {
			out.c.add(cell.Result)
			out.c.cellWallSum += cell.Perf.WallSeconds
			out.c.cellWallMax = max(out.c.cellWallMax, cell.Perf.WallSeconds)
			digests = append(digests, newCellDigest(cell.Disks, cell.Policy, cell.Result))
		}
		out.c.wall = wall
		out.c.workers = workers
		out.digest, err = digestOf(digests)
		return out, err
	}
	return &instance{
		requests: cells * len(trace.Requests),
		unit:     func(tr *tracer) (unitOut, error) { return sweep(tr, 1) },
		pool: func() (unitOut, error) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(poolWorkers))
			return sweep(nil, poolWorkers)
		},
		replay: func(tr *tracer) (string, error) {
			var digests []cellDigest
			for _, disks := range sc.DiskCounts {
				for _, kind := range sc.Policies {
					p, err := experiment.NewPolicy(kind)
					if err != nil {
						return "", err
					}
					res, err := runArray(array.Config{
						Disks: disks, Trace: trace, Policy: instrument(p, tr), EpochSeconds: epoch,
					}, tr)
					if err != nil {
						return "", fmt.Errorf("replay %s.%d: %w", kind, disks, err)
					}
					digests = append(digests, newCellDigest(disks, kind, res))
				}
			}
			return digestOf(digests)
		},
	}, nil
}

func setupFleet(seed int64, tr *tracer) (*instance, error) {
	wl, duration, err := sweepWorkload(seed, experiment.HeavyIntensity, 0.25)
	if err != nil {
		return nil, err
	}
	trace, err := generate(wl, tr)
	if err != nil {
		return nil, err
	}
	cfg := cluster.Config{
		Arrays:            4,
		Replicas:          2,
		Topology:          cluster.Topology{Racks: 2},
		Trace:             trace,
		Proto:             array.Config{Disks: 8, EpochSeconds: duration / epochsPerTrace},
		Routing:           cluster.LeastLoaded,
		DeadlineSeconds:   5,
		MaxAttempts:       3,
		RetryBaseSeconds:  0.25,
		RetryCapSeconds:   30,
		RetryJitterFrac:   0.2,
		HedgeAfterP99Mult: 3,
		MaxBacklog:        64,
		Seed:              seed,
		Shocks: faults.ShockConfig{
			Enabled:             true,
			Seed:                seed,
			MeanIntervalSeconds: duration / 6,
			MeanOutageSeconds:   120,
		},
		MakePolicy: func(int) (array.Policy, error) { return policy.NewREAD(policy.READConfig{}), nil },
	}
	if err := validate(tr, "fleet config", cfg.Validate); err != nil {
		return nil, err
	}
	return &instance{
		requests: len(trace.Requests),
		unit: func(tr *tracer) (unitOut, error) {
			c := cfg
			c.MakePolicy = func(int) (array.Policy, error) {
				return instrument(policy.NewREAD(policy.READConfig{}), tr), nil
			}
			id := tr.begin("cluster.Run")
			res, err := cluster.Run(c)
			tr.end(id)
			if err != nil {
				return unitOut{}, err
			}
			return fleetOut(res)
		},
	}, nil
}

// midSnapshot is the checkpoint the unit resumes from: with a snapshot every
// 1/60 of the nominal trace duration, the 30th lands half-way through.
const midSnapshot = 30

func setupCkpt(seed int64, tr *tracer) (*instance, error) {
	wl, duration, err := sweepWorkload(seed, experiment.LightIntensity, 0.25)
	if err != nil {
		return nil, err
	}
	trace, err := generate(wl, tr)
	if err != nil {
		return nil, err
	}
	// The fault model of experiment.DefaultRAIDLossSweepConfig.
	fc := faults.Default()
	fc.Seed = seed
	fc.Acceleration = experiment.RAIDLossAcceleration
	fc.LSERatePerHour = faults.DefaultLSERatePerHour
	fc.RebuildTime = &reliability.Weibull{Shape: 1, ScaleHours: 12}
	base := baseArray(12, trace, policy.NewREAD(policy.READConfig{}))
	base.EpochSeconds = duration / epochsPerTrace
	base.Faults = &fc
	base.Spares = 2
	base.RAID = array.RAIDConfig{Level: array.RAID6}
	if err := validate(tr, "array config", base.Validate); err != nil {
		return nil, err
	}
	every := duration / 60
	// config gives each run its own policy and fault configuration.
	config := func(tr *tracer) array.Config {
		c := base
		f := fc
		c.Faults = &f
		c.Policy = instrument(policy.NewREAD(policy.READConfig{}), tr)
		return c
	}
	return &instance{
		requests: len(trace.Requests),
		unit: func(tr *tracer) (unitOut, error) {
			var mid []byte
			var n, size int
			c := config(tr)
			c.Checkpoint = &array.CheckpointSpec{
				EverySimSeconds: every, Tool: "bench", ConfigDigest: ckptName,
				Sink: func(data []byte) error {
					n++
					size += len(data)
					if n == midSnapshot {
						mid = append([]byte(nil), data...)
					}
					return nil
				},
			}
			start := time.Now()
			want, err := runArray(c, tr)
			if err != nil {
				return unitOut{}, err
			}
			ran := time.Now()
			if mid == nil {
				return unitOut{}, fmt.Errorf("only %d snapshots, want at least %d", n, midSnapshot)
			}
			id := tr.begin("checkpoint.Decode")
			env, err := checkpoint.Decode(mid)
			tr.end(id)
			if err != nil {
				return unitOut{}, err
			}
			decoded := time.Now()
			r := config(tr)
			r.Checkpoint = &array.CheckpointSpec{
				EverySimSeconds: every, Tool: "bench", ConfigDigest: ckptName,
				Sink: func([]byte) error { return nil },
			}
			id = tr.begin("array.Resume")
			got, err := array.Resume(r, env.State)
			tr.end(id)
			if err != nil {
				return unitOut{}, fmt.Errorf("resume: %w", err)
			}
			resumed := time.Now()
			if !reflect.DeepEqual(want, got) {
				return unitOut{}, fmt.Errorf("resume from snapshot %d differs from the uninterrupted run", midSnapshot)
			}
			out, err := arrayOut(want)
			out.c.snapshots = float64(n)
			out.c.snapshotBytes = float64(size)
			out.c.runS = ran.Sub(start).Seconds()
			out.c.decodeS = decoded.Sub(ran).Seconds()
			out.c.resumeS = resumed.Sub(decoded).Seconds()
			return out, err
		},
		plain: func() (float64, error) {
			start := time.Now()
			_, err := array.Run(config(nil))
			return time.Since(start).Seconds(), err
		},
	}, nil
}

// arrayDigest is the part of an array run's output the correctness gate
// hashes: requests, energy, AFR, response percentiles, events fired, fault
// outcomes and the per-disk counters.
type arrayDigest struct {
	Requests                                                          int
	EnergyJ, ArrayAFR                                                 float64
	MeanResponse, P50Response, P95Response, P99Response, P999Response float64
	MaxResponse                                                       float64
	EventsFired                                                       uint64
	Migrations, BackgroundOps, Epochs                                 int
	DiskFailures, DataLossEvents, LostRequests, DegradedRequests      int
	LSEErrors, Scrubs, RAIDDataLossEvents                             int
	PerDisk                                                           []array.DiskResult
}

func newArrayDigest(r *array.Result) arrayDigest {
	return arrayDigest{
		Requests: r.Requests, EnergyJ: r.EnergyJ, ArrayAFR: r.ArrayAFR,
		MeanResponse: r.MeanResponse, P50Response: r.P50Response, P95Response: r.P95Response,
		P99Response: r.P99Response, P999Response: r.P999Response, MaxResponse: r.MaxResponse,
		EventsFired: r.EventsFired,
		Migrations:  r.Migrations, BackgroundOps: r.BackgroundOps, Epochs: r.Epochs,
		DiskFailures: r.DiskFailures, DataLossEvents: r.DataLossEvents,
		LostRequests: r.LostRequests, DegradedRequests: r.DegradedRequests,
		LSEErrors: r.LSEErrors, Scrubs: r.Scrubs, RAIDDataLossEvents: r.RAIDDataLossEvents,
		PerDisk: r.PerDisk,
	}
}

// cellDigest is one sweep cell, in grid order.
type cellDigest struct {
	Disks  int
	Policy experiment.PolicyKind
	Result arrayDigest
}

func newCellDigest(disks int, kind experiment.PolicyKind, r *array.Result) cellDigest {
	return cellDigest{Disks: disks, Policy: kind, Result: newArrayDigest(r)}
}

// fleetDigest is the fleet's latency, energy, reliability and resilience
// counters.
type fleetDigest struct {
	Requests, Served                                                  int
	MeanResponse, P50Response, P95Response, P99Response, P999Response float64
	MaxResponse                                                       float64
	Retries, Hedges, HedgeWins, Failovers, Timeouts                   int
	Deferred, Duplicates, Shed, Failed, ShocksInjected                int
	EnergyJ, WorstAFR                                                 float64
	DiskFailures, LostRequests                                        int
	EventsFired                                                       uint64
}

// digestOf is the hex SHA-256 of v's JSON encoding. Struct fields encode in
// declaration order and floats in their shortest exact form, so equal
// outputs give equal digests.
func digestOf(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

func (c *counts) add(r *array.Result) {
	c.events += float64(r.EventsFired)
	c.backgroundOps += float64(r.BackgroundOps)
	c.migrations += float64(r.Migrations)
	c.failures += float64(r.DiskFailures)
	c.scrubs += float64(r.Scrubs)
	for _, d := range r.PerDisk {
		c.transitions += float64(d.Transitions)
	}
}

func arrayOut(r *array.Result) (unitOut, error) {
	var out unitOut
	out.c.add(r)
	var err error
	out.digest, err = digestOf(newArrayDigest(r))
	return out, err
}

func fleetOut(r *cluster.Result) (unitOut, error) {
	var out unitOut
	for _, a := range r.PerArray {
		out.c.add(a.Result)
		// Attempts the member arrays served or lost: first attempts,
		// retries, hedges and failovers that reached an array.
		out.c.attempts += float64(a.Requests + a.LostRequests)
	}
	out.c.events = float64(r.EventsFired)
	out.c.hedges = float64(r.Hedges)
	out.c.hedgeWins = float64(r.HedgeWins)
	out.c.duplicates = float64(r.Duplicates)
	out.c.deferred = float64(r.Deferred)
	out.c.timeouts = float64(r.Timeouts)
	var err error
	out.digest, err = digestOf(fleetDigest{
		Requests: r.Requests, Served: r.Served,
		MeanResponse: r.MeanResponse, P50Response: r.P50Response, P95Response: r.P95Response,
		P99Response: r.P99Response, P999Response: r.P999Response, MaxResponse: r.MaxResponse,
		Retries: r.Retries, Hedges: r.Hedges, HedgeWins: r.HedgeWins, Failovers: r.Failovers,
		Timeouts: r.Timeouts, Deferred: r.Deferred, Duplicates: r.Duplicates, Shed: r.Shed,
		Failed: r.Failed, ShocksInjected: r.ShocksInjected,
		EnergyJ: r.EnergyJ, WorstAFR: r.WorstAFR,
		DiskFailures: r.DiskFailures, LostRequests: r.LostRequests,
		EventsFired: r.EventsFired,
	})
	return out, err
}

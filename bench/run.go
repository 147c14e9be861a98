package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
	better     string // "higher" or "lower"
	// everywhere marks per-layer metrics that every workload measures: they
	// are BENCHMARK.json's per_layer list and the traced run's output line.
	// The rest belong to layers only some workloads call, and are reported
	// where measured.
	everywhere bool
}

// endToEnd are the untraced run's metrics, as listed in BENCHMARK.json.
var endToEnd = []metricDef{
	{"sim_req_per_s", "req/s", "higher", true},
	{"cpu_ns_per_req", "ns", "lower", true},
	{"allocs_per_req", "allocs", "lower", true},
	{"alloc_bytes_per_req", "B", "lower", true},
	{"peak_rss_mb", "MiB", "lower", true},
	{"setup_s", "s", "lower", true},
}

// errorRate is reported beside the end-to-end metrics but is not one of them
// in BENCHMARK.json, where every metric must be non-zero: there, failed
// units are the output line's "failed" count.
const errorRate = "error_rate"

// shareBuckets are the profile buckets reported as <bucket>.cpu_share.
var shareBuckets = []string{
	"workload", "des", "array", "stats", "diskmodel", "thermal", "reliability", "policy",
	"experiment", "cluster", "faults", "checkpoint", bucketJSON, bucketGC, bucketBench,
}

// perLayer are the traced run's metrics. Every *.cpu_share, other.cpu_share
// and trace.unattributed_share together sum to 1.
var perLayer = append(shares(), []metricDef{
	{"other.cpu_share", "fraction", "lower", true},
	{"workload.generate_s", "s", "lower", true},
	{"des.events_per_req", "events/req", "lower", true},
	{"des.events_per_s", "events/s", "higher", true},
	{"array.background_ops_per_kreq", "ops/kreq", "lower", true},
	{"array.migrations_per_kreq", "ops/kreq", "lower", true},
	{"diskmodel.transitions_per_kreq", "count/kreq", "lower", true},
	{"policy.hook_calls_per_req", "calls/req", "lower", true},
	{"policy.target_disk_ns", "ns", "lower", true},
	{"policy.on_request_complete_ns", "ns", "lower", true},
	{"policy.on_epoch_us", "us", "lower", false},
	{"policy.on_idle_timeout_ns", "ns", "lower", false},
	{"policy.save_state_us", "us", "lower", false},
	{"policy.span_share", "fraction", "lower", true},
	{"experiment.pool_efficiency", "fraction", "higher", true},
	{"experiment.cell_wall_max_s", "s", "lower", false},
	{"cluster.attempts_per_req", "attempts/req", "lower", true},
	{"cluster.hedge_win_frac", "fraction", "higher", true},
	{"cluster.duplicates_per_kreq", "count/kreq", "lower", true},
	{"cluster.deferred_per_kreq", "count/kreq", "lower", true},
	{"cluster.timeouts_per_kreq", "count/kreq", "lower", true},
	{"faults.failures_per_unit", "count", "lower", true},
	{"faults.scrubs_per_kreq", "count/kreq", "lower", true},
	{"checkpoint.snapshots_per_unit", "count", "lower", true},
	{"checkpoint.bytes_per_snapshot", "B", "lower", true},
	{"checkpoint.decode_ms", "ms", "lower", false},
	{"checkpoint.resume_s", "s", "lower", false},
	{"checkpoint.overhead_frac", "fraction", "lower", true},
	{"runtime.gc_cycles_per_unit", "count", "lower", true},
	{"trace.overhead_frac", "fraction", "lower", true},
	{"trace.unattributed_share", "fraction", "lower", true},
	{"trace.profile_samples", "count", "higher", true},
}...)

func shares() []metricDef {
	var m []metricDef
	for _, b := range shareBuckets {
		m = append(m, metricDef{b + ".cpu_share", "fraction", "lower", true})
	}
	return m
}

// expectedDigests holds each workload's sim_digest at seed 1.
//
//go:embed digests.json
var digestsJSON []byte

func expectedDigest(workload string, seed int64) (string, error) {
	if seed != 1 {
		return "", nil
	}
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	d, ok := m[workload]
	if !ok {
		return "", fmt.Errorf("digests.json has no seed-1 digest for %s", workload)
	}
	return d, nil
}

// wlResult is one workload's outcome in one run.
type wlResult struct {
	Workload   string   `json:"workload"`
	Digest     string   `json:"sim_digest"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Errors     []string `json:"errors,omitempty"`
	Units      int      `json:"timed_units"`
	// UnitWall is each passing timed unit's wall time, in run order.
	UnitWall []float64 `json:"unit_wall_s,omitempty"`
	// SetupWall is each set-up's wall time, setupsPerUnit of them before
	// each timed unit.
	SetupWall []float64 `json:"setup_wall_s,omitempty"`
	// RefWall is each timing of the reference: one before the first
	// timed unit and one after each.
	RefWall []float64       `json:"ref_wall_s,omitempty"`
	Metrics map[string]stat `json:"metrics"`
	// Spans summarizes the traced run's spans by name (traced runs only).
	Spans []spanTotal `json:"spans,omitempty"`
	// Hooks counts and times each policy hook (traced runs only).
	Hooks map[string]hookStat `json:"hooks,omitempty"`
}

// runFile is the JSON file a run writes: one workload's, or every
// workload's when the parent process merges its children's files.
type runFile struct {
	Seed      int64      `json:"seed"`
	Seconds   float64    `json:"seconds"`
	Traced    bool       `json:"traced"`
	Host      hostFacts  `json:"host"`
	Workloads []wlResult `json:"workloads"`
}

func newResult(w workloadDef) wlResult {
	return wlResult{Workload: w.name, GOMAXPROCS: runtime.GOMAXPROCS(0), Metrics: make(map[string]stat)}
}

// checker holds the digest every unit of a run must produce: the recorded
// one at seed 1, otherwise the first unit's.
type checker struct {
	want string
	res  *wlResult
}

func newChecker(res *wlResult, seed int64) (*checker, error) {
	want, err := expectedDigest(res.Workload, seed)
	return &checker{want: want, res: res}, err
}

// check records one attempted unit and reports whether it passed.
func (c *checker) check(out unitOut, err error) bool {
	c.res.Attempted++
	if err == nil {
		if c.want == "" {
			c.want = out.digest
		}
		if out.digest != c.want {
			err = fmt.Errorf("sim_digest %s, want %s", out.digest, c.want)
		}
	}
	if err != nil {
		c.res.Failed++
		c.res.Errors = append(c.res.Errors, err.Error())
		return false
	}
	c.res.Digest = out.digest
	return true
}

// warmUp runs and checks the untimed unit that lets lazy set-up finish
// before timing starts.
func (c *checker) warmUp(inst *instance) {
	out, _, err := timeUnit(func() (unitOut, error) { return inst.unit(nil) })
	c.check(out, err)
}

// noUnitPassed reports a run in which no timed unit passed.
func noUnitPassed(res wlResult) error {
	if len(res.Errors) == 0 {
		return fmt.Errorf("%s: no timed unit ran", res.Workload)
	}
	return fmt.Errorf("%s: no unit passed: %s", res.Workload, res.Errors[len(res.Errors)-1])
}

// setupsPerUnit is how many times a run sets the workload up before each
// timed unit. Set-ups take 10 to 90 ms, so one per unit left setup_s a median
// of as few as 7 samples.
const setupsPerUnit = 3

// runWorkload is the untraced run. It sets the workload up and runs one
// untimed warm-up unit; then, until seconds have passed, it sets the workload
// up setupsPerUnit times afresh, runs one timed unit on the last inputs and
// times the reference (ref.go). The set-ups and the unit are rescaled by
// their speedFactors entry. The unit metrics read the fastest third of the
// rescaled units, setup_s the median rescaled set-up; their raw_ twins are
// the medians as measured. Each unit's digest check covers its set-up too.
func runWorkload(w workloadDef, seed int64, seconds float64) (wlResult, error) {
	res := newResult(w)
	ck, err := newChecker(&res, seed)
	if err != nil {
		return res, err
	}
	var inst *instance
	setUp := func() (float64, error) {
		// Every set-up starts with the previous inputs' memory returned to
		// the OS. Without that, regenerated traces fragmented the heap and
		// peak_rss_mb varied by up to 40% between runs.
		inst = nil
		debug.FreeOSMemory()
		start := time.Now()
		in, err := w.setup(seed, nil)
		if err != nil {
			return 0, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		inst = in
		return time.Since(start).Seconds(), nil
	}
	if _, err := setUp(); err != nil {
		return res, err
	}
	ck.warmUp(inst)

	ref := newReference()
	r0, err := ref.seconds()
	if err != nil {
		return res, err
	}
	res.RefWall = []float64{r0}
	// Timed unit i runs between reference runs i and i+1. setupUnit[j] is
	// the unit set-up j came before, and passed the units that passed, whose
	// samples are the only ones the unit metrics read.
	var samples []sample
	var setupUnit, passed []int
	for start := time.Now(); time.Since(start).Seconds() < seconds; {
		unit := len(res.RefWall) - 1
		for range setupsPerUnit {
			setup, err := setUp()
			if err != nil {
				return res, err
			}
			res.SetupWall = append(res.SetupWall, setup)
			setupUnit = append(setupUnit, unit)
		}
		out, s, err := timeUnit(func() (unitOut, error) { return inst.unit(nil) })
		r, rerr := ref.seconds()
		if rerr != nil {
			return res, rerr
		}
		res.RefWall = append(res.RefWall, r)
		if ck.check(out, err) {
			samples = append(samples, s)
			passed = append(passed, unit)
			res.UnitWall = append(res.UnitWall, s.wall)
		}
	}
	res.Units = len(samples)
	if len(samples) == 0 {
		return res, noUnitPassed(res)
	}
	speed := speedFactors(res.RefWall)
	per := func(f func(s sample, k float64) float64) []float64 {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = f(s, speed[passed[i]])
		}
		return xs
	}
	n := float64(inst.requests)
	m := res.Metrics
	m["sim_req_per_s"] = fastestThird("req/s", per(func(s sample, k float64) float64 { return n / (s.wall * k) }), true)
	m["cpu_ns_per_req"] = fastestThird("ns", per(func(s sample, k float64) float64 { return s.cpu * k * 1e9 / n }), false)
	m["raw_sim_req_per_s"] = summarize("req/s", per(func(s sample, _ float64) float64 { return n / s.wall }))
	m["raw_cpu_ns_per_req"] = summarize("ns", per(func(s sample, _ float64) float64 { return s.cpu * 1e9 / n }))
	m["allocs_per_req"] = summarize("allocs", per(func(s sample, _ float64) float64 { return s.mallocs / n }))
	m["alloc_bytes_per_req"] = summarize("B", per(func(s sample, _ float64) float64 { return s.bytes / n }))
	rss, err := peakRSSMiB()
	if err != nil {
		return res, err
	}
	m["peak_rss_mb"] = one("MiB", rss)
	rescaled := make([]float64, len(res.SetupWall))
	for j, x := range res.SetupWall {
		rescaled[j] = x * speed[setupUnit[j]]
	}
	m["setup_s"] = summarize("s", rescaled)
	m["raw_setup_s"] = summarize("s", res.SetupWall)
	m["ref_s"] = summarize("s", res.RefWall)
	m[errorRate] = one("fraction", float64(res.Failed)/float64(res.Attempted))
	return res, nil
}

// runTraced is the traced run. It sets the workload up under the CPU
// profiler and runs the warm-up unit, then, until seconds have passed,
// alternates an untraced unit with a traced one (spans, wrapped policies and
// the CPU profiler), so that drift in the host's speed reaches both alike.
// After each untraced unit it runs the sweep's pool run or the checkpointing
// workload's plain twin, where the workload has one.
// It derives the per-layer metrics from the profiles, the spans, the hook
// counters and the simulator's own counts, and writes the profiles and the
// spans to outDir.
func runTraced(w workloadDef, seed int64, seconds float64, outDir string) (wlResult, error) {
	res := newResult(w)
	ck, err := newChecker(&res, seed)
	if err != nil {
		return res, err
	}
	profDir := filepath.Join(outDir, w.name+".cpu")
	if err := os.MkdirAll(profDir, 0o755); err != nil {
		return res, err
	}
	var profiles []string
	// profiled runs fn under a CPU profile of its own; foldProfile merges
	// them. The forced collection before a unit stays outside.
	profiled := func(fn func() error) (err error) {
		f, err := os.Create(filepath.Join(profDir, fmt.Sprintf("%03d.pprof", len(profiles))))
		if err != nil {
			return err
		}
		profiles = append(profiles, f.Name())
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		return fn()
	}

	tr := newTracer()
	var inst *instance
	if err := profiled(func() (err error) {
		inst, err = w.setup(seed, tr)
		return err
	}); err != nil {
		return res, fmt.Errorf("%s: traced set-up: %w", w.name, err)
	}
	ck.warmUp(inst)
	n := float64(inst.requests)
	var ref unitOut
	var untraced, traced, plain, gcRuns, pool, cellMax, runS, decodeS, resumeS []float64
	for start, k := time.Now(), 0; k == 0 || time.Since(start).Seconds() < seconds; k++ {
		out, s, err := timeUnit(func() (unitOut, error) { return inst.unit(nil) })
		if ck.check(out, err) {
			// Timings the simulator reports itself come from untraced units.
			ref = out
			untraced = append(untraced, s.wall)
			gcRuns = append(gcRuns, s.gcRun)
			if c := out.c; c.snapshots > 0 {
				runS = append(runS, c.runS)
				decodeS = append(decodeS, c.decodeS)
				resumeS = append(resumeS, c.resumeS)
			}
		}
		if inst.pool != nil {
			out, _, err := timeUnit(inst.pool)
			if ck.check(out, err) {
				c := out.c
				pool = append(pool, c.cellWallSum/(float64(c.workers)*c.wall))
				cellMax = append(cellMax, c.cellWallMax)
			}
		}
		if inst.plain != nil {
			runtime.GC()
			s, err := inst.plain()
			if err != nil {
				return res, fmt.Errorf("%s: plain twin: %w", w.name, err)
			}
			plain = append(plain, s)
		}
		tr.unit++
		out, s, err = timeUnit(func() (out unitOut, err error) {
			err = profiled(func() error {
				out, err = inst.unit(tr)
				return err
			})
			return out, err
		})
		if ck.check(out, err) {
			traced = append(traced, s.wall)
		}
	}
	if len(untraced) == 0 || len(traced) == 0 {
		return res, noUnitPassed(res)
	}
	res.Units = len(traced)
	hookedRequests := n * float64(len(traced))
	if inst.replay != nil {
		tr.unit++
		d, err := inst.replay(tr)
		res.Attempted++
		if err == nil && d != res.Digest {
			err = fmt.Errorf("replay sim_digest %s, want the sweep's %s", d, res.Digest)
		}
		if err != nil {
			res.Failed++
			res.Errors = append(res.Errors, "replay: "+err.Error())
		}
		hookedRequests = n
	}
	prof, err := foldProfile(profiles...)
	if err != nil {
		return res, err
	}

	m := res.Metrics
	set := func(name, unit string, v float64) { m[name] = one(unit, v) }
	named := map[string]bool{bucketUnattributed: true}
	for _, b := range shareBuckets {
		set(b+".cpu_share", "fraction", prof.share(b))
		named[b] = true
	}
	var other time.Duration
	for b, d := range prof.Buckets {
		if !named[b] {
			other += d
		}
	}
	untracedWall := summarize("s", untraced).Median
	set("other.cpu_share", "fraction", ratio(float64(other), float64(prof.Total)))
	set("trace.unattributed_share", "fraction", prof.share(bucketUnattributed))
	set("trace.profile_samples", "count", prof.samples())
	set("trace.overhead_frac", "fraction", summarize("s", traced).Median/untracedWall-1)
	set("workload.generate_s", "s", spanSeconds(tr.spans, "workload.Generate"))

	c := ref.c
	perK := func(v float64) float64 { return v / n * 1000 }
	set("des.events_per_req", "events/req", c.events/n)
	set("des.events_per_s", "events/s", c.events/untracedWall)
	set("array.background_ops_per_kreq", "ops/kreq", perK(c.backgroundOps))
	set("array.migrations_per_kreq", "ops/kreq", perK(c.migrations))
	set("diskmodel.transitions_per_kreq", "count/kreq", perK(c.transitions))
	set("faults.failures_per_unit", "count", c.failures)
	set("faults.scrubs_per_kreq", "count/kreq", perK(c.scrubs))
	set("cluster.attempts_per_req", "attempts/req", c.attempts/n)
	set("cluster.hedge_win_frac", "fraction", ratio(c.hedgeWins, c.hedges))
	set("cluster.duplicates_per_kreq", "count/kreq", perK(c.duplicates))
	set("cluster.deferred_per_kreq", "count/kreq", perK(c.deferred))
	set("cluster.timeouts_per_kreq", "count/kreq", perK(c.timeouts))
	set("checkpoint.snapshots_per_unit", "count", c.snapshots)
	set("checkpoint.bytes_per_snapshot", "B", ratio(c.snapshotBytes, c.snapshots))
	m["runtime.gc_cycles_per_unit"] = summarize("count", gcRuns)
	set("experiment.pool_efficiency", "fraction", 0)
	if len(pool) > 0 {
		m["experiment.pool_efficiency"] = summarize("fraction", pool)
		m["experiment.cell_wall_max_s"] = summarize("s", cellMax)
	}
	overhead := 0.0
	if len(plain) > 0 && len(runS) > 0 {
		m["checkpoint.decode_ms"] = scaled(summarize("ms", decodeS), 1e3)
		m["checkpoint.resume_s"] = summarize("s", resumeS)
		overhead = 1 - summarize("s", plain).Median/summarize("s", runS).Median
	}
	set("checkpoint.overhead_frac", "fraction", overhead)

	var calls int64
	var hookNS float64
	res.Hooks = make(map[string]hookStat)
	for h, s := range tr.hooks {
		calls += s.Calls
		hookNS += s.estimatedNS()
		if s.Calls > 0 {
			res.Hooks[hookNames[h]] = s
		}
	}
	set("policy.hook_calls_per_req", "calls/req", float64(calls)/hookedRequests)
	set("policy.target_disk_ns", "ns", tr.hooks[hookTargetDisk].meanNS())
	set("policy.on_request_complete_ns", "ns", tr.hooks[hookRequestComplete].meanNS())
	if s := tr.hooks[hookEpoch]; s.Timed > 0 {
		set("policy.on_epoch_us", "us", s.meanNS()/1e3)
	}
	if s := tr.hooks[hookIdleTimeout]; s.Timed > 0 {
		set("policy.on_idle_timeout_ns", "ns", s.meanNS())
	}
	if s := tr.hooks[hookSaveState]; s.Timed > 0 {
		set("policy.save_state_us", "us", s.meanNS()/1e3)
	}
	sim := spanSeconds(tr.spans, "array.Run") + spanSeconds(tr.spans, "array.Resume") +
		spanSeconds(tr.spans, "cluster.Run")
	set("policy.span_share", "fraction", ratio(hookNS/1e9, sim))
	res.Spans = totals(tr.spans)

	if err := writeJSON(filepath.Join(outDir, w.name+".spans.json"), struct {
		Workload string              `json:"workload"`
		ClockNS  int64               `json:"clock_ns"`
		Spans    []span              `json:"spans"`
		Hooks    map[string]hookStat `json:"hooks"`
	}{w.name, tr.clockNS, tr.spans, res.Hooks}); err != nil {
		return res, err
	}
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func scaled(s stat, k float64) stat {
	s.Value *= k
	s.Median *= k
	s.Q1 *= k
	s.Q3 *= k
	return s
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

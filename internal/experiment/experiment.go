// Package experiment reproduces the paper's tables and figures: the three
// PRESS reliability functions (Figures 2b, 3b, 4b), the model surfaces
// (Figures 5a/5b), the §3.4 derivation constants, and the three-way policy
// comparison over array sizes 6-16 (Figures 7a/7b/7c).
//
// Sweep cells are independent simulations, so the harness fans them out over
// a bounded worker pool and reassembles results deterministically.
package experiment

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/array"
	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/policy"
	"repro/internal/reliability"
	"repro/internal/runstore"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// PolicyKind names a policy for sweep construction. Policies are stateful,
// so each sweep cell constructs a fresh instance.
type PolicyKind string

// The policy kinds available to sweeps.
const (
	KindREAD        PolicyKind = "read"
	KindMAID        PolicyKind = "maid"
	KindPDC         PolicyKind = "pdc"
	KindAlwaysOn    PolicyKind = "always-on"
	KindDRPM        PolicyKind = "drpm"
	KindREADReplica PolicyKind = "read-replica"
	KindStriped     PolicyKind = "striped"
)

// AllPolicyKinds lists every policy the sweeps can construct, in canonical
// order — the seven energy policies the reliability comparisons cover.
func AllPolicyKinds() []PolicyKind {
	return []PolicyKind{
		KindREAD, KindMAID, KindPDC, KindAlwaysOn, KindDRPM,
		KindREADReplica, KindStriped,
	}
}

// NewPolicy constructs a fresh policy instance of the given kind with its
// default configuration.
func NewPolicy(kind PolicyKind) (array.Policy, error) {
	switch kind {
	case KindREAD:
		return policy.NewREAD(policy.READConfig{}), nil
	case KindMAID:
		return policy.NewMAID(policy.MAIDConfig{}), nil
	case KindPDC:
		return policy.NewPDC(policy.PDCConfig{}), nil
	case KindAlwaysOn:
		return policy.NewAlwaysOn(), nil
	case KindDRPM:
		return policy.NewDRPM(policy.DRPMConfig{}), nil
	case KindREADReplica:
		return policy.NewREADReplica(policy.READReplicaConfig{}), nil
	case KindStriped:
		return policy.NewStripedAlwaysOn(policy.StripedConfig{}), nil
	default:
		return nil, fmt.Errorf("experiment: unknown policy kind %q", kind)
	}
}

// SweepConfig parameterizes a Figure-7-style policy comparison.
type SweepConfig struct {
	// DiskCounts is the array-size axis (paper: 6..16).
	DiskCounts []int
	// Policies compared at every array size.
	Policies []PolicyKind
	// TraceSpec is the trace every cell replays and its policy epoch.
	TraceSpec
	// Press overrides the reliability model used for AFRs (nil = default).
	// Used for robustness checks, e.g. swapping in the literal OCR reading
	// of Equation 3.
	Press *reliability.Model
	// Faults, when non-nil and enabled, injects disk failures into every
	// cell. Each cell's injector seed is Faults.Seed + the cell's disk
	// count, so every policy at a given array size faces the identical
	// failure-threshold draw — the observed-reliability comparison is then
	// down to how each policy's operating conditions scale the hazard and
	// how its failover behaves, not to sampling luck.
	Faults *faults.Config
	// Spares is the per-cell hot-spare pool (only meaningful with Faults).
	Spares int
	// RebuildMBps paces rebuild traffic; zero uses the array default.
	RebuildMBps float64
	// RAIDLevels, when non-empty, adds a RAID-organization axis to the
	// sweep: every (disks, policy) pair runs once per level, with data loss
	// declared by the redundancy-combination rules of array.RAIDConfig.
	// Requires Faults. Cells at the same disk count share their injector
	// seed across levels AND policies, so MTTDL differences are down to the
	// organization and the policy's operating conditions, not sampling luck.
	RAIDLevels []array.RAIDLevel
	// RAIDStripeWidth overrides the group width for every level; zero uses
	// each level's natural default (whole array for RAID-5/6, replica count
	// for replication).
	RAIDStripeWidth int
	// Exec holds the execution knobs (workers, cell retries, ops
	// tracking, decision tracing), none of which enters the digest.
	Exec
}

// DefaultSweepConfig returns the paper's light-workload sweep at a reduced
// trace scale suitable for interactive runs. Popularity churn is enabled
// (12 phases per trace day) — the temporal drift of real web traces that
// exercises migration and re-disturbs sleeping disks.
func DefaultSweepConfig() SweepConfig {
	wl := workload.DefaultGenConfig()
	wl.PhaseSeconds = 7200 // 12 popularity phases per day
	wl.PhaseRotate = 0.10
	wl.DiurnalProfile = workload.DefaultDiurnalProfile()
	return SweepConfig{
		DiskCounts: []int{6, 8, 10, 12, 14, 16},
		Policies:   []PolicyKind{KindREAD, KindMAID, KindPDC},
		TraceSpec:  TraceSpec{Workload: wl, Scale: 0.05, Intensity: LightIntensity},
	}
}

// The paper evaluates a "light" and a "heavy" workload condition on the
// WorldCup98 day. The intensity multipliers below map those conditions onto
// this reproduction's disk model: they are calibrated so that (a) the
// policies' workhorse disks operate at meaningful utilization, (b) the AFR
// differences between policies are dominated by the speed-transition
// frequency of each policy's coldest disks — the factor the paper identifies
// as most significant — and (c) the array remains stable at every size in
// the 6-16 sweep. See EXPERIMENTS.md for the calibration scan.
const (
	// LightIntensity multiplies the WorldCup98 arrival rate for the
	// light-workload condition.
	LightIntensity = 4
	// HeavyIntensity is the heavy-workload condition.
	HeavyIntensity = 6
)

func (c *SweepConfig) setDefaults() {
	if len(c.DiskCounts) == 0 {
		c.DiskCounts = []int{6, 8, 10, 12, 14, 16}
	}
	if len(c.Policies) == 0 {
		c.Policies = []PolicyKind{KindREAD, KindMAID, KindPDC}
	}
	c.TraceSpec.setDefaults()
	c.Exec.setDefaults()
}

// Validate reports the first invalid sweep parameter.
func (c *SweepConfig) Validate() error {
	if err := validateGrid(&c.TraceSpec, c.Policies, c.Faults, c.Spares); err != nil {
		return err
	}
	for _, n := range c.DiskCounts {
		if n < 2 {
			return fmt.Errorf("experiment: disk count %d too small", n)
		}
	}
	if c.RebuildMBps < 0 {
		return fmt.Errorf("experiment: negative rebuild rate %v", c.RebuildMBps)
	}
	if len(c.RAIDLevels) > 0 {
		if c.Faults == nil || !c.Faults.Enabled {
			return errors.New("experiment: RAID levels require fault injection")
		}
		for _, l := range c.RAIDLevels {
			rc := array.RAIDConfig{Level: l, StripeWidth: c.RAIDStripeWidth}
			for _, n := range c.DiskCounts {
				if err := rc.Validate(n); err != nil {
					return fmt.Errorf("experiment: RAID level %q at %d disks: %w", l, n, err)
				}
			}
		}
	}
	return nil
}

// validateGrid checks the parameters both sweep kinds share: the trace,
// the policies, the fault model and the spare pool.
func validateGrid(t *TraceSpec, policies []PolicyKind, fc *faults.Config, spares int) error {
	if err := t.validate(); err != nil {
		return err
	}
	for _, k := range policies {
		if _, err := NewPolicy(k); err != nil {
			return err
		}
	}
	if fc != nil {
		if err := fc.Validate(); err != nil {
			return err
		}
	}
	if spares < 0 {
		return fmt.Errorf("experiment: negative spare count %d", spares)
	}
	return nil
}

// Cell is one sweep cell result. Result is nil exactly when Status is
// CellFailed.
type Cell struct {
	Disks  int
	Policy PolicyKind
	// RAID is the cell's redundancy organization; empty when the sweep has
	// no RAID axis.
	RAID   array.RAIDLevel
	Result *array.Result
	Outcome
}

// Key is the cell's ops-plane and manifest identity:
// "<policy>[.<raid>].<disks>" — the same segments the manifest's
// "cell.<...>.<metric>" Summary.Extra keys use.
func (c Cell) Key() string {
	if c.RAID != "" {
		return fmt.Sprintf("%s.%s.%d", c.Policy, c.RAID, c.Disks)
	}
	return fmt.Sprintf("%s.%d", c.Policy, c.Disks)
}

func (c *Cell) desc() string {
	if c.RAID != "" {
		return fmt.Sprintf("disks=%d policy=%s raid=%s", c.Disks, c.Policy, c.RAID)
	}
	return fmt.Sprintf("disks=%d policy=%s", c.Disks, c.Policy)
}

func (c *Cell) cost() (float64, uint64) { return c.Result.Duration, c.Result.EventsFired }

// cells lays out the sweep grid, disks-major, then RAID level, then policy.
// With no RAID axis the single empty level keeps the grid — and therefore
// cell ordering and manifest keys — identical to a pre-RAID sweep.
func (c *SweepConfig) cells() []Cell {
	raids := c.RAIDLevels
	if len(raids) == 0 {
		raids = []array.RAIDLevel{""}
	}
	cells := make([]Cell, 0, len(c.DiskCounts)*len(raids)*len(c.Policies))
	for _, n := range c.DiskCounts {
		for _, r := range raids {
			for _, p := range c.Policies {
				cells = append(cells, Cell{Disks: n, Policy: p, RAID: r})
			}
		}
	}
	return cells
}

// CellKeys enumerates the sweep's cell identities in grid order, for
// building a telemetry.SweepTracker before the sweep starts.
func (c SweepConfig) CellKeys() []string {
	c.setDefaults()
	return cellKeys(c.cells())
}

func cellKeys[C any, P cellPtr[C]](cells []C) []string {
	keys := make([]string, len(cells))
	for i := range cells {
		keys[i] = P(&cells[i]).Key()
	}
	return keys
}

// SweepResult is the full policy × array-size grid.
type SweepResult struct {
	Config SweepConfig
	Cells  []Cell // in grid order (see SweepConfig.cells)
}

// Outcomes lists every cell's outcome in grid order.
func (s *SweepResult) Outcomes() []KeyedOutcome { return keyedOutcomes(s.Cells) }

// Manifest is SweepManifest over the sweep's own configuration.
func (s *SweepResult) Manifest(name string) (*runstore.Manifest, error) {
	return SweepManifest(name, s.Config, s)
}

// runCellOnce executes a single array sweep cell attempt under the
// runner-supplied observers.
func runCellOnce(cfg *SweepConfig, trace *workload.Trace, epoch float64, c *Cell, rec *telemetry.Recorder, watch *des.Watch) (*array.Result, error) {
	pol, err := NewPolicy(c.Policy)
	if err != nil {
		return nil, err
	}
	acfg := array.Config{
		Disks:        c.Disks,
		Trace:        trace,
		Policy:       pol,
		EpochSeconds: epoch,
		Press:        cfg.Press,
		Spares:       cfg.Spares,
		RebuildMBps:  cfg.RebuildMBps,
		Telemetry:    rec,
		Watch:        watch,
	}
	if cfg.Faults != nil {
		fc := *cfg.Faults
		fc.Seed += int64(c.Disks)
		acfg.Faults = &fc
	}
	if c.RAID != "" {
		acfg.RAID = array.RAIDConfig{Level: c.RAID, StripeWidth: cfg.RAIDStripeWidth}
	}
	return array.Run(acfg)
}

// RunSweep generates the workload once and replays it through every
// (policy, array size[, RAID level]) cell on the shared sweep runner.
//
// When any cell ultimately fails, RunSweep returns the complete SweepResult
// alongside a non-nil error summarizing the failures — callers that want
// the partial grid (e.g. to write a manifest with per-cell status) inspect
// the result; callers that treat any failure as fatal keep the old error
// contract.
func RunSweep(cfg SweepConfig) (*SweepResult, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	trace, epoch, err := cfg.trace()
	if err != nil {
		return nil, err
	}
	cells := cfg.cells()
	err = runGrid(&cfg.Exec, "sweep", cfg.Workload.Seed, cells, func(c *Cell, rec *telemetry.Recorder, watch *des.Watch) (err error) {
		c.Result, err = runCellOnce(&cfg, trace, epoch, c, rec, watch)
		return err
	})
	return &SweepResult{Config: cfg, Cells: cells}, err
}

// Metric selects which scalar a figure plots.
type Metric string

// The metrics of Figures 7a, 7b, and 7c, plus the observed-reliability
// metrics a fault-injecting sweep adds on top.
const (
	MetricAFR      Metric = "afr"      // Figure 7a (percent)
	MetricEnergy   Metric = "energy"   // Figure 7b (joules)
	MetricResponse Metric = "response" // Figure 7c (seconds)

	// MetricFailures is the number of injected disk failures observed.
	MetricFailures Metric = "failures"
	// MetricDataLoss is the number of failures that found the spare pool
	// empty.
	MetricDataLoss Metric = "dataloss"
	// MetricLostRequests is the number of user requests lost to failures.
	MetricLostRequests Metric = "lost"
	// MetricDegraded is the number of requests served degraded (re-routed
	// or delayed by an outage or rebuild).
	MetricDegraded Metric = "degraded"

	// MetricLSEErrors is the number of latent sector errors that developed.
	MetricLSEErrors Metric = "lse"
	// MetricRAIDLoss is the number of RAID data-loss events (failure
	// combinations that exceeded the organization's tolerance).
	MetricRAIDLoss Metric = "raidloss"
	// MetricMTTDL is the estimated mean time to data loss in hours (0 when
	// no loss was observed — the estimator's exposure gives only a lower
	// bound there).
	MetricMTTDL Metric = "mttdl_est"
)

// Value extracts the metric from a result.
func (m Metric) Value(r *array.Result) (float64, error) {
	switch m {
	case MetricAFR:
		return r.ArrayAFR, nil
	case MetricEnergy:
		return r.EnergyJ, nil
	case MetricResponse:
		return r.MeanResponse, nil
	case MetricFailures:
		return float64(r.DiskFailures), nil
	case MetricDataLoss:
		return float64(r.DataLossEvents), nil
	case MetricLostRequests:
		return float64(r.LostRequests), nil
	case MetricDegraded:
		return float64(r.DegradedRequests), nil
	case MetricLSEErrors:
		return float64(r.LSEErrors), nil
	case MetricRAIDLoss:
		return float64(r.RAIDDataLossEvents), nil
	case MetricMTTDL:
		return r.MTTDLEstHours, nil
	default:
		return 0, fmt.Errorf("experiment: unknown metric %q", m)
	}
}

// Series returns, for each policy, the metric values ordered by disk count.
//
// Series keys by (policy, disks) only: on a sweep with a RAID axis the
// levels at the same (policy, disks) overwrite each other, so RAID sweeps
// should be read through RAIDCells/RenderRAIDLoss instead.
func (s *SweepResult) Series(m Metric) (map[PolicyKind][]float64, []int, error) {
	disks := append([]int(nil), s.Config.DiskCounts...)
	sort.Ints(disks)
	out := make(map[PolicyKind][]float64, len(s.Config.Policies))
	for _, p := range s.Config.Policies {
		out[p] = make([]float64, len(disks))
	}
	pos := make(map[int]int, len(disks))
	for i, n := range disks {
		pos[n] = i
	}
	for _, c := range s.Cells {
		if c.Result == nil {
			// Failed cell (partial sweep): leave the zero value rather
			// than dereferencing a missing result.
			continue
		}
		v, err := m.Value(c.Result)
		if err != nil {
			return nil, nil, err
		}
		out[c.Policy][pos[c.Disks]] = v
	}
	return out, disks, nil
}

// Improvement summarizes how much better (positive) the base policy is than
// another policy on a metric where smaller is better: mean and max of
// (other - base)/other over the disk axis, in percent.
type Improvement struct {
	Base, Other PolicyKind
	MeanPercent float64
	MaxPercent  float64
}

// ImprovementOver computes the paper's headline comparisons (e.g., READ vs
// MAID on AFR: "up to 39.7%", "average 24.9%").
func (s *SweepResult) ImprovementOver(m Metric, base, other PolicyKind) (Improvement, error) {
	series, _, err := s.Series(m)
	if err != nil {
		return Improvement{}, err
	}
	bs, ok := series[base]
	if !ok {
		return Improvement{}, fmt.Errorf("experiment: policy %q not in sweep", base)
	}
	os, ok := series[other]
	if !ok {
		return Improvement{}, fmt.Errorf("experiment: policy %q not in sweep", other)
	}
	if len(bs) == 0 {
		return Improvement{}, errors.New("experiment: empty series")
	}
	imp := Improvement{Base: base, Other: other}
	for i := range bs {
		if os[i] == 0 {
			continue
		}
		p := 100 * (os[i] - bs[i]) / os[i]
		imp.MeanPercent += p
		if p > imp.MaxPercent {
			imp.MaxPercent = p
		}
	}
	imp.MeanPercent /= float64(len(bs))
	return imp, nil
}

// FunctionPoint is one (x, AFR) sample of a reliability function.
type FunctionPoint struct {
	X   float64
	AFR float64
}

// Fig2bTemperatureFunction samples the temperature-reliability function over
// [20,50] °C (paper Figure 2b).
func Fig2bTemperatureFunction(model *reliability.Model, steps int) ([]FunctionPoint, error) {
	return sampleFunc(20, 50, steps, model.TempAFR)
}

// Fig3bUtilizationFunction samples the utilization-reliability function over
// [25%,100%] (paper Figure 3b).
func Fig3bUtilizationFunction(model *reliability.Model, steps int) ([]FunctionPoint, error) {
	return sampleFunc(0.25, 1.0, steps, model.UtilAFR)
}

// Fig4bFrequencyFunction samples the frequency-reliability adder over
// [0,1600] transitions/day (paper Figure 4b, Eq. 3).
func Fig4bFrequencyFunction(model *reliability.Model, steps int) ([]FunctionPoint, error) {
	return sampleFunc(0, 1600, steps, model.FreqAFR)
}

// Fig4aIDEMAAdder samples the un-halved IDEMA start/stop adder (Figure 4a,
// per-day units).
func Fig4aIDEMAAdder(model *reliability.Model, steps int) ([]FunctionPoint, error) {
	q := model.FreqFunction()
	return sampleFunc(0, 1600, steps, q.IDEMAAdderAt)
}

func sampleFunc(lo, hi float64, steps int, f func(float64) float64) ([]FunctionPoint, error) {
	if steps < 2 {
		return nil, errors.New("experiment: need at least 2 samples")
	}
	pts := make([]FunctionPoint, steps)
	for i := 0; i < steps; i++ {
		x := lo + (hi-lo)*float64(i)/float64(steps-1)
		pts[i] = FunctionPoint{X: x, AFR: f(x)}
	}
	return pts, nil
}

// Fig5Surfaces samples the PRESS surfaces at 40 °C and 50 °C (Figures
// 5a/5b).
func Fig5Surfaces(model *reliability.Model, utilSteps, freqSteps int) (at40, at50 []reliability.SurfacePoint, err error) {
	at40, err = model.Surface(40, utilSteps, freqSteps)
	if err != nil {
		return nil, nil, err
	}
	at50, err = model.Surface(50, utilSteps, freqSteps)
	if err != nil {
		return nil, nil, err
	}
	return at40, at50, nil
}

// DerivationConstants reruns the §3.4 Coffin-Manson chain.
func DerivationConstants() reliability.Derivation {
	return reliability.DefaultCoffinManson().Derive()
}

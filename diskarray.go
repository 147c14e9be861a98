// Package diskarray is a reproduction of "Sacrificing Reliability for
// Energy Saving: Is It Worthwhile for Disk Arrays?" (Tao Xie and Yao Sun,
// IPDPS 2008): the PRESS empirical disk-reliability model, the READ
// reliability- and energy-aware data-distribution policy, the MAID and PDC
// baselines, and the trace-driven two-speed disk-array simulator they are
// evaluated on.
//
// The package is a facade: the implementation lives in internal packages
// (des, diskmodel, thermal, reliability, workload, array, policy,
// experiment) and the types below are aliases into them, so this is the
// single import a downstream user needs.
//
// # Quick start
//
//	trace, _ := diskarray.GenerateTrace(diskarray.DefaultGenConfig())
//	res, _ := diskarray.Simulate(diskarray.SimConfig{
//		Disks:  10,
//		Trace:  trace,
//		Policy: diskarray.NewREAD(diskarray.READConfig{}),
//	})
//	fmt.Printf("AFR %.2f%%, energy %.0f J, mean response %.1f ms\n",
//		res.ArrayAFR, res.EnergyJ, res.MeanResponse*1e3)
//
// # Reproducing the paper
//
// Every figure has a regeneration entry point: the reliability functions
// (Figures 2b/3b/4b) and PRESS surfaces (Figures 5a/5b) via the PRESS model,
// and the policy comparison (Figures 7a/7b/7c) via RunSweep. The
// cmd/experiments binary and the benchmarks in bench_test.go drive them.
package diskarray

import (
	"io"

	"repro/internal/array"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/diskmodel"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/policy"
	"repro/internal/reliability"
	"repro/internal/telemetry"
	"repro/internal/thermal"
	"repro/internal/workload"
	"repro/internal/worth"
)

// PRESS is the Predictor of Reliability for Energy-Saving Schemes (paper
// §3): it maps operating temperature, utilization, and daily speed-
// transition frequency to an annualized failure rate, and integrates
// per-disk AFRs into an array-level AFR (the least reliable disk's).
type PRESS = reliability.Model

// Factors are one disk's ESRRA inputs to PRESS.
type Factors = reliability.Factors

// PRESSOption configures NewPRESS.
type PRESSOption = reliability.Option

// IntegrationMode selects PRESS's per-disk factor-combination rule.
type IntegrationMode = reliability.IntegrationMode

// The available integration modes.
const (
	SharedBaseline = reliability.SharedBaseline
	MaxFactor      = reliability.MaxFactor
	MeanFactor     = reliability.MeanFactor
)

// NewPRESS assembles the PRESS model with the paper's default functions.
func NewPRESS(opts ...PRESSOption) *PRESS { return reliability.NewModel(opts...) }

// WithIntegrationMode overrides the factor-combination rule.
func WithIntegrationMode(m IntegrationMode) PRESSOption {
	return reliability.WithIntegrationMode(m)
}

// CoffinManson exposes the paper's §3.4 modified Coffin-Manson model.
type CoffinManson = reliability.CoffinManson

// Derivation is the §3.4 constant chain (A·A0, N'f, the 65/day budget).
type Derivation = reliability.Derivation

// DefaultCoffinManson returns the paper's Coffin-Manson constants.
func DefaultCoffinManson() CoffinManson { return reliability.DefaultCoffinManson() }

// Speed is a two-speed disk's spindle speed level.
type Speed = diskmodel.Speed

// The two spindle speeds.
const (
	Low  = diskmodel.Low
	High = diskmodel.High
)

// DiskParams describes a two-speed disk drive.
type DiskParams = diskmodel.Params

// DefaultDiskParams returns the Cheetah-derived two-speed parameter set.
func DefaultDiskParams() DiskParams { return diskmodel.DefaultParams() }

// SeekModel is the optional distance-based seek curve.
type SeekModel = diskmodel.SeekModel

// DefaultSeekModel returns the Cheetah-class seek curve whose mean matches
// the flat AvgSeek approximation.
func DefaultSeekModel() SeekModel { return diskmodel.DefaultSeekModel() }

// EnterpriseParams returns a 15,000/6,000 RPM enterprise drive profile.
func EnterpriseParams() DiskParams { return diskmodel.EnterpriseParams() }

// NearlineParams returns a 7,200/3,600 RPM nearline drive profile.
func NearlineParams() DiskParams { return diskmodel.NearlineParams() }

// Weibull is the manufacturer-style age-based lifetime model (related-work
// baseline to PRESS).
type Weibull = reliability.Weibull

// DefaultWeibull returns a field-data-flavoured Weibull parameterization.
func DefaultWeibull() Weibull { return reliability.DefaultWeibull() }

// ThermalModel maps spindle speed to operating temperature.
type ThermalModel = thermal.Model

// DefaultThermalModel returns the paper's thermal operating points
// (40 °C at low speed, 50 °C at high speed, 28 °C ambient).
func DefaultThermalModel() ThermalModel { return thermal.Default() }

// File is one stored file: size and access rate.
type File = workload.File

// FileSet is a collection of files.
type FileSet = workload.FileSet

// Request is one whole-file access in a trace.
type Request = workload.Request

// Trace is a replayable workload.
type Trace = workload.Trace

// TraceStats summarizes a trace.
type TraceStats = workload.Stats

// GenConfig parameterizes the synthetic WorldCup98-like trace generator.
type GenConfig = workload.GenConfig

// DefaultGenConfig returns the paper-calibrated generator configuration
// (4,079 files; 1,480,081 requests; 58.4 ms mean inter-arrival).
func DefaultGenConfig() GenConfig { return workload.DefaultGenConfig() }

// DefaultDiurnalProfile returns the hourly diurnal rate profile used by the
// experiment sweeps.
func DefaultDiurnalProfile() []float64 { return workload.DefaultDiurnalProfile() }

// GenerateTrace builds a synthetic trace.
func GenerateTrace(cfg GenConfig) (*Trace, error) { return workload.Generate(cfg) }

// ReadTrace parses a trace in the line-oriented text format.
func ReadTrace(r io.Reader) (*Trace, error) { return workload.ReadTrace(r) }

// ParseCommonLog converts a Common Log Format access log (the format the
// WorldCup98 trace is distributed in once textualized) into a Trace. It
// returns the number of unparsable lines skipped.
func ParseCommonLog(r io.Reader) (*Trace, int, error) { return workload.ParseCommonLog(r) }

// WriteTrace serializes a trace in the line-oriented text format.
func WriteTrace(w io.Writer, t *Trace) error { return workload.WriteTrace(w, t) }

// FaultConfig parameterizes failure injection (SimConfig.Faults): seeded
// Weibull failure times whose hazard is continuously rescaled by each
// disk's live PRESS AFR, turning the predicted failure rates into observed
// failure events.
type FaultConfig = faults.Config

// ScriptedFailure is a deterministic failure event for tests and demos.
type ScriptedFailure = faults.ScriptedEvent

// DefaultFaultConfig returns an enabled fault-injection configuration with
// PRESS hazard scaling on and a real-time (unaccelerated) timescale.
func DefaultFaultConfig() FaultConfig { return faults.Default() }

// FailureEvent is one observed disk failure in SimResult.FailureLog.
type FailureEvent = array.FailureEvent

// RAIDLevel names a redundancy organization (RAID-5, RAID-6, 2/3-way
// replication) for SimConfig.RAID.
type RAIDLevel = array.RAIDLevel

// The supported RAID organizations.
const (
	RAID5 = array.RAID5
	RAID6 = array.RAID6
	Repl2 = array.Repl2
	Repl3 = array.Repl3
)

// RAIDLevels lists the accepted organizations, in documentation order.
func RAIDLevels() []RAIDLevel { return array.RAIDLevels() }

// RAIDConfig organizes the array into redundancy groups so data loss
// requires a failure *combination* — overlapping disk failures, or a latent
// sector error on a surviving member during a rebuild.
type RAIDConfig = array.RAIDConfig

// RAIDLossEvent is one observed data-loss combination in
// SimResult.RAIDLossLog.
type RAIDLossEvent = array.RAIDLossEvent

// Policy is an energy-saving strategy for the simulated array.
type Policy = array.Policy

// FailureAwarePolicy is the optional interface a Policy implements to react
// to disk failures and repairs (READ re-zones, MAID/PDC repower
// replacements).
type FailureAwarePolicy = array.FailureAwarePolicy

// PolicyContext is the window a Policy gets into the running simulation.
type PolicyContext = array.Context

// SimConfig describes one simulation run.
type SimConfig = array.Config

// SimResult is the outcome of one simulation run.
type SimResult = array.Result

// DiskSimResult is the per-disk outcome of a run.
type DiskSimResult = array.DiskResult

// Simulate executes one trace-driven simulation.
func Simulate(cfg SimConfig) (*SimResult, error) { return array.Run(cfg) }

// CheckpointSpec configures periodic simulation snapshots
// (SimConfig.Checkpoint): the complete state is written atomically every
// EverySimSeconds of virtual time so an interrupted run can be resumed
// bit-identically with ResumeSimulation.
type CheckpointSpec = array.CheckpointSpec

// CheckpointablePolicy is the optional interface a Policy implements to
// survive checkpoint/restore. All shipped policies implement it.
type CheckpointablePolicy = array.CheckpointablePolicy

// ResumeSimulation reconstructs a simulation from a checkpoint's state
// payload (the envelope's State field, produced under the same SimConfig)
// and runs it to completion. The result is bit-identical to the
// uninterrupted run's when both use the same checkpoint interval.
func ResumeSimulation(cfg SimConfig, state []byte) (*SimResult, error) {
	return array.Resume(cfg, state)
}

// Sample is one row of a run's energy/speed/queue timeline. A run with a
// telemetry recorder (SimConfig.Telemetry) records one row per epoch
// boundary plus a run-final row; read them with TelemetryRecorder.Timeline.
type Sample = telemetry.Sample

// RenderTimeline prints a compact view of a run's timeline.
func RenderTimeline(w io.Writer, samples []Sample, maxRows int) {
	telemetry.RenderTimeline(w, samples, maxRows)
}

// WriteTimelineCSV exports a run's timeline as CSV with full round-trip
// float precision, each row's mean power derived from the previous row.
func WriteTimelineCSV(w io.Writer, samples []Sample) error {
	return telemetry.WriteTimelineCSV(w, samples)
}

// TelemetryConfig parameterizes a telemetry recorder (output directory,
// Chrome trace_event recording, sampling).
type TelemetryConfig = telemetry.Config

// TelemetryRecorder collects a run's per-disk time-series, DES event trace
// and policy decision log. Assign one to SimConfig.Telemetry; a nil recorder
// disables telemetry entirely and the simulation result is identical either
// way. The run's totals are in the SimResult, not the recorder.
type TelemetryRecorder = telemetry.Recorder

// TelemetryDiskSample is one per-disk time-series row (the NDJSON/CSV
// schema telemetry exports on every epoch boundary).
type TelemetryDiskSample = telemetry.DiskSample

// TelemetryLogger is the leveled logger all commands write through
// (error/info/debug, -quiet/-v mapping).
type TelemetryLogger = telemetry.Logger

// NewTelemetryLogger builds a leveled logger named like the producing
// tool. A nil writer defaults to stderr.
func NewTelemetryLogger(name string, w io.Writer, level telemetry.LogLevel) *TelemetryLogger {
	return telemetry.NewLogger(name, w, level)
}

// OpenTelemetry creates the telemetry output directory and returns a
// recorder writing into it. Close the recorder after the run to flush the
// series files.
func OpenTelemetry(cfg TelemetryConfig) (*TelemetryRecorder, error) {
	return telemetry.Open(cfg)
}

// READConfig parameterizes the paper's READ policy.
type READConfig = policy.READConfig

// READ is the paper's Reliability and Energy Aware Distribution policy.
type READ = policy.READ

// NewREAD builds the READ policy (paper §4, Figure 6).
func NewREAD(cfg READConfig) *READ { return policy.NewREAD(cfg) }

// MAIDConfig parameterizes the MAID baseline.
type MAIDConfig = policy.MAIDConfig

// MAID is the massive-array-of-idle-disks baseline adapted to 2-speed disks.
type MAID = policy.MAID

// NewMAID builds the MAID baseline.
func NewMAID(cfg MAIDConfig) *MAID { return policy.NewMAID(cfg) }

// PDCConfig parameterizes the PDC baseline.
type PDCConfig = policy.PDCConfig

// PDC is the popular-data-concentration baseline.
type PDC = policy.PDC

// NewPDC builds the PDC baseline.
func NewPDC(cfg PDCConfig) *PDC { return policy.NewPDC(cfg) }

// NewAlwaysOn builds the no-power-management baseline.
func NewAlwaysOn() Policy { return policy.NewAlwaysOn() }

// DRPMConfig parameterizes the uncapped dynamic-speed ablation policy.
type DRPMConfig = policy.DRPMConfig

// NewDRPM builds the uncapped dynamic-speed ablation policy.
func NewDRPM(cfg DRPMConfig) Policy { return policy.NewDRPM(cfg) }

// READReplicaConfig parameterizes the replication variant of READ.
type READReplicaConfig = policy.READReplicaConfig

// READReplica is the paper's §6 future-work READ variant that promotes
// newly-popular files by copying instead of migrating.
type READReplica = policy.READReplica

// NewREADReplica builds the replication variant of READ.
func NewREADReplica(cfg READReplicaConfig) *READReplica { return policy.NewREADReplica(cfg) }

// StripedConfig parameterizes the striped always-on policy.
type StripedConfig = policy.StripedConfig

// StripedAlwaysOn is the §6 future-work striping exploration: large files
// are split across several disks and served in parallel.
type StripedAlwaysOn = policy.StripedAlwaysOn

// NewStripedAlwaysOn builds the striping policy.
func NewStripedAlwaysOn(cfg StripedConfig) *StripedAlwaysOn {
	return policy.NewStripedAlwaysOn(cfg)
}

// StripePolicy is the optional interface a Policy implements to stripe
// files across disks.
type StripePolicy = array.StripePolicy

// CostModel prices the paper's title question: energy $ vs failure $.
type CostModel = worth.CostModel

// Assessment is one policy's yearly cost account.
type Assessment = worth.Assessment

// Verdict answers "is it worthwhile?" for a scheme against a baseline.
type Verdict = worth.Verdict

// FailureSim is a Monte-Carlo failure-probability estimate.
type FailureSim = worth.FailureSim

// DefaultCostModel returns a conservative 2008-flavoured price book.
func DefaultCostModel() CostModel { return worth.DefaultCostModel() }

// AssessCost converts a simulation result into a yearly cost account.
func AssessCost(m CostModel, res *SimResult) (Assessment, error) { return worth.Assess(m, res) }

// CompareCost runs the title-question arithmetic: energy saving vs
// reliability penalty, in $ per year.
func CompareCost(m CostModel, scheme, baseline *SimResult) (Verdict, error) {
	return worth.Compare(m, scheme, baseline)
}

// SimulateFailures estimates failure-event probabilities over a horizon by
// Monte Carlo over the per-disk AFRs.
func SimulateFailures(res *SimResult, years float64, trials int, seed int64) (FailureSim, error) {
	return worth.SimulateFailures(res, years, trials, seed)
}

// SweepConfig parameterizes a Figure-7-style policy comparison.
type SweepConfig = experiment.SweepConfig

// SweepResult is the policy × array-size result grid.
type SweepResult = experiment.SweepResult

// PolicyKind names a policy for sweep construction.
type PolicyKind = experiment.PolicyKind

// The policy kinds available to sweeps.
const (
	KindREAD        = experiment.KindREAD
	KindMAID        = experiment.KindMAID
	KindPDC         = experiment.KindPDC
	KindAlwaysOn    = experiment.KindAlwaysOn
	KindDRPM        = experiment.KindDRPM
	KindREADReplica = experiment.KindREADReplica
	KindStriped     = experiment.KindStriped
)

// Metric selects which scalar a figure plots.
type Metric = experiment.Metric

// The metrics of Figures 7a/7b/7c, plus the observed-reliability metrics a
// fault-injecting sweep adds.
const (
	MetricAFR          = experiment.MetricAFR
	MetricEnergy       = experiment.MetricEnergy
	MetricResponse     = experiment.MetricResponse
	MetricFailures     = experiment.MetricFailures
	MetricDataLoss     = experiment.MetricDataLoss
	MetricLostRequests = experiment.MetricLostRequests
	MetricDegraded     = experiment.MetricDegraded
	MetricLSEErrors    = experiment.MetricLSEErrors
	MetricRAIDLoss     = experiment.MetricRAIDLoss
	MetricMTTDL        = experiment.MetricMTTDL
)

// The paper's two workload conditions, as arrival-intensity multipliers.
const (
	LightIntensity = experiment.LightIntensity
	HeavyIntensity = experiment.HeavyIntensity
)

// DefaultSweepConfig returns the light-workload Figure 7 sweep at an
// interactive trace scale.
func DefaultSweepConfig() SweepConfig { return experiment.DefaultSweepConfig() }

// DefaultFaultSweepConfig returns the light-workload policy comparison with
// accelerated fault injection enabled: the policies are compared on energy
// consumed and data loss observed.
func DefaultFaultSweepConfig() SweepConfig { return experiment.DefaultFaultSweepConfig() }

// DefaultRAIDLossSweepConfig returns the MTTDL-per-policy experiment: every
// energy policy crossed with every RAID organization, with latent sector
// errors, scrubbing, and Weibull rebuild durations enabled.
func DefaultRAIDLossSweepConfig() SweepConfig { return experiment.DefaultRAIDLossSweepConfig() }

// RunSweep executes a policy comparison sweep (Figures 7a/7b/7c).
func RunSweep(cfg SweepConfig) (*SweepResult, error) { return experiment.RunSweep(cfg) }

// FleetConfig describes a multi-array cluster simulation: N arrays on one
// shared-clock DES, mapped into a rack/enclosure failure-domain topology,
// with a routing tier (deadlines, capped-backoff retries, hedged requests,
// health gating, cross-array failover) in front and correlated faults (rack
// power shocks, vintage hazard multipliers) underneath.
type FleetConfig = cluster.Config

// FleetResult is the fleet-level outcome: router-measured latency, the
// resilience counters, and each member array's standalone result.
type FleetResult = cluster.Result

// FleetTopology maps arrays into racks (power domains) and enclosures.
type FleetTopology = cluster.Topology

// FleetCheckpointSpec configures periodic whole-fleet snapshots. It is the
// one checkpoint spec type, shared with CheckpointSpec.
type FleetCheckpointSpec = checkpoint.Spec

// RoutingPolicy selects which replica serves an attempt.
type RoutingPolicy = cluster.RoutingPolicy

// The routing policies the fleet router implements.
const (
	RoutingRoundRobin  = cluster.RoundRobin
	RoutingLeastLoaded = cluster.LeastLoaded
	RoutingAFRAware    = cluster.AFRAware
)

// RoutingPolicies lists the accepted routing policies.
func RoutingPolicies() []RoutingPolicy { return cluster.RoutingPolicies() }

// ShockConfig parameterizes per-rack power-shock injection.
type ShockConfig = faults.ShockConfig

// SimulateFleet runs a fleet to completion. Like Simulate, results are a
// pure function of the configuration.
func SimulateFleet(cfg FleetConfig) (*FleetResult, error) { return cluster.Run(cfg) }

// ResumeFleet reconstructs a fleet from a checkpoint payload produced under
// the same configuration and runs it to completion.
func ResumeFleet(cfg FleetConfig, state []byte) (*FleetResult, error) {
	return cluster.Resume(cfg, state)
}

// FleetSweepConfig parameterizes a fleet-size × routing × policy sweep.
type FleetSweepConfig = experiment.FleetSweepConfig

// FleetSweepResult is the fleet sweep's cell grid.
type FleetSweepResult = experiment.FleetSweepResult

// DefaultFleetSweepConfig returns an interactive-scale fleet comparison.
func DefaultFleetSweepConfig() FleetSweepConfig { return experiment.DefaultFleetSweepConfig() }

// RunFleetSweep executes a fleet comparison sweep.
func RunFleetSweep(cfg FleetSweepConfig) (*FleetSweepResult, error) {
	return experiment.RunFleetSweep(cfg)
}

// Package faults implements seeded, deterministic disk-failure injection
// for the array simulator: it turns the AFRs that PRESS merely *predicts*
// into failure events the simulation actually *observes*, closing the
// predict→observe loop the paper's argument rests on.
//
// Failure times are sampled from a Weibull lifetime distribution by hazard
// inversion: each disk draws a unit-exponential threshold E at birth and
// fails the instant its accumulated hazard H(t) crosses E. The hazard is
// integrated analytically window by window, which lets the caller rescale it
// continuously — each window's Weibull hazard is multiplied by the disk's
// current PRESS AFR relative to a reference AFR, so a disk that PRESS says
// is being run twice as hard really does fail twice as fast. With a constant
// scale of 1 the scheme reduces exactly to Weibull sampling, which is what
// the MTTDL calibration test asserts.
//
// Everything is driven by one seeded math/rand source consumed in a
// deterministic order (thresholds at construction, repair draws in event
// order), so a fixed seed reproduces the identical failure/repair schedule.
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/reliability"
)

// ScriptedEvent is a deterministic failure for tests and demonstrations:
// the given disk fails at the given virtual time, bypassing the stochastic
// sampler entirely.
type ScriptedEvent struct {
	// Disk is the index of the disk to fail.
	Disk int
	// At is the failure time in virtual seconds.
	At float64
}

// Config parameterizes failure injection for one simulation run.
type Config struct {
	// Enabled turns injection on; a zero Config injects nothing.
	Enabled bool
	// Seed drives every random draw. Runs with equal seeds (and equal
	// hazard inputs) produce identical failure/repair schedules.
	Seed int64
	// Failure is the lifetime distribution. The zero value means
	// reliability.DefaultWeibull() (β = 1.1, first-year AFR ≈ 2.5%).
	Failure reliability.Weibull
	// Repair is the repair/replacement-time distribution in hours. The
	// zero value means DefaultRepair() (β = 1.5, mean ≈ 8 h).
	Repair reliability.Weibull
	// PRESSScaling, when true, multiplies the Weibull hazard by each
	// disk's live PRESS AFR divided by ReferenceAFRPercent, so operating
	// conditions (heat, load, transition churn) translate into observed
	// failures. When false the hazard is the pure Weibull.
	PRESSScaling bool
	// ReferenceAFRPercent anchors the PRESS scaling: a disk whose live
	// PRESS AFR equals it fails at exactly the base Weibull rate. Zero
	// means the Failure distribution's own first-year AFR.
	ReferenceAFRPercent float64
	// Acceleration compresses the reliability timescale so that failures
	// (MTBF measured in decades) become observable within a trace
	// (measured in hours): the hazard is multiplied by it and repair
	// durations are divided by it. 1 (the default) is real time.
	Acceleration float64
	// CheckIntervalSeconds is the virtual-time step at which hazard is
	// re-integrated (and PRESS scaling re-read). Zero means 60 s.
	CheckIntervalSeconds float64
	// MaxFailures caps the number of injected failures; 0 is unlimited.
	MaxFailures int
	// FixedRepairHours, when positive, replaces the Repair distribution
	// with a constant — for tests that need exact repair timing.
	FixedRepairHours float64
	// Scripted, when non-empty, replaces stochastic sampling entirely:
	// the listed failures happen at the listed times and no others.
	Scripted []ScriptedEvent

	// The second-generation failure physics below are all off by default;
	// every field is omitted from JSON when zero so configurations that
	// predate them digest identically.

	// LSERatePerHour is the Poisson rate of latent sector errors per
	// disk-hour at the reference operating point. Field studies put the
	// dominant data-loss mode in redundant arrays at unscrubbed sector
	// errors discovered during rebuild, not overlapping whole-disk
	// failures; the exemplar parameterization is 1.08e-4/h. Zero disables
	// LSE modeling entirely.
	LSERatePerHour float64 `json:"LSERatePerHour,omitempty"`
	// Scrub is the Weibull distribution of scrub-pass intervals in hours.
	// Nil means DefaultScrub() (β = 3, η = 168 h — a weekly pass with low
	// dispersion) when LSE modeling is on. Scrub passes are real disk I/O
	// scheduled by the array, so a spun-down or congested disk scrubs
	// late and its latent errors live longer.
	Scrub *reliability.Weibull `json:"Scrub,omitempty"`
	// NoScrub disables scrubbing while keeping LSE accumulation — the
	// worst case for a redundancy group: every latent error survives
	// until a rebuild trips over it.
	NoScrub bool `json:"NoScrub,omitempty"`
	// ScrubIOMB is the data volume one scrub pass reads; the pass runs as
	// a background op competing with foreground traffic. Zero means 256.
	ScrubIOMB float64 `json:"ScrubIOMB,omitempty"`
	// RebuildTime, when non-nil, draws each post-repair rebuild's total
	// duration in hours from this Weibull instead of pacing the rebuild
	// at the array's fixed MB/s rate. The exemplar uses β = 1, η = 12 h.
	RebuildTime *reliability.Weibull `json:"RebuildTime,omitempty"`
	// HazardMultiplier is a constant scaling of the whole-disk and LSE
	// hazard — the vintage-batch knob for correlated fleet faults: arrays
	// built from a bad drive batch carry a multiplier above 1. It composes
	// multiplicatively with live PRESS scaling. Zero means 1 (and is
	// omitted from JSON, so configurations that predate it digest
	// identically).
	HazardMultiplier float64 `json:"HazardMultiplier,omitempty"`
}

// Default returns an enabled configuration with the package defaults:
// seed 1, PRESS scaling on, real-time hazard.
func Default() Config {
	return Config{Enabled: true, Seed: 1, PRESSScaling: true}
}

// DefaultRepair returns the default repair-time distribution: Weibull with
// β = 1.5 (repairs cluster around the mean rather than being memoryless)
// and mean ≈ 8 hours — a same-business-day hot-swap plus rebuild start.
func DefaultRepair() reliability.Weibull {
	return reliability.Weibull{Shape: 1.5, ScaleHours: 8.862}
}

// DefaultLSERatePerHour is the exemplar latent-sector-error rate: roughly
// one LSE per disk-year, consistent with field measurements of nearline
// drives.
const DefaultLSERatePerHour = 1.08e-4

// DefaultScrub returns the default scrub-interval distribution: Weibull with
// β = 3 (intervals cluster tightly around the target) and η = 168 h — a
// weekly scrub pass with operational jitter.
func DefaultScrub() reliability.Weibull {
	return reliability.Weibull{Shape: 3, ScaleHours: 168}
}

// DefaultScrubIOMB is the data volume one scrub pass reads when the
// configuration leaves ScrubIOMB zero.
const DefaultScrubIOMB = 256.0

// LSEActive reports whether latent-sector-error accumulation is modeled.
func (c Config) LSEActive() bool { return c.Enabled && c.LSERatePerHour > 0 }

// ScrubActive reports whether scrub passes are scheduled: LSE modeling on
// and scrubbing not explicitly disabled.
func (c Config) ScrubActive() bool { return c.LSEActive() && !c.NoScrub }

// ScrubDist returns the scrub-interval distribution, defaulted.
func (c Config) ScrubDist() reliability.Weibull {
	if c.Scrub != nil {
		return *c.Scrub
	}
	return DefaultScrub()
}

// ScrubPassMB returns the scrub-pass I/O volume, defaulted.
func (c Config) ScrubPassMB() float64 {
	if c.ScrubIOMB > 0 {
		return c.ScrubIOMB
	}
	return DefaultScrubIOMB
}

// rateBoost converts a per-hour event rate on the reliability timescale to
// the accelerated timescale: acceleration multiplies rates. All stochastic
// processes in this package (failure hazard, LSE arrivals) go through this
// one helper so they cannot drift apart.
func (c Config) rateBoost(perHour float64) float64 {
	return perHour * c.Acceleration
}

// hoursToVirtualSeconds converts a duration in reliability-timescale hours
// to virtual seconds: acceleration divides durations. The dual of rateBoost —
// rateBoost(r)·hoursToVirtualSeconds(d) == r·d·3600 for any acceleration —
// used by every duration draw (repair, scrub interval, rebuild time).
func (c Config) hoursToVirtualSeconds(hours float64) float64 {
	return hours * 3600 / c.Acceleration
}

// Normalized returns a copy with every zero field replaced by its default.
func (c Config) Normalized() Config {
	if c.Failure == (reliability.Weibull{}) {
		c.Failure = reliability.DefaultWeibull()
	}
	if c.Repair == (reliability.Weibull{}) {
		c.Repair = DefaultRepair()
	}
	if c.ReferenceAFRPercent == 0 {
		if afr, err := c.Failure.AFRPercent(0); err == nil && afr > 0 {
			c.ReferenceAFRPercent = afr
		} else {
			c.ReferenceAFRPercent = 1
		}
	}
	if c.Acceleration == 0 {
		c.Acceleration = 1
	}
	if c.CheckIntervalSeconds == 0 {
		c.CheckIntervalSeconds = 60
	}
	if c.HazardMultiplier == 0 {
		c.HazardMultiplier = 1
	}
	return c
}

// Validate reports the first unusable parameter of a normalized or
// hand-built configuration.
func (c Config) Validate() error {
	c = c.Normalized()
	if err := c.Failure.Validate(); err != nil {
		return fmt.Errorf("faults: failure distribution: %w", err)
	}
	if err := c.Repair.Validate(); err != nil {
		return fmt.Errorf("faults: repair distribution: %w", err)
	}
	switch {
	case c.Acceleration < 0 || math.IsNaN(c.Acceleration):
		return fmt.Errorf("faults: acceleration %v must be positive", c.Acceleration)
	case c.CheckIntervalSeconds <= 0 || math.IsNaN(c.CheckIntervalSeconds):
		return fmt.Errorf("faults: check interval %v must be positive", c.CheckIntervalSeconds)
	case c.ReferenceAFRPercent <= 0 || math.IsNaN(c.ReferenceAFRPercent):
		return fmt.Errorf("faults: reference AFR %v must be positive", c.ReferenceAFRPercent)
	case c.MaxFailures < 0:
		return fmt.Errorf("faults: negative failure cap %d", c.MaxFailures)
	case c.FixedRepairHours < 0 || math.IsNaN(c.FixedRepairHours):
		return fmt.Errorf("faults: negative fixed repair time %v", c.FixedRepairHours)
	case c.LSERatePerHour < 0 || math.IsNaN(c.LSERatePerHour):
		return fmt.Errorf("faults: negative LSE rate %v per hour", c.LSERatePerHour)
	case c.HazardMultiplier < 0 || math.IsNaN(c.HazardMultiplier):
		return fmt.Errorf("faults: negative hazard multiplier %v", c.HazardMultiplier)
	case c.ScrubIOMB < 0 || math.IsNaN(c.ScrubIOMB):
		return fmt.Errorf("faults: negative scrub I/O volume %v MB", c.ScrubIOMB)
	}
	if c.Scrub != nil {
		if err := c.Scrub.Validate(); err != nil {
			return fmt.Errorf("faults: scrub distribution: %w", err)
		}
	}
	if c.RebuildTime != nil {
		if err := c.RebuildTime.Validate(); err != nil {
			return fmt.Errorf("faults: rebuild-time distribution: %w", err)
		}
	}
	for i, s := range c.Scripted {
		if s.At < 0 || math.IsNaN(s.At) {
			return fmt.Errorf("faults: scripted event %d at invalid time %v", i, s.At)
		}
		if s.Disk < 0 {
			return fmt.Errorf("faults: scripted event %d on negative disk %d", i, s.Disk)
		}
	}
	return nil
}

// Failure is one injected failure event.
type Failure struct {
	// Disk is the failed disk's index.
	Disk int
	// Time is the failure time in virtual seconds. For sampled failures
	// it is the exact hazard-crossing instant (interpolated inside the
	// integration window, so it may precede the Advance call's `to`).
	Time float64
}

type diskHazard struct {
	alive     bool
	threshold float64 // Exp(1) draw; failure when cum crosses it
	cum       float64 // accumulated hazard
	birth     float64 // virtual seconds at which this drive's age is zero

	// Latent-sector-error state, populated only when LSE modeling is on.
	// LSE arrivals use the same hazard-inversion scheme as failures: a
	// unit-exponential threshold, crossed by accumulated (scaled) Poisson
	// intensity; the process is homogeneous in age, so the crossing is a
	// linear solve rather than a Weibull inversion.
	lseThreshold float64
	lseCum       float64
	lsePending   int // latent errors accumulated and not yet scrubbed
}

// Injector samples failures for a fixed-size array. It is not safe for
// concurrent use; the simulator drives it from the single-threaded event
// loop.
type Injector struct {
	cfg      Config
	rng      *rand.Rand
	now      float64
	disks    []diskHazard
	failures int
	lseNow   float64         // virtual time LSE intensity is integrated up to
	lses     int             // total LSE arrivals so far
	scripted []ScriptedEvent // pending, sorted by time

	// drawLog records every post-construction RNG draw ('e' for the
	// exponential threshold in MarkRepaired, 'l' for the exponential LSE
	// threshold redraw, 'f'/'s'/'b' for the uniform repair, scrub-interval
	// and rebuild-duration draws). math/rand sources cannot be serialized,
	// so a checkpoint restores the stream by replaying this log against a
	// freshly seeded source — the log length is bounded by the (small)
	// failure/LSE/scrub event count, not the simulation length.
	drawLog []byte
}

// NewInjector builds an injector for `disks` drives, all born at time 0.
func NewInjector(cfg Config, disks int) (*Injector, error) {
	cfg = cfg.Normalized()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if disks < 1 {
		return nil, errors.New("faults: need at least one disk")
	}
	for i, s := range cfg.Scripted {
		if s.Disk >= disks {
			return nil, fmt.Errorf("faults: scripted event %d on disk %d of %d", i, s.Disk, disks)
		}
	}
	in := &Injector{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		disks: make([]diskHazard, disks),
	}
	for i := range in.disks {
		in.disks[i] = diskHazard{alive: true, threshold: in.rng.ExpFloat64()}
	}
	// LSE thresholds are drawn after all failure thresholds, and only when
	// LSE modeling is on, so an LSE-off run consumes the identical RNG
	// stream it always has.
	if cfg.LSEActive() {
		for i := range in.disks {
			in.disks[i].lseThreshold = in.rng.ExpFloat64()
		}
	}
	in.scripted = append(in.scripted, cfg.Scripted...)
	sort.SliceStable(in.scripted, func(i, j int) bool { return in.scripted[i].At < in.scripted[j].At })
	return in, nil
}

// Now returns the virtual time the injector has integrated hazard up to.
func (in *Injector) Now() float64 { return in.now }

// FailureCount returns the number of failures produced so far.
func (in *Injector) FailureCount() int { return in.failures }

// Alive reports whether disk d is currently operational.
func (in *Injector) Alive(d int) bool { return in.disks[d].alive }

// cumHazardTerm returns (age/η)^β for an age in hours, the Weibull
// cumulative hazard up to that age.
func (in *Injector) cumHazardTerm(ageHours float64) float64 {
	if ageHours <= 0 {
		return 0
	}
	w := in.cfg.Failure
	return math.Pow(ageHours/w.ScaleHours, w.Shape)
}

// Advance integrates each live disk's hazard from the injector's current
// time to `to` (virtual seconds) and returns the failures that occurred in
// that window, time-ordered. scale supplies the per-disk hazard multiplier
// for the window (the live PRESS AFR over the reference AFR); nil means 1
// everywhere. Non-positive scales freeze a disk's hazard for the window.
func (in *Injector) Advance(to float64, scale func(disk int) float64) []Failure {
	if to <= in.now {
		return nil
	}
	var out []Failure
	if len(in.cfg.Scripted) > 0 {
		for len(in.scripted) > 0 && in.scripted[0].At <= to {
			ev := in.scripted[0]
			in.scripted = in.scripted[1:]
			if !in.disks[ev.Disk].alive || in.capped() {
				continue
			}
			in.disks[ev.Disk].alive = false
			in.failures++
			out = append(out, Failure{Disk: ev.Disk, Time: ev.At})
		}
		in.now = to
		return out
	}
	w := in.cfg.Failure
	for i := range in.disks {
		d := &in.disks[i]
		if !d.alive || in.capped() {
			continue
		}
		s := 1.0
		if scale != nil {
			s = scale(i)
		}
		if s <= 0 || math.IsNaN(s) {
			continue
		}
		eff := in.cfg.rateBoost(s * in.cfg.HazardMultiplier)
		a := in.cumHazardTerm((in.now - d.birth) / 3600)
		b := in.cumHazardTerm((to - d.birth) / 3600)
		dh := eff * (b - a)
		if d.cum+dh < d.threshold {
			d.cum += dh
			continue
		}
		// Crossing: solve eff·((x/η)^β − a) = threshold − cum for the
		// failure age x in hours, exact because scale is constant over
		// the window.
		x := w.ScaleHours * math.Pow((d.threshold-d.cum)/eff+a, 1/w.Shape)
		t := d.birth + x*3600
		if t < in.now {
			t = in.now
		}
		if t > to {
			t = to
		}
		d.alive = false
		in.failures++
		out = append(out, Failure{Disk: i, Time: t})
	}
	in.now = to
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

func (in *Injector) capped() bool {
	return in.cfg.MaxFailures > 0 && in.failures >= in.cfg.MaxFailures
}

// LSEvent is one latent-sector-error arrival.
type LSEvent struct {
	// Disk is the index of the disk that accumulated the error.
	Disk int
	// Time is the arrival time in virtual seconds.
	Time float64
}

// AdvanceLSE integrates each live disk's latent-sector-error intensity from
// the injector's LSE clock to `to` (virtual seconds) and returns the
// arrivals, time-ordered. scale has the same meaning as in Advance: the
// per-disk operating-condition multiplier for the window (nil means 1).
// Multiple arrivals per disk per window are produced — the threshold is
// redrawn after each crossing. Failed disks accumulate nothing: their
// sectors are already lost wholesale.
func (in *Injector) AdvanceLSE(to float64, scale func(disk int) float64) []LSEvent {
	if !in.cfg.LSEActive() || to <= in.lseNow {
		if to > in.lseNow {
			in.lseNow = to
		}
		return nil
	}
	var out []LSEvent
	for i := range in.disks {
		d := &in.disks[i]
		if !d.alive {
			continue
		}
		s := 1.0
		if scale != nil {
			s = scale(i)
		}
		if s <= 0 || math.IsNaN(s) {
			continue
		}
		// Poisson intensity per virtual second under acceleration.
		rate := in.cfg.rateBoost(in.cfg.LSERatePerHour*s*in.cfg.HazardMultiplier) / 3600
		t := in.lseNow
		for {
			cross := t + (d.lseThreshold-d.lseCum)/rate
			if cross > to {
				d.lseCum += rate * (to - t)
				break
			}
			d.lseCum = 0
			d.lseThreshold = in.rng.ExpFloat64()
			in.drawLog = append(in.drawLog, 'l')
			d.lsePending++
			in.lses++
			out = append(out, LSEvent{Disk: i, Time: cross})
			t = cross
		}
	}
	in.lseNow = to
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// PendingLSE returns the count of unscrubbed latent errors on disk d.
func (in *Injector) PendingLSE(d int) int { return in.disks[d].lsePending }

// PendingLSETotal returns the unscrubbed latent errors across the array.
func (in *Injector) PendingLSETotal() int {
	total := 0
	for i := range in.disks {
		total += in.disks[i].lsePending
	}
	return total
}

// LSECount returns the total number of LSE arrivals produced so far.
func (in *Injector) LSECount() int { return in.lses }

// MarkScrubbed records a completed scrub pass on disk d: every pending
// latent error is detected and rewritten from redundancy. Returns the number
// cleared.
func (in *Injector) MarkScrubbed(d int) int {
	n := in.disks[d].lsePending
	in.disks[d].lsePending = 0
	return n
}

// MarkRepaired returns disk d to service at virtual time `at` as a fresh
// replacement drive: age resets and a new failure threshold is drawn. A
// replacement drive also starts with a clean media surface, so any latent
// errors and accumulated LSE intensity are discarded and a fresh LSE
// threshold is drawn.
func (in *Injector) MarkRepaired(d int, at float64) {
	h := &in.disks[d]
	h.alive = true
	h.birth = at
	h.cum = 0
	h.threshold = in.rng.ExpFloat64()
	in.drawLog = append(in.drawLog, 'e')
	if in.cfg.LSEActive() {
		h.lseCum = 0
		h.lsePending = 0
		h.lseThreshold = in.rng.ExpFloat64()
		in.drawLog = append(in.drawLog, 'l')
	}
}

// sampleWeibullHours draws from w by inverse CDF — T = η·(−ln(1−u))^(1/β) —
// logging the uniform draw under the given kind byte for checkpoint replay.
func (in *Injector) sampleWeibullHours(w reliability.Weibull, kind byte) float64 {
	u := in.rng.Float64()
	in.drawLog = append(in.drawLog, kind)
	return w.ScaleHours * math.Pow(-math.Log(1-u), 1/w.Shape)
}

// SampleRepairSeconds draws a repair/replacement duration in virtual
// seconds, already divided by the acceleration factor (a compressed
// timescale compresses repairs too).
func (in *Injector) SampleRepairSeconds() float64 {
	hours := in.cfg.FixedRepairHours
	if hours <= 0 {
		hours = in.sampleWeibullHours(in.cfg.Repair, 'f')
	}
	return in.cfg.hoursToVirtualSeconds(hours)
}

// MaxRepairSeconds is the longest repair SampleRepairSeconds can draw: the
// fixed time, or the repair distribution's quantile at the largest uniform
// draw below 1.
func (c Config) MaxRepairSeconds() float64 {
	hours := c.FixedRepairHours
	if hours <= 0 {
		const maxUniform = 1 - 0x1p-53 // the largest rand.Float64 draw
		hours = c.Repair.ScaleHours * math.Pow(-math.Log(1-maxUniform), 1/c.Repair.Shape)
	}
	return c.hoursToVirtualSeconds(hours)
}

// SampleScrubIntervalSeconds draws the time until a disk's next scrub pass,
// in virtual seconds on the accelerated timescale.
func (in *Injector) SampleScrubIntervalSeconds() float64 {
	return in.cfg.hoursToVirtualSeconds(in.sampleWeibullHours(in.cfg.ScrubDist(), 's'))
}

// SampleRebuildSeconds draws a post-repair rebuild duration in virtual
// seconds on the accelerated timescale. Valid only when Config.RebuildTime
// is set.
func (in *Injector) SampleRebuildSeconds() float64 {
	return in.cfg.hoursToVirtualSeconds(in.sampleWeibullHours(*in.cfg.RebuildTime, 'b'))
}

// DiskCheckpoint is the serializable hazard state of one disk.
//
//simlint:checkpoint-for diskHazard
type DiskCheckpoint struct {
	Alive     bool    `json:"alive"`
	Threshold float64 `json:"threshold"`
	Cum       float64 `json:"cum"`
	Birth     float64 `json:"birth"`
	// LSE fields are zero (and omitted) when LSE modeling is off, keeping
	// pre-LSE checkpoints byte-identical.
	LSEThreshold float64 `json:"lse_threshold,omitempty"`
	LSECum       float64 `json:"lse_cum,omitempty"`
	LSEPending   int     `json:"lse_pending,omitempty"`
}

// Checkpoint is the complete serializable state of an Injector. The RNG
// stream is captured as the replay log of post-construction draws: restoring
// re-seeds the source, replays the constructor's threshold draws (implied by
// the disk count) and then the log, leaving the stream positioned exactly
// where the original was. Without this, repair times and replacement-drive
// thresholds after a resume would diverge from the uninterrupted run.
//
//simlint:checkpoint-for Injector ignore=cfg,rng
type Checkpoint struct {
	Now      float64          `json:"now"`
	Failures int              `json:"failures"`
	LSENow   float64          `json:"lse_now,omitempty"`
	LSEs     int              `json:"lses,omitempty"`
	Disks    []DiskCheckpoint `json:"disks"`
	Scripted []ScriptedEvent  `json:"scripted,omitempty"`
	DrawLog  string           `json:"draw_log,omitempty"`
}

// Checkpoint captures the injector's state without mutating it.
func (in *Injector) Checkpoint() Checkpoint {
	c := Checkpoint{
		Now:      in.now,
		Failures: in.failures,
		LSENow:   in.lseNow,
		LSEs:     in.lses,
		Disks:    make([]DiskCheckpoint, len(in.disks)),
		Scripted: append([]ScriptedEvent(nil), in.scripted...),
		DrawLog:  string(in.drawLog),
	}
	for i, d := range in.disks {
		c.Disks[i] = DiskCheckpoint{
			Alive: d.alive, Threshold: d.threshold, Cum: d.cum, Birth: d.birth,
			LSEThreshold: d.lseThreshold, LSECum: d.lseCum, LSEPending: d.lsePending,
		}
	}
	return c
}

// WriteJSON appends c as encoding/json encodes it.
func (c *Checkpoint) WriteJSON(w *checkpoint.Writer) {
	w.Raw(`{"now":`)
	w.Float(c.Now)
	w.Raw(`,"failures":`)
	w.Int(c.Failures)
	w.OmitFloat(`,"lse_now":`, c.LSENow)
	w.OmitInt(`,"lses":`, c.LSEs)
	w.Raw(`,"disks":`)
	if c.Disks == nil {
		w.Raw(`null`)
	} else {
		w.Raw(`[`)
		for i := range c.Disks {
			if i > 0 {
				w.Raw(`,`)
			}
			d := &c.Disks[i]
			w.Raw(`{"alive":`)
			w.Bool(d.Alive)
			w.Raw(`,"threshold":`)
			w.Float(d.Threshold)
			w.Raw(`,"cum":`)
			w.Float(d.Cum)
			w.Raw(`,"birth":`)
			w.Float(d.Birth)
			w.OmitFloat(`,"lse_threshold":`, d.LSEThreshold)
			w.OmitFloat(`,"lse_cum":`, d.LSECum)
			w.OmitInt(`,"lse_pending":`, d.LSEPending)
			w.Raw(`}`)
		}
		w.Raw(`]`)
	}
	if len(c.Scripted) > 0 {
		w.Raw(`,"scripted":[`)
		for i, ev := range c.Scripted {
			if i > 0 {
				w.Raw(`,`)
			}
			w.Raw(`{"Disk":`)
			w.Int(ev.Disk)
			w.Raw(`,"At":`)
			w.Float(ev.At)
			w.Raw(`}`)
		}
		w.Raw(`]`)
	}
	w.OmitString(`,"draw_log":`, c.DrawLog)
	w.Raw(`}`)
}

// Validate reports whether c can be restored into an injector over disks
// disks: every draw-log entry names a known draw, every pending scripted
// failure names one of the disks, and the latent-sector-error clock and
// hazards are ones AdvanceLSE can continue from. Its crossing loop runs
// once per error from lse_now on, so a negative clock or a hazard already
// past its threshold would make it run without end.
func (c *Checkpoint) Validate(disks int) error {
	if c.LSENow < 0 {
		return fmt.Errorf("faults: negative lse_now %v", c.LSENow)
	}
	for i, d := range c.Disks {
		if d.LSECum > d.LSEThreshold {
			return fmt.Errorf("faults: disk %d: lse_cum %v past its threshold %v", i, d.LSECum, d.LSEThreshold)
		}
	}
	for _, kind := range []byte(c.DrawLog) {
		switch kind {
		case 'e', 'l', 'f', 's', 'b':
		default:
			return fmt.Errorf("faults: unknown draw log entry %q", kind)
		}
	}
	for i, ev := range c.Scripted {
		if ev.Disk < 0 || ev.Disk >= disks {
			return fmt.Errorf("faults: pending scripted event %d on disk %d of %d", i, ev.Disk, disks)
		}
	}
	return nil
}

// RestoreInjector rebuilds an injector from a checkpoint under the same
// configuration it was built with. The RNG is re-seeded and advanced by
// replaying the draw log; all hazard state is then overwritten from the
// checkpoint. c must pass Validate; an error reports a configuration
// NewInjector rejects.
func RestoreInjector(cfg Config, c Checkpoint) (*Injector, error) {
	in, err := NewInjector(cfg, len(c.Disks))
	if err != nil {
		return nil, err
	}
	for _, kind := range []byte(c.DrawLog) {
		if kind == 'e' || kind == 'l' {
			in.rng.ExpFloat64()
		} else {
			in.rng.Float64()
		}
	}
	in.drawLog = []byte(c.DrawLog)
	in.now = c.Now
	in.failures = c.Failures
	in.lseNow = c.LSENow
	in.lses = c.LSEs
	for i, d := range c.Disks {
		in.disks[i] = diskHazard{
			alive: d.Alive, threshold: d.Threshold, cum: d.Cum, birth: d.Birth,
			lseThreshold: d.LSEThreshold, lseCum: d.LSECum, lsePending: d.LSEPending,
		}
	}
	in.scripted = append([]ScriptedEvent(nil), c.Scripted...)
	return in, nil
}

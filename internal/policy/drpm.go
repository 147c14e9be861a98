package policy

import (
	"repro/internal/array"
	"repro/internal/diskmodel"
)

// DRPMConfig parameterizes the aggressive dynamic-speed ablation policy.
type DRPMConfig struct {
	// IdleThreshold is the idle time in seconds before dropping to low
	// speed. DRPM-style control is deliberately twitchy; default is the
	// drive's break-even idle time (the energy-rational minimum) with no
	// cap on transition frequency.
	IdleThreshold float64
}

// DRPM is an uncapped per-disk dynamic speed-control policy in the spirit of
// Gurumurthi et al.'s DRPM, restricted to two speeds: every disk drops to
// low speed the moment the idleness threshold passes and spins back up on
// the next request. It exists as the ablation for the paper's central
// question — unconstrained speed switching maximizes transition counts, and
// PRESS prices that in AFR.
type DRPM struct {
	cfg DRPMConfig
}

// NewDRPM builds the ablation policy.
func NewDRPM(cfg DRPMConfig) *DRPM { return &DRPM{cfg: cfg} }

// Name implements array.Policy.
func (*DRPM) Name() string { return "drpm" }

// Init load-balances files and arms a short idle timer on every disk.
func (p *DRPM) Init(ctx *array.Context) error {
	if err := placeLeastLoaded(ctx, byLoadDesc(ctx.Files()), diskRange(0, ctx.NumDisks())); err != nil {
		return err
	}
	h := p.cfg.IdleThreshold
	if h <= 0 {
		dp := ctx.DiskParams()
		h = dp.BreakEvenIdle()
	}
	for d := 0; d < ctx.NumDisks(); d++ {
		ctx.SetIdleTimeout(d, h)
	}
	return nil
}

// TargetDisk spins the placement disk up on demand.
func (p *DRPM) TargetDisk(ctx *array.Context, fileID int) int {
	d := ctx.Placement(fileID)
	if ctx.DiskSpeed(d) == diskmodel.Low {
		ctx.SetDecisionCause("demand")
		ctx.RequestTransition(d, diskmodel.High)
	}
	return d
}

// OnRequestComplete implements array.Policy.
func (*DRPM) OnRequestComplete(*array.Context, int, int) {}

// OnEpoch implements array.Policy.
func (*DRPM) OnEpoch(*array.Context) {}

// OnIdleTimeout drops any idle disk to low speed, unconditionally.
func (p *DRPM) OnIdleTimeout(ctx *array.Context, d int) {
	if ctx.DiskSpeed(d) == diskmodel.High {
		ctx.RequestTransition(d, diskmodel.Low)
	}
}

var _ array.Policy = (*DRPM)(nil)

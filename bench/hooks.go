package main

import (
	"repro/internal/array"
)

// hook names one array.Policy method the traced run instruments.
type hook int

const (
	hookTargetDisk hook = iota
	hookStripeTargets
	hookRequestComplete
	hookInit
	hookEpoch
	hookIdleTimeout
	hookDiskFailure
	hookDiskRepair
	hookSaveState
	hookLoadState
	numHooks
)

var hookNames = [numHooks]string{
	"TargetDisk", "StripeTargets", "OnRequestComplete", "Init", "OnEpoch",
	"OnIdleTimeout", "OnDiskFailure", "OnDiskRepair", "SaveState", "LoadState",
}

// sampleEvery is how often a per-request hook (TargetDisk, StripeTargets,
// OnRequestComplete) is timed: these run once or twice per simulated request,
// and a pair of clock reads costs 40-70 ns on a small VM, as much as the hook
// itself. Every call is still counted.
const sampleEvery = 64

// hookStat accumulates one hook's calls and the time of the calls that were
// timed.
type hookStat struct {
	Calls int64 `json:"calls"`
	Timed int64 `json:"timed"`
	NS    int64 `json:"ns"`
}

// meanNS is the mean duration of a timed call, or 0 when none was timed.
func (s hookStat) meanNS() float64 {
	if s.Timed == 0 {
		return 0
	}
	return float64(s.NS) / float64(s.Timed)
}

// estimatedNS scales the timed calls up to every call.
func (s hookStat) estimatedNS() float64 { return s.meanNS() * float64(s.Calls) }

// spanPolicy wraps a policy and times its hooks into a tracer. It changes no
// decision: every call goes straight through to the wrapped policy.
type spanPolicy struct {
	p  array.Policy
	tr *tracer
}

// wrapPolicy returns p instrumented by tr. The result implements exactly the
// optional interfaces (FailureAwarePolicy, CheckpointablePolicy,
// StripePolicy) that p implements, because the array changes behaviour on
// each of them.
func wrapPolicy(p array.Policy, tr *tracer) array.Policy {
	w := &spanPolicy{p: p, tr: tr}
	_, f := p.(array.FailureAwarePolicy)
	_, c := p.(array.CheckpointablePolicy)
	_, s := p.(array.StripePolicy)
	fh, ch, sh := failHooks{w}, ckptHooks{w}, stripeHooks{w}
	switch {
	case f && c && s:
		return struct {
			*spanPolicy
			failHooks
			ckptHooks
			stripeHooks
		}{w, fh, ch, sh}
	case f && c:
		return struct {
			*spanPolicy
			failHooks
			ckptHooks
		}{w, fh, ch}
	case f && s:
		return struct {
			*spanPolicy
			failHooks
			stripeHooks
		}{w, fh, sh}
	case c && s:
		return struct {
			*spanPolicy
			ckptHooks
			stripeHooks
		}{w, ch, sh}
	case f:
		return struct {
			*spanPolicy
			failHooks
		}{w, fh}
	case c:
		return struct {
			*spanPolicy
			ckptHooks
		}{w, ch}
	case s:
		return struct {
			*spanPolicy
			stripeHooks
		}{w, sh}
	}
	return w
}

// sampled counts one call of a per-request hook and reports whether to time
// it.
func (w *spanPolicy) sampled(h hook) bool {
	s := &w.tr.hooks[h]
	s.Calls++
	return s.Calls%sampleEvery == 1
}

func (w *spanPolicy) timed(h hook, start int64) {
	s := &w.tr.hooks[h]
	s.Timed++
	s.NS += w.tr.callNS(start, w.tr.now())
}

// enter and exit bracket a hook that is timed on every call with a span.
func (w *spanPolicy) enter(h hook) int {
	w.tr.hooks[h].Calls++
	return w.tr.begin("policy." + hookNames[h])
}

func (w *spanPolicy) exit(h hook, id int) {
	w.tr.end(id)
	s := &w.tr.hooks[h]
	s.Timed++
	s.NS += w.tr.callNS(w.tr.spans[id].Start, w.tr.spans[id].End)
}

func (w *spanPolicy) Name() string { return w.p.Name() }

func (w *spanPolicy) Init(ctx *array.Context) error {
	id := w.enter(hookInit)
	defer w.exit(hookInit, id)
	return w.p.Init(ctx)
}

func (w *spanPolicy) TargetDisk(ctx *array.Context, fileID int) int {
	if !w.sampled(hookTargetDisk) {
		return w.p.TargetDisk(ctx, fileID)
	}
	start := w.tr.now()
	d := w.p.TargetDisk(ctx, fileID)
	w.timed(hookTargetDisk, start)
	return d
}

func (w *spanPolicy) OnRequestComplete(ctx *array.Context, fileID, disk int) {
	if !w.sampled(hookRequestComplete) {
		w.p.OnRequestComplete(ctx, fileID, disk)
		return
	}
	start := w.tr.now()
	w.p.OnRequestComplete(ctx, fileID, disk)
	w.timed(hookRequestComplete, start)
}

func (w *spanPolicy) OnEpoch(ctx *array.Context) {
	id := w.enter(hookEpoch)
	defer w.exit(hookEpoch, id)
	w.p.OnEpoch(ctx)
}

func (w *spanPolicy) OnIdleTimeout(ctx *array.Context, disk int) {
	id := w.enter(hookIdleTimeout)
	defer w.exit(hookIdleTimeout, id)
	w.p.OnIdleTimeout(ctx, disk)
}

type failHooks struct{ w *spanPolicy }

func (h failHooks) OnDiskFailure(ctx *array.Context, disk int) {
	id := h.w.enter(hookDiskFailure)
	defer h.w.exit(hookDiskFailure, id)
	h.w.p.(array.FailureAwarePolicy).OnDiskFailure(ctx, disk)
}

func (h failHooks) OnDiskRepair(ctx *array.Context, disk int) {
	id := h.w.enter(hookDiskRepair)
	defer h.w.exit(hookDiskRepair, id)
	h.w.p.(array.FailureAwarePolicy).OnDiskRepair(ctx, disk)
}

type ckptHooks struct{ w *spanPolicy }

func (h ckptHooks) SaveState() ([]byte, error) {
	id := h.w.enter(hookSaveState)
	defer h.w.exit(hookSaveState, id)
	return h.w.p.(array.CheckpointablePolicy).SaveState()
}

func (h ckptHooks) LoadState(data []byte) error {
	id := h.w.enter(hookLoadState)
	defer h.w.exit(hookLoadState, id)
	return h.w.p.(array.CheckpointablePolicy).LoadState(data)
}

type stripeHooks struct{ w *spanPolicy }

func (h stripeHooks) StripeTargets(ctx *array.Context, fileID int) []int {
	sp := h.w.p.(array.StripePolicy)
	if !h.w.sampled(hookStripeTargets) {
		return sp.StripeTargets(ctx, fileID)
	}
	start := h.w.tr.now()
	d := sp.StripeTargets(ctx, fileID)
	h.w.timed(hookStripeTargets, start)
	return d
}

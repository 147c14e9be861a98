// Package array simulates a parallel array of two-speed disks serving a
// whole-file request trace under a pluggable energy-saving policy, and
// reports the performance / energy / reliability triple the paper evaluates
// (mean response time, energy consumed, PRESS array AFR).
//
// The simulator is execution-driven in the paper's sense: every request
// occupies a specific disk for its computed service time, requests queue
// FCFS per disk, speed transitions block service, and file migrations are
// real background transfers that compete with foreground work.
package array

// Policy is an energy-saving strategy for a two-speed disk array. The array
// calls the hooks below; the policy steers behaviour exclusively through the
// Context it receives (placement, speed-transition requests, background
// transfers, idle timeouts).
//
// Implementations live in internal/policy: READ (the paper's contribution),
// MAID, PDC, and the always-on baseline.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string

	// Init is called once at virtual time zero. The policy must place
	// every file (Context.SetPlacement) and may set initial disk speeds
	// and idle timeouts.
	Init(ctx *Context) error

	// TargetDisk picks the disk that will serve a request for fileID,
	// normally the placement disk. A policy may redirect (MAID's cache
	// hit), trigger a spin-up of the target before service
	// (Context.RequestTransition), or start background copies.
	TargetDisk(ctx *Context, fileID int) int

	// OnRequestComplete is called when a user request finishes service.
	OnRequestComplete(ctx *Context, fileID, disk int)

	// OnEpoch is called every Config.EpochSeconds of virtual time (if
	// non-zero). Policies re-evaluate popularity and migrate files here.
	// The array resets per-epoch access counts after this hook returns.
	OnEpoch(ctx *Context)

	// OnIdleTimeout is called when a disk has been continuously idle for
	// its configured idle timeout. Policies typically request a
	// transition to low speed here.
	OnIdleTimeout(ctx *Context, disk int)
}

// FailureAwarePolicy optionally extends Policy with disk fail/repair hooks.
// When fault injection is enabled (Config.Faults) the array calls
// OnDiskFailure the instant a disk dies — before the dead disk's queue is
// drained, so placements moved with Context.ReassignFile catch the queued
// requests — and OnDiskRepair when its replacement comes up (before the
// rebuild traffic starts). Policies that do not implement the interface
// still run under failures; they simply never react, which is itself one of
// the conditions the paper's reliability argument wants measured.
type FailureAwarePolicy interface {
	Policy

	// OnDiskFailure is called exactly once per failure of `disk`.
	// Context.ReassignFile is valid only inside this hook.
	OnDiskFailure(ctx *Context, disk int)

	// OnDiskRepair is called when a replacement for `disk` enters service.
	OnDiskRepair(ctx *Context, disk int)
}

// StripePolicy optionally extends Policy with striped placement (the
// paper's §6 future work: large files — video clips, audio segments —
// benefit from striping while small web objects do not). When a policy
// implements it and returns two or more target disks for a file, each
// request for that file is split into equal chunks served in parallel, one
// per disk; the request completes when its last chunk does. Each chunk pays
// its own positioning overhead, which is exactly why striping only pays off
// for large files.
//
// Returning nil or a single disk falls back to Policy.TargetDisk.
type StripePolicy interface {
	Policy

	// StripeTargets returns the disks serving fileID's chunks.
	StripeTargets(ctx *Context, fileID int) []int
}

// WritePolicy optionally extends Policy with the completion hook for the
// background writes it issues (MAID's cache fill, READReplica's promotion)
// through Context.EnqueueWrite. The array carries an in-flight write as
// plain data — the file and the target disk — so a checkpoint taken while
// one is queued or in service resumes it like any other op; the policy's
// own state (its in-flight copy table) says what the completion means. A
// resume with a write in flight requires the configured policy to
// implement the interface.
type WritePolicy interface {
	Policy

	// OnWriteDone is called when the write of fileID onto disk, issued by
	// Context.EnqueueWrite, completes. A write dropped with its failed
	// disk never completes; OnDiskFailure sees the failure instead.
	OnWriteDone(ctx *Context, fileID, disk int)
}

// CheckpointablePolicy optionally extends Policy with state serialization
// for checkpoint/restore. SaveState must capture everything the policy
// accumulated since Init — counters, caches, adaptive thresholds — because a
// resume does NOT re-run Init (SetPlacement is only legal at t=0); instead
// the policy is constructed fresh from the same configuration and LoadState
// overwrites its mutable state. A policy without the interface cannot be
// checkpointed; Run rejects Config.Checkpoint for it up front rather than
// producing snapshots that silently resume wrong.
type CheckpointablePolicy interface {
	Policy

	// SaveState serializes the policy's mutable state.
	SaveState() ([]byte, error)

	// LoadState restores state captured by SaveState on a freshly
	// constructed policy with the same configuration.
	LoadState(data []byte) error
}

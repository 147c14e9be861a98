package experiment

// The sweep engine: one bounded-pool cell runner, one execution-knob block,
// and one cell outcome, shared by the array sweep (RunSweep) and the fleet
// sweep (RunFleetSweep). Each grid supplies only its cells and a per-attempt
// function that runs one cell's simulation.

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/runstore"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Exec holds the execution knobs every sweep shares. They decide how a
// sweep runs — on how many workers, with how many tries per cell, watched
// by whom — never what it computes, so no manifest digest includes them.
type Exec struct {
	// Parallelism bounds concurrent cells; zero means NumCPU.
	Parallelism int
	// CellAttempts bounds how many times a failed cell is retried before it
	// is recorded as failed (total attempts, not extra retries). Zero or
	// one means no retry. Retries are mostly useful against transient
	// environmental failures; a deterministic simulation bug fails the
	// same way every attempt and is recorded after CellAttempts tries.
	CellAttempts int
	// RetryBaseDelay is the first retry's backoff; each further retry
	// doubles it. Zero means 500ms.
	RetryBaseDelay time.Duration
	// Progress, when non-nil, receives structured phase and per-cell
	// completion lines while the sweep runs. It is rate-limited and
	// goroutine-safe, so a large sweep logs a steady trickle rather than a
	// burst per cell.
	Progress *telemetry.Progress
	// Track, when non-nil, receives the sweep's live per-cell state for the
	// ops plane (pending/running/done/failed/retried, live counters,
	// watchdog positions, ETA). Build it with
	// telemetry.NewSweepTracker(cfg.CellKeys(), ...). Results are
	// bit-identical with or without it.
	Track *telemetry.SweepTracker
	// TraceDecisions attaches a decision log to every cell, filling the
	// cell's Decisions (and an array cell's Result.Attribution). Tracing is
	// observational — it never changes a cell's results.
	TraceDecisions bool
}

func (x *Exec) setDefaults() {
	if x.Parallelism <= 0 {
		x.Parallelism = runtime.NumCPU()
	}
	if x.CellAttempts <= 0 {
		x.CellAttempts = 1
	}
	if x.RetryBaseDelay <= 0 {
		x.RetryBaseDelay = 500 * time.Millisecond
	}
}

// CellStatus records how a sweep cell finished.
type CellStatus string

// The cell outcomes a sweep manifest records.
const (
	// CellOK: the cell succeeded on its first attempt.
	CellOK CellStatus = "ok"
	// CellRetried: the cell succeeded after at least one failed attempt.
	CellRetried CellStatus = "retried"
	// CellFailed: every attempt failed; Result is nil and Err explains.
	CellFailed CellStatus = "failed"
)

// Outcome is how a sweep cell finished. Cell and FleetCell embed it; their
// Result is nil exactly when Status is CellFailed.
type Outcome struct {
	// Status is CellOK, CellRetried, or CellFailed.
	Status CellStatus
	// Attempts is how many times the cell ran (1 when it succeeded
	// immediately).
	Attempts int
	// Err holds the final attempt's error when Status is CellFailed.
	Err string
	// Stall is the structured watchdog record when the final attempt died
	// to the event-loop stall detector; nil for any other failure (and for
	// successes). It carries the stalling event's label, virtual time, and
	// queue depth — the /healthz payload and the sweep manifest's failure
	// markers both read it.
	Stall *des.StallError
	// Perf is the cell's self-performance sample (wall-clock, events/s,
	// allocation and GC deltas of the successful attempt). It feeds the
	// manifest's perf section, never the diffed metric set.
	Perf *runstore.PerfSample
	// Decisions is the cell's decision log when the sweep ran with
	// TraceDecisions; nil otherwise.
	Decisions *telemetry.DecisionLog
}

func (o *Outcome) outcome() *Outcome { return o }

// KeyedOutcome is one cell's outcome under its cell key.
type KeyedOutcome struct {
	Key string
	Outcome
}

// Finished is a completed sweep of either kind — *SweepResult or
// *FleetSweepResult — as a run-store recorder sees it.
type Finished interface {
	// Manifest condenses the sweep into its run-store manifest.
	Manifest(name string) (*runstore.Manifest, error)
	// Outcomes lists every cell's outcome in grid order.
	Outcomes() []KeyedOutcome
}

// sweepCell is what the runner and the manifest loop need of a cell
// kind; outcome is promoted from the embedded Outcome.
type sweepCell interface {
	// Key is the cell's ops-plane and manifest identity.
	Key() string
	// desc names the cell's coordinates in progress and error lines.
	desc() string
	// cost reports the simulated seconds and fired events of the cell's
	// result; only called once the cell has one.
	cost() (simSeconds float64, events uint64)
	outcome() *Outcome
}

// cellPtr constrains a pointer to a cell kind C.
type cellPtr[C any] interface {
	*C
	sweepCell
}

func keyedOutcomes[C any, P cellPtr[C]](cells []C) []KeyedOutcome {
	out := make([]KeyedOutcome, len(cells))
	for i := range cells {
		c := P(&cells[i])
		out[i] = KeyedOutcome{Key: c.Key(), Outcome: *c.outcome()}
	}
	return out
}

// testCellHook, when non-nil, runs at the start of every cell attempt with
// the cell's key (inside the panic-recovery scope). Tests use it to make
// chosen cells panic and verify the sweep survives.
var testCellHook func(key string)

// grid is one sweep's cells and the function that runs one attempt of one.
type grid[C any, P cellPtr[C]] struct {
	x *Exec
	// kind prefixes progress lines and the failure summary: "sweep" or
	// "fleet".
	kind string
	// seed keys the retry backoff jitter.
	seed  int64
	cells []C
	// attempt runs cell c once under the given observers and stores its
	// result in c — nil with an error when the attempt fails.
	attempt func(c P, rec *telemetry.Recorder, watch *des.Watch) error
	done    atomic.Int64
}

// runGrid runs every cell of a sweep grid in place and returns an error
// summarizing the cells that failed after all their attempts, if any.
//
// Cells are isolated: a cell whose attempt returns an error or panics is
// retried up to CellAttempts times with exponential backoff, and if it
// still fails it is recorded as CellFailed while every other cell runs to
// completion.
//
// Exactly min(Parallelism, len(cells)) workers drain a job channel. Each
// worker owns one cell end to end — attempt constructs the cell's engine,
// RNG, and telemetry fresh per try — so concurrent cells share only the
// read-only config and trace plus the mutex/seqlock-mediated progress and
// tracker handles. Each result lands in the cell's own grid slot, so the
// grid, and every manifest rendered from it, is identical for every worker
// count; only the interleaving of progress lines varies.
func runGrid[C any, P cellPtr[C]](x *Exec, kind string, seed int64, cells []C, attempt func(c P, rec *telemetry.Recorder, watch *des.Watch) error) error {
	g := &grid[C, P]{x: x, kind: kind, seed: seed, cells: cells, attempt: attempt}
	x.Progress.Phase(fmt.Sprintf("%s: run %d cells", kind, len(cells)))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(x.Parallelism, len(cells)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				g.runCell(i)
			}
		}()
	}
	for i := range cells {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	var failed []string
	for i := range cells {
		if o := P(&cells[i]).outcome(); o.Status == CellFailed {
			failed = append(failed, o.Err)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("experiment: %d of %d %s cells failed; first: %s",
			len(failed), len(cells), kind, failed[0])
	}
	return nil
}

// runCell runs cell i to completion on the calling goroutine, retrying per
// the sweep's attempt policy, and fills its outcome.
func (g *grid[C, P]) runCell(i int) {
	x := g.x
	c := P(&g.cells[i])
	key, out := c.Key(), c.outcome()
	shared := x.Parallelism > 1
	var lastErr error
	var lastWall float64
	for attempt := 1; attempt <= x.CellAttempts; attempt++ {
		out.Attempts = attempt
		if attempt > 1 {
			time.Sleep(retryDelay(x.RetryBaseDelay, g.seed, i, attempt))
			x.Progress.Stepf("%s: retrying %s (attempt %d/%d)", g.kind, c.desc(), attempt, x.CellAttempts)
		}
		// Fresh per-attempt ops handles (nil when no tracker): the cell
		// publishes its live position through them, and the /progress and
		// /healthz endpoints read them concurrently.
		live, watch := x.Track.StartCell(key)
		var dlog *telemetry.DecisionLog
		if x.TraceDecisions {
			dlog = telemetry.NewDecisionLog()
		}
		pc := runstore.StartPerf()
		if err := g.try(c, cellRecorder(dlog, live), watch); err != nil {
			lastErr = err
			lastWall = pc.Sample(0, 0, shared).WallSeconds
			out.Err = fmt.Sprintf("%s: %v", c.desc(), err)
			if attempt < x.CellAttempts {
				x.Track.CellRetrying(key, err)
			}
			continue
		}
		simSeconds, events := c.cost()
		perf := pc.Sample(simSeconds, events, shared)
		out.Status, out.Err, out.Perf, out.Decisions = CellOK, "", &perf, dlog
		if attempt > 1 {
			out.Status = CellRetried
		}
		x.Track.CellDone(key, perf.WallSeconds, events)
		x.Progress.Stepf("%s: cell %d/%d done (%s, %d events)",
			g.kind, g.done.Add(1), len(g.cells), c.desc(), events)
		return
	}
	out.Status = CellFailed
	var serr *des.StallError
	if errors.As(lastErr, &serr) {
		out.Stall = serr
	}
	x.Track.CellFailed(key, lastErr, lastWall)
	x.Progress.Stepf("%s: cell %d/%d FAILED (%s, %d attempts)",
		g.kind, g.done.Add(1), len(g.cells), c.desc(), out.Attempts)
}

// try runs one attempt of cell c. A panic anywhere in the cell — the
// policy, the simulator, the hook — is converted into an error with the
// stack attached, so one broken cell cannot take down the worker pool.
func (g *grid[C, P]) try(c P, rec *telemetry.Recorder, watch *des.Watch) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	if testCellHook != nil {
		testCellHook(c.Key())
	}
	return g.attempt(c, rec, watch)
}

// cellRecorder is the in-memory recorder a cell attempt runs under: the
// decision log when tracing, the tracker's live view when tracked, nil when
// neither. Both are observation-only, so results are identical either way,
// and the cell's metrics artifacts are unchanged.
func cellRecorder(dlog *telemetry.DecisionLog, live *telemetry.Live) *telemetry.Recorder {
	if dlog == nil && live == nil {
		return nil
	}
	return &telemetry.Recorder{Decisions: dlog, Live: live}
}

// retryDelay computes the backoff before a cell's attempt-th try (attempt ≥
// 2): exponential doubling from base, spread to [0.5×, 1.5×) by a pure hash
// of (seed, cell index, attempt). No RNG state exists, so the retry schedule
// is a function of the sweep configuration alone — identical on every run of
// the same sweep, including a run resumed after a crash.
func retryDelay(base time.Duration, seed int64, cell, attempt int) time.Duration {
	d := base << uint(attempt-2)
	return time.Duration(float64(d) * (0.5 + faults.Jitter01(seed, uint64(cell), uint64(attempt))))
}

// sweepTrace generates the trace a sweep replays through every cell — wl at
// intensity and scale, with the popularity phases shortened by the same
// scale so churn-driven behaviour is scale-invariant — and the policy
// epoch: epochSeconds, or the trace duration over epochsPerTrace when zero.
func sweepTrace(wl workload.GenConfig, intensity, scale, epochSeconds float64, epochsPerTrace int) (*workload.Trace, float64, error) {
	var err error
	if intensity != 1 {
		if wl, err = wl.WithIntensity(intensity); err != nil {
			return nil, 0, err
		}
	}
	if scale != 1 {
		if wl, err = wl.Scaled(scale); err != nil {
			return nil, 0, err
		}
		wl.PhaseSeconds *= scale
	}
	trace, err := workload.Generate(wl)
	if err != nil {
		return nil, 0, err
	}
	if epochSeconds == 0 {
		epochSeconds = float64(wl.NumRequests) * wl.MeanInterarrival / float64(epochsPerTrace)
	}
	return trace, epochSeconds, nil
}

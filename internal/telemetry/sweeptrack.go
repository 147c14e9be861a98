package telemetry

//simlint:allowfile detrand -- the sweep tracker measures wall-clock pace of cells for ETA and ops reporting; it never feeds simulation state

import (
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/des"
)

// CellState is a sweep cell's position in its lifecycle as seen by the ops
// plane: pending → running → done | failed, with a transient retried state
// between a failed attempt and the next one.
type CellState string

const (
	CellStatePending CellState = "pending"
	CellStateRunning CellState = "running"
	CellStateDone    CellState = "done"
	CellStateFailed  CellState = "failed"
	CellStateRetried CellState = "retried"
)

// SweepTracker is the ops plane's view of a running sweep: one state-machine
// entry per cell, completed-cell wall-clocks for the ETA, and per-cell
// Live/Watch handles for the cells currently executing. Unlike Live it is
// mutex-based — every method is called at cell granularity (cell start,
// cell finish), never on the simulation hot path, and /progress readers are
// humans polling at seconds granularity, so lock-freedom buys nothing here.
// A nil *SweepTracker is a valid no-op sink.
type SweepTracker struct {
	mu          sync.Mutex
	now         func() time.Time // injectable for deterministic tests
	start       time.Time
	parallelism int
	order       []string
	cells       map[string]*cellTrack
	doneWall    []float64 // wall seconds of completed cells, for the ETA
}

type cellTrack struct {
	state     CellState
	attempts  int
	startedAt time.Time
	wall      float64 // final wall seconds once done/failed
	events    uint64  // final events fired once done/failed
	errMsg    string
	stall     *des.StallError
	live      *Live
	watch     *des.Watch
}

// SweepCellStatus is one cell's row in a SweepSnapshot.
type SweepCellStatus struct {
	Cell     string    `json:"cell"`
	State    CellState `json:"state"`
	Attempts int       `json:"attempts,omitempty"`
	// WallSeconds is the cell's elapsed wall-clock: final for done/failed
	// cells, running so far for running ones.
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	// SimSeconds and Events come from the running cell's live view (final
	// values once the cell completes).
	SimSeconds float64 `json:"sim_seconds,omitempty"`
	Events     uint64  `json:"events,omitempty"`
	Requests   uint64  `json:"requests,omitempty"`
	// Streak/StallLimit expose watchdog pressure for running cells.
	Streak     uint64          `json:"streak,omitempty"`
	StallLimit uint64          `json:"stall_limit,omitempty"`
	LastEvent  string          `json:"last_event,omitempty"`
	Error      string          `json:"error,omitempty"`
	Stall      *des.StallError `json:"stall,omitempty"`
}

// SweepSnapshot is a consistent view of the whole sweep.
type SweepSnapshot struct {
	Total          int     `json:"total"`
	Pending        int     `json:"pending"`
	Running        int     `json:"running"`
	Done           int     `json:"done"`
	Failed         int     `json:"failed"`
	Retried        int     `json:"retried"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// EventsPerSecond is aggregate simulated-event throughput: events of
	// finished cells plus the live counters of running ones, over elapsed
	// wall time.
	EventsPerSecond float64 `json:"events_per_second"`
	// ETASeconds estimates time to sweep completion from the mean
	// wall-clock of completed cells spread over the worker lanes; -1 until
	// the first cell completes.
	ETASeconds float64           `json:"eta_seconds"`
	Cells      []SweepCellStatus `json:"cells"`
}

// SetClock replaces the tracker's wall-clock source so tests (including the
// ops server's golden exposition test) get deterministic elapsed times. Call
// before any cells start.
func (t *SweepTracker) SetClock(now func() time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.now = now
	t.start = now()
}

// NewSweepTracker returns a tracker with every cell pending, in the given
// (deterministic) order. parallelism is the sweep's worker-lane count, used
// by the ETA; values < 1 mean one lane per CPU, as for Exec.Parallelism.
func NewSweepTracker(cells []string, parallelism int) *SweepTracker {
	if parallelism < 1 {
		parallelism = runtime.NumCPU()
	}
	t := &SweepTracker{
		now:         time.Now,
		start:       time.Now(),
		parallelism: parallelism,
		order:       append([]string(nil), cells...),
		cells:       make(map[string]*cellTrack, len(cells)),
	}
	for _, k := range t.order {
		t.cells[k] = &cellTrack{state: CellStatePending}
	}
	return t
}

// StartCell marks a cell running (incrementing its attempt counter) and
// returns fresh Live/Watch handles for the simulation about to run it. Nil
// tracker returns nil handles, which downstream treats as ops-off.
func (t *SweepTracker) StartCell(key string) (*Live, *des.Watch) {
	if t == nil {
		return nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.cell(key)
	c.state = CellStateRunning
	c.attempts++
	c.startedAt = t.now()
	c.live = NewLive(0)
	c.watch = des.NewWatch()
	return c.live, c.watch
}

// CellDone marks a cell completed, recording its wall-clock and final event
// count for the ETA and throughput aggregates.
func (t *SweepTracker) CellDone(key string, wallSeconds float64, events uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.cell(key)
	c.state = CellStateDone
	c.wall = wallSeconds
	c.events = events
	t.doneWall = append(t.doneWall, wallSeconds)
}

// CellRetrying records a failed attempt that will be retried.
func (t *SweepTracker) CellRetrying(key string, err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.cell(key)
	c.state = CellStateRetried
	c.errMsg = errString(err)
	c.stall = stallOf(err)
	c.capture()
}

// CellFailed marks a cell terminally failed (attempts exhausted).
func (t *SweepTracker) CellFailed(key string, err error, wallSeconds float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.cell(key)
	c.state = CellStateFailed
	c.wall = wallSeconds
	c.errMsg = errString(err)
	c.stall = stallOf(err)
	c.capture()
}

// cell returns the tracked entry, creating one for unknown keys so a caller
// bug degrades to an extra row rather than a panic.
func (t *SweepTracker) cell(key string) *cellTrack {
	c, ok := t.cells[key]
	if !ok {
		c = &cellTrack{state: CellStatePending}
		t.cells[key] = c
		t.order = append(t.order, key)
	}
	return c
}

// capture freezes the live event counter into the cell record (caller holds
// t.mu; used when an attempt ends without a clean completion).
func (c *cellTrack) capture() {
	if c.watch != nil {
		c.events = c.watch.Snapshot().Fired
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func stallOf(err error) *des.StallError {
	var serr *des.StallError
	if errors.As(err, &serr) {
		return serr
	}
	return nil
}

// Snapshot returns the sweep's current state: per-cell rows in sweep order,
// aggregate counts, throughput, and the wall-clock-derived ETA. Safe from
// any goroutine; a nil tracker yields the zero snapshot.
func (t *SweepTracker) Snapshot() SweepSnapshot {
	if t == nil {
		return SweepSnapshot{ETASeconds: -1}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	snap := SweepSnapshot{
		Total:          len(t.order),
		ElapsedSeconds: now.Sub(t.start).Seconds(),
		ETASeconds:     -1,
		Cells:          make([]SweepCellStatus, 0, len(t.order)),
	}
	var events float64
	var runningElapsed []float64
	for _, key := range t.order {
		c := t.cells[key]
		row := SweepCellStatus{
			Cell:     key,
			State:    c.state,
			Attempts: c.attempts,
			Error:    c.errMsg,
			Stall:    c.stall,
		}
		switch c.state {
		case CellStatePending:
			snap.Pending++
		case CellStateRunning:
			snap.Running++
			row.WallSeconds = now.Sub(c.startedAt).Seconds()
			ls := c.live.Snapshot()
			ws := c.watch.Snapshot()
			row.SimSeconds = ls.SimSeconds
			row.Events = ws.Fired
			row.Requests = ls.Requests
			row.Streak = ws.Streak
			row.StallLimit = ws.StallLimit
			row.LastEvent = ws.LastLabel
			if ws.Stall != nil {
				row.Stall = ws.Stall
			}
			events += float64(ws.Fired)
			runningElapsed = append(runningElapsed, row.WallSeconds)
		case CellStateDone:
			snap.Done++
			row.WallSeconds = c.wall
			row.Events = c.events
			events += float64(c.events)
			if c.attempts > 1 {
				snap.Retried++
			}
		case CellStateFailed:
			snap.Failed++
			row.WallSeconds = c.wall
			row.Events = c.events
			events += float64(c.events)
		case CellStateRetried:
			snap.Retried++
			row.Events = c.events
			events += float64(c.events)
		}
		snap.Cells = append(snap.Cells, row)
	}
	if snap.ElapsedSeconds > 0 {
		snap.EventsPerSecond = events / snap.ElapsedSeconds
	}
	// ETA heuristic: completed cells predict the mean cell wall-clock;
	// running cells get credit for time already spent, pending cells cost a
	// full mean each, and the remaining work spreads across the worker
	// lanes. Coarse by construction — it exists so an operator can tell
	// "minutes" from "hours", not to be a scheduler.
	if n := len(t.doneWall); n > 0 {
		var sum float64
		for _, w := range t.doneWall {
			sum += w
		}
		mean := sum / float64(n)
		remaining := float64(snap.Pending) * mean
		for _, el := range runningElapsed {
			if left := mean - el; left > 0 {
				remaining += left
			}
		}
		lanes := t.parallelism
		if width := snap.Running + snap.Pending; width > 0 && width < lanes {
			lanes = width
		}
		if lanes < 1 {
			lanes = 1
		}
		snap.ETASeconds = remaining / float64(lanes)
	}
	return snap
}

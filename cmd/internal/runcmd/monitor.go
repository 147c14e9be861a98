package runcmd

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/des"
	"repro/internal/opsserver"
	"repro/internal/telemetry"
)

// progressEvery is the -progress cadence.
const progressEvery = 2 * time.Second

// Monitor is a command's live surface: the ops plane on -ops-addr and the
// -progress log ticker. Both read the same views — the current run's Live
// or the current sweep's SweepTracker — so a log line and /progress cannot
// disagree. Observation is read-only: a run is bit-identical with or
// without it. A nil *Monitor (neither surface asked for) is a valid no-op.
type Monitor struct {
	srv        *opsserver.Server // nil without -ops-addr
	line       atomic.Pointer[func() string]
	stop, done chan struct{} // the ticker's; nil without -progress
}

// Observe starts the ops server on -ops-addr and, when progress is set, a
// ticker that logs the current view's line every 2 s. It returns nil when
// neither is asked for.
func (c *Command) Observe(progress bool) *Monitor {
	if c.OpsAddr == "" && !progress {
		return nil
	}
	m := &Monitor{}
	if c.OpsAddr != "" {
		srv, err := opsserver.Start(opsserver.Options{Addr: c.OpsAddr, Tool: c.Name, Log: c.Log})
		if err != nil {
			c.Log.Fatal(err)
		}
		m.srv = srv
	}
	if progress {
		m.stop, m.done = make(chan struct{}), make(chan struct{})
		go m.tick(c.Log)
	}
	return m
}

// Run installs fresh views for one run named name — a live view with one
// health row per array (0 for an array run) and an engine watch — and
// returns them for the run's config. A nil monitor returns nils, which
// leaves the run unobserved.
func (m *Monitor) Run(name string, arrays int) (*telemetry.Live, *des.Watch) {
	if m == nil {
		return nil, nil
	}
	live, watch := telemetry.NewLive(arrays), des.NewWatch()
	start := time.Now()
	line := func() string { return liveLine(live.Snapshot(), time.Since(start)) }
	m.line.Store(&line)
	m.srv.SetView(name, live, watch, nil)
	return live, watch
}

// Sweep installs a fresh tracker for the sweep named name, with cells keys
// run on parallelism workers, and returns it for the sweep's Exec. A nil
// monitor returns nil.
func (m *Monitor) Sweep(name string, keys []string, parallelism int) *telemetry.SweepTracker {
	if m == nil {
		return nil
	}
	tr := telemetry.NewSweepTracker(keys, parallelism)
	line := func() string { return SweepLine(tr.Snapshot()) }
	m.line.Store(&line)
	m.srv.SetView(name, nil, nil, tr)
	return tr
}

// MarkDone flags the workload finished: /healthz answers "done".
func (m *Monitor) MarkDone() {
	if m != nil {
		m.srv.MarkDone()
	}
}

// Close stops the ticker and shuts the ops server down.
func (m *Monitor) Close() {
	if m == nil {
		return
	}
	if m.stop != nil {
		close(m.stop)
		<-m.done
	}
	m.srv.Close()
}

func (m *Monitor) tick(log *telemetry.Logger) {
	defer close(m.done)
	t := time.NewTicker(progressEvery)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			if line := m.line.Load(); line != nil {
				log.Infof("progress %s", (*line)())
			}
		}
	}
}

// liveLine renders a run's live snapshot, wall after the run started: the
// virtual time reached, the events fired, and the sim-time/wall-time
// speed-up.
func liveLine(s telemetry.LiveSnapshot, wall time.Duration) string {
	speedup := 0.0
	if w := wall.Seconds(); w > 0 {
		speedup = s.SimSeconds / w
	}
	return fmt.Sprintf("sim=%.1fs events=%d speedup=%.0fx (t+%s)",
		s.SimSeconds, s.Events, speedup, wall.Round(time.Millisecond))
}

// SweepLine renders a sweep's snapshot: cells done of the total, running
// and failed cells, aggregate events per wall second, and the ETA ("?"
// until the first cell completes).
func SweepLine(s telemetry.SweepSnapshot) string {
	eta := "?"
	if s.ETASeconds >= 0 {
		eta = seconds(s.ETASeconds).Round(time.Second).String()
	}
	return fmt.Sprintf("cells=%d/%d running=%d failed=%d events/s=%.0f eta=%s (t+%s)",
		s.Done, s.Total, s.Running, s.Failed, s.EventsPerSecond, eta,
		seconds(s.ElapsedSeconds).Round(time.Millisecond))
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

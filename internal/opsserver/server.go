// Package opsserver is the read-only live ops plane: an HTTP server a
// long-running simulation or sweep exposes when -ops-addr is set, serving
//
//   - /metrics  — OpenMetrics text exposition of the simulation's live
//     counters and gauges, the sweep's per-cell status, and the process's
//     own runtime stats;
//   - /progress — a JSON snapshot (or, with ?stream=sse or an
//     Accept: text/event-stream header, a Server-Sent Events stream) of
//     per-cell sweep state, throughput, and the wall-clock-derived ETA;
//   - /healthz  — liveness wired to the des.RunGuarded stall watchdog, so a
//     hung event chain is visible to an operator before the process dies.
//
// The server only ever *reads* the simulation through lock-free snapshot
// APIs (telemetry.Live, des.Watch — seqlocks with the simulation, or a
// fleet's router, as sole writer) and the mutex-based telemetry.SweepTracker (touched at cell
// granularity only). It never feeds anything back, so ops-on runs are
// bit-identical to ops-off runs; with no server attached the simulation's
// hot path pays one nil check and zero allocations.
package opsserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/des"
	"repro/internal/telemetry"
)

// Options configures a Server.
type Options struct {
	// Addr is the listen address, e.g. "localhost:9100" or ":0".
	Addr string
	// Tool and Run identify the process in /metrics (sim_info) and /progress.
	Tool string
	Run  string
	// Live is the single run's live view: an array run (arraysim) or a
	// fleet, whose view carries health rows (fleetsim). Nil when only a
	// sweep tracker is attached.
	Live *telemetry.Live
	// Watch is the single-run engine watch backing /healthz.
	Watch *des.Watch
	// Sweep is the sweep tracker (experiments); nil for single runs.
	Sweep *telemetry.SweepTracker
	// Log receives server lifecycle lines; nil is silent.
	Log *telemetry.Logger
	// StaleAfter is how long the event counters may sit still (while not
	// marked done) before /healthz reports the process stuck; zero means
	// 60 s. This catches hangs *outside* the DES loop — a deadlocked
	// worker, a wedged disk write — that the in-loop watchdog cannot see.
	StaleAfter time.Duration
	// SSEInterval is the /progress event-stream cadence; zero means 1 s.
	SSEInterval time.Duration
}

// Server is the live ops plane for one process. Create with Start; it
// listens immediately (so ":0" callers can read the bound Addr) and serves
// until Close.
type Server struct {
	mu   sync.Mutex // guards opts swaps and staleness bookkeeping
	opts Options
	ln   net.Listener
	srv  *http.Server
	done atomic.Bool

	lastFired    uint64
	lastFiredAt  time.Time
	now          func() time.Time        // injectable for tests
	readMemStats func(*runtime.MemStats) // injectable for the golden test
	goroutines   func() int              // injectable for the golden test
	start        time.Time
}

// Start opens the listener and begins serving in a background goroutine.
func Start(opts Options) (*Server, error) {
	if opts.StaleAfter <= 0 {
		opts.StaleAfter = 60 * time.Second
	}
	if opts.SSEInterval <= 0 {
		opts.SSEInterval = time.Second
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("opsserver: listen %s: %w", opts.Addr, err)
	}
	s := &Server{
		opts:         opts,
		ln:           ln,
		now:          time.Now,
		readMemStats: runtime.ReadMemStats,
		goroutines:   runtime.NumGoroutine,
	}
	s.start = s.now()
	s.lastFiredAt = s.start
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/healthz", s.handleHealthz)
	s.srv = &http.Server{Handler: mux}
	go func() {
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			opts.Log.Errorf("ops server: %v", err)
		}
	}()
	opts.Log.Infof("ops server listening on http://%s (/metrics /progress /healthz)", ln.Addr())
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// SetView swaps the views the server reports: a single run's live view and
// watch, or a sweep's tracker — experiments runs several sweeps
// sequentially through one server.
func (s *Server) SetView(name string, live *telemetry.Live, watch *des.Watch, sweep *telemetry.SweepTracker) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.opts.Run, s.opts.Live, s.opts.Watch, s.opts.Sweep = name, live, watch, sweep
}

// MarkDone flags the workload finished: /healthz keeps answering 200 with
// status "done" and staleness detection disarms.
func (s *Server) MarkDone() {
	if s == nil {
		return
	}
	s.done.Store(true)
}

// Close shuts the server down, waiting briefly for in-flight responses.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// snapshotOpts returns a consistent copy of the swappable option fields.
func (s *Server) snapshotOpts() Options {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opts
}

// totalFired sums event progress across everything the server watches; the
// staleness detector keys off it.
func totalFired(opts Options) uint64 {
	var fired uint64
	if opts.Watch != nil {
		fired += opts.Watch.Snapshot().Fired
	}
	if opts.Sweep != nil {
		snap := opts.Sweep.Snapshot()
		for _, c := range snap.Cells {
			fired += c.Events
		}
	}
	return fired
}

// observeProgress updates the staleness clock and reports how long the
// event counters have been flat.
func (s *Server) observeProgress(opts Options) time.Duration {
	fired := totalFired(opts)
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	if fired != s.lastFired {
		s.lastFired = fired
		s.lastFiredAt = now
		return 0
	}
	return now.Sub(s.lastFiredAt)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	opts := s.snapshotOpts()
	s.observeProgress(opts)
	fams := s.families(opts)
	w.Header().Set("Content-Type", ContentType)
	if err := WriteExposition(w, fams); err != nil {
		opts.Log.Debugf("ops /metrics write: %v", err)
	}
}

// healthReport is the /healthz JSON body.
type healthReport struct {
	Status string `json:"status"` // ok | done | stalling | stalled | stuck
	Detail string `json:"detail,omitempty"`
	// Watch mirrors the single-run watchdog position when present.
	SimSeconds float64         `json:"sim_seconds,omitempty"`
	Events     uint64          `json:"events,omitempty"`
	Streak     uint64          `json:"streak,omitempty"`
	StallLimit uint64          `json:"stall_limit,omitempty"`
	LastEvent  string          `json:"last_event,omitempty"`
	Stall      *des.StallError `json:"stall,omitempty"`
	// StalledCells lists sweep cells whose watchdog tripped or is past
	// half its limit.
	StalledCells []string `json:"stalled_cells,omitempty"`
}

// health derives the health state from the watchdog(s) and the wall-clock
// staleness of the event counters.
func (s *Server) health(opts Options) (int, healthReport) {
	rep := healthReport{Status: "ok"}
	code := http.StatusOK

	degrade := func(status string, detail string, serious bool) {
		rep.Status = status
		rep.Detail = detail
		if serious {
			code = http.StatusServiceUnavailable
		}
	}

	if opts.Watch != nil {
		ws := opts.Watch.Snapshot()
		rep.SimSeconds = ws.SimTime
		rep.Events = ws.Fired
		rep.Streak = ws.Streak
		rep.StallLimit = ws.StallLimit
		rep.LastEvent = ws.LastLabel
		rep.Stall = ws.Stall
		switch {
		case ws.Stall != nil:
			degrade("stalled", "watchdog tripped: "+ws.Stall.Error(), true)
		case ws.StallLimit > 0 && ws.Streak >= ws.StallLimit/2:
			degrade("stalling", fmt.Sprintf(
				"same-instant event streak %d is past half the stall limit %d (last event %q)",
				ws.Streak, ws.StallLimit, ws.LastLabel), false)
		}
	}
	if opts.Sweep != nil {
		snap := opts.Sweep.Snapshot()
		for _, c := range snap.Cells {
			switch {
			case c.Stall != nil:
				rep.StalledCells = append(rep.StalledCells, c.Cell)
				degrade("stalled", fmt.Sprintf("cell %s: watchdog tripped (%s)", c.Cell, c.Stall.Error()), true)
			case c.State == telemetry.CellStateRunning && c.StallLimit > 0 && c.Streak >= c.StallLimit/2:
				rep.StalledCells = append(rep.StalledCells, c.Cell)
				if rep.Status == "ok" {
					degrade("stalling", fmt.Sprintf("cell %s: streak %d past half the stall limit %d", c.Cell, c.Streak, c.StallLimit), false)
				}
			}
		}
	}
	if stale := s.observeProgress(opts); !s.done.Load() && stale > opts.StaleAfter {
		degrade("stuck", fmt.Sprintf(
			"no event progress for %s (threshold %s) and the run is not done — the process is wedged outside the event loop",
			stale.Round(time.Second), opts.StaleAfter), true)
	}
	if s.done.Load() && code == http.StatusOK {
		rep.Status = "done"
	}
	return code, rep
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	opts := s.snapshotOpts()
	code, rep := s.health(opts)
	writeJSON(w, code, rep)
}

// writeJSON writes v as an indented JSON body with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// progressReport is the /progress JSON body and the SSE event payload. A
// single run shows its live view as "live", or as "fleet" when the view
// carries health rows.
type progressReport struct {
	Tool           string                   `json:"tool,omitempty"`
	Run            string                   `json:"run,omitempty"`
	Status         string                   `json:"status"` // running | done
	ElapsedSeconds float64                  `json:"elapsed_seconds"`
	Live           *telemetry.LiveSnapshot  `json:"live,omitempty"`
	Sweep          *telemetry.SweepSnapshot `json:"sweep,omitempty"`
	Fleet          *telemetry.FleetView     `json:"fleet,omitempty"`
}

func (s *Server) progress(opts Options) progressReport {
	s.observeProgress(opts)
	rep := progressReport{
		Tool:           opts.Tool,
		Run:            opts.Run,
		Status:         "running",
		ElapsedSeconds: s.now().Sub(s.start).Seconds(),
	}
	if s.done.Load() {
		rep.Status = "done"
	}
	if opts.Live != nil {
		ls := opts.Live.Snapshot()
		if rep.Fleet = ls.Fleet; rep.Fleet == nil {
			if rep.ElapsedSeconds > 0 {
				ls.EventsPerSecond = float64(ls.Events) / rep.ElapsedSeconds
			}
			rep.Live = &ls
		}
	}
	if opts.Sweep != nil {
		snap := opts.Sweep.Snapshot()
		rep.Sweep = &snap
	}
	return rep
}

func wantsSSE(r *http.Request) bool {
	if r.URL.Query().Get("stream") == "sse" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	opts := s.snapshotOpts()
	if !wantsSSE(r) {
		writeJSON(w, http.StatusOK, s.progress(opts))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	ticker := time.NewTicker(opts.SSEInterval)
	defer ticker.Stop()
	for {
		// Re-read swappable state each tick so a stream spanning sweeps
		// follows along.
		opts = s.snapshotOpts()
		rep := s.progress(opts)
		payload, err := json.Marshal(rep)
		if err != nil {
			return
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", payload); err != nil {
			return
		}
		fl.Flush()
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}

package opsserver

import (
	"fmt"
	"runtime"

	"repro/internal/telemetry"
)

// families assembles the full /metrics family set from whatever sources are
// attached: the single run's live view (with the fleet families in place
// of the array's epoch gauges when it carries health rows), the engine
// watch, the sweep tracker, and the process's own runtime stats.
// Everything is built from slices in deterministic order — no map
// iteration — so the exposition is byte-stable for fixed inputs
// (golden-tested, and structurally enforced by maporder).
func (s *Server) families(opts Options) []Family {
	var fams []Family

	fams = append(fams, Family{
		Name: "sim_info", Type: "gauge",
		Help: "Constant 1; labels identify the serving tool and run.",
		Samples: []Sample{{
			Labels: []Label{{"tool", opts.Tool}, {"run", opts.Run}},
			Value:  1,
		}},
	})

	if opts.Live != nil {
		ls := opts.Live.Snapshot()
		fams = append(fams,
			gauge("sim_virtual_seconds", "Simulated (virtual) time reached.", ls.SimSeconds),
			counter("sim_events", "DES events fired.", float64(ls.Events)),
			counter("sim_requests", "User requests completed.", float64(ls.Requests)),
			counter("sim_arrivals", "User requests arrived.", float64(ls.Arrivals)),
		)
		if ls.Fleet != nil {
			fams = append(fams, fleetFamilies(ls.Fleet)...)
		} else {
			fams = append(fams,
				counter("sim_energy_joules", "Array energy consumed (epoch-fresh).", ls.EnergyJ),
				gauge("sim_worst_afr_percent", "Worst per-disk annualized failure rate (epoch-fresh).", ls.WorstAFRPct),
				gauge("sim_queue_depth", "Total requests queued across disks (epoch-fresh).", float64(ls.QueueDepth)),
				gauge("sim_epoch", "Policy epochs completed.", float64(ls.Epoch)),
				Family{Name: "sim_disks_spinning", Type: "gauge",
					Help: "Disks by spin speed (epoch-fresh).",
					Samples: []Sample{
						{Labels: []Label{{"speed", "high"}}, Value: float64(ls.DisksHigh)},
						{Labels: []Label{{"speed", "low"}}, Value: float64(ls.DisksLow)},
					}},
			)
		}
	}

	if opts.Watch != nil {
		ws := opts.Watch.Snapshot()
		stalled := 0.0
		if ws.Stall != nil {
			stalled = 1
		}
		fams = append(fams,
			gauge("des_pending_events", "Events scheduled but not yet fired.", float64(ws.Pending)),
			gauge("des_watchdog_streak", "Consecutive same-instant events (stall pressure).", float64(ws.Streak)),
			gauge("des_watchdog_stall_limit", "Configured watchdog trip point.", float64(ws.StallLimit)),
			gauge("des_watchdog_stalled", "1 once the watchdog has tripped.", stalled),
		)
	}

	if opts.Sweep != nil {
		snap := opts.Sweep.Snapshot()
		states := []struct {
			name  string
			count int
		}{
			{"pending", snap.Pending},
			{"running", snap.Running},
			{"done", snap.Done},
			{"failed", snap.Failed},
			{"retried", snap.Retried},
		}
		byState := Family{Name: "sweep_cells", Type: "gauge",
			Help: "Sweep cells by lifecycle state."}
		for _, st := range states {
			byState.Samples = append(byState.Samples, Sample{
				Labels: []Label{{"state", st.name}}, Value: float64(st.count)})
		}
		fams = append(fams, byState,
			gauge("sweep_cell_count", "Total cells in the sweep.", float64(snap.Total)),
			gauge("sweep_elapsed_seconds", "Wall-clock time since the sweep started.", snap.ElapsedSeconds),
			gauge("sweep_events_per_second", "Aggregate simulated events per wall second.", snap.EventsPerSecond),
		)
		if snap.ETASeconds >= 0 {
			fams = append(fams, gauge("sweep_eta_seconds",
				"Estimated wall seconds to sweep completion (from completed-cell wall-clocks).", snap.ETASeconds))
		}
		cellState := Family{Name: "sweep_cell_state", Type: "gauge",
			Help: "Constant 1 per cell; the state label is the cell's current lifecycle state."}
		cellEvents := Family{Name: "sweep_cell_events", Type: "counter",
			Help: "DES events fired by the cell (live for running cells, final otherwise)."}
		cellSim := Family{Name: "sweep_cell_sim_seconds", Type: "gauge",
			Help: "Virtual time reached by the cell (running cells only)."}
		cellAttempts := Family{Name: "sweep_cell_attempts", Type: "gauge",
			Help: "Run attempts for the cell (>1 means retried)."}
		for _, c := range snap.Cells {
			key := []Label{{"cell", c.Cell}}
			cellState.Samples = append(cellState.Samples, Sample{
				Labels: []Label{{"cell", c.Cell}, {"state", string(c.State)}}, Value: 1})
			cellEvents.Samples = append(cellEvents.Samples, Sample{Labels: key, Value: float64(c.Events)})
			if c.State == "running" {
				cellSim.Samples = append(cellSim.Samples, Sample{Labels: key, Value: c.SimSeconds})
			}
			if c.Attempts > 0 {
				cellAttempts.Samples = append(cellAttempts.Samples, Sample{Labels: key, Value: float64(c.Attempts)})
			}
		}
		fams = append(fams, cellState, cellEvents, cellSim, cellAttempts)
	}

	var ms runtime.MemStats
	s.readMemStats(&ms)
	fams = append(fams,
		gauge("process_uptime_seconds", "Wall-clock seconds since the ops server started.", s.now().Sub(s.start).Seconds()),
		gauge("go_goroutines", "Live goroutines.", float64(s.goroutines())),
		gauge("go_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(ms.HeapAlloc)),
		counter("go_alloc_bytes", "Cumulative bytes allocated.", float64(ms.TotalAlloc)),
		counter("go_gc_cycles", "Completed GC cycles.", float64(ms.NumGC)),
		counter("go_gc_pause_seconds", "Cumulative GC stop-the-world pause time.", float64(ms.PauseTotalNs)/1e9),
	)
	return fams
}

// fleetFamilies are a fleet's router counters and per-array health rows.
// fleet_virtual_seconds reads the same clock as sim_virtual_seconds.
func fleetFamilies(fv *telemetry.FleetView) []Family {
	health := Family{Name: "fleet_array_health", Type: "gauge",
		Help: "Constant 1 per array; the health label is the router's current gate state."}
	backlog := Family{Name: "fleet_array_backlog", Type: "gauge",
		Help: "Foreground requests queued on the array."}
	failedDisks := Family{Name: "fleet_array_failed_disks", Type: "gauge",
		Help: "Member disks currently failed."}
	rebuilding := Family{Name: "fleet_array_rebuilding", Type: "gauge",
		Help: "1 while any member disk is rebuilding."}
	afr := Family{Name: "fleet_array_worst_afr_percent", Type: "gauge",
		Help: "Worst per-disk annualized failure rate on the array."}
	for _, a := range fv.PerArray {
		key := []Label{{"array", fmt.Sprint(a.Array)}}
		health.Samples = append(health.Samples, Sample{
			Labels: []Label{key[0], {"health", a.Health}}, Value: 1})
		backlog.Samples = append(backlog.Samples, Sample{Labels: key, Value: float64(a.Backlog)})
		failedDisks.Samples = append(failedDisks.Samples, Sample{Labels: key, Value: float64(a.FailedDisks)})
		reb := 0.0
		if a.Rebuilding {
			reb = 1
		}
		rebuilding.Samples = append(rebuilding.Samples, Sample{Labels: key, Value: reb})
		afr.Samples = append(afr.Samples, Sample{Labels: key, Value: a.WorstAFRPct})
	}
	return []Family{
		gauge("fleet_virtual_seconds", "Simulated (virtual) time reached by the shared fleet clock.", fv.SimSeconds),
		counter("fleet_requests", "Fleet requests arrived at the router.", float64(fv.Requests)),
		counter("fleet_served", "Fleet requests served (first successful completion).", float64(fv.Served)),
		counter("fleet_retries", "Retry attempts issued after a timeout.", float64(fv.Retries)),
		counter("fleet_hedges", "Hedged attempts issued.", float64(fv.Hedges)),
		counter("fleet_hedge_wins", "Requests whose hedge finished first.", float64(fv.HedgeWins)),
		counter("fleet_failovers", "Attempts re-issued to a replica after data loss.", float64(fv.Failovers)),
		counter("fleet_timeouts", "Attempts that exceeded their deadline.", float64(fv.Timeouts)),
		counter("fleet_deferred", "Attempts deferred by backpressure.", float64(fv.Deferred)),
		counter("fleet_shed", "Requests dropped without service.", float64(fv.Shed)),
		counter("fleet_failed", "Requests that exhausted every attempt and replica.", float64(fv.Failed)),
		counter("fleet_shocks", "Rack power shocks injected.", float64(fv.Shocks)),
		health, backlog, failedDisks, rebuilding, afr,
	}
}

// gauge is a gauge family of one unlabeled sample.
func gauge(name, help string, v float64) Family {
	return Family{Name: name, Type: "gauge", Help: help, Samples: []Sample{{Value: v}}}
}

// counter is a counter family of one unlabeled sample.
func counter(name, help string, v float64) Family {
	return Family{Name: name, Type: "counter", Help: help, Samples: []Sample{{Value: v}}}
}

package opsserver

import (
	"fmt"
	"runtime"
)

// families assembles the full /metrics family set from whatever sources are
// attached: the single-run live view, the engine watch, the sweep tracker,
// and the process's own runtime stats. Everything is built from slices in
// deterministic order — no map iteration — so the exposition is byte-stable
// for fixed inputs (golden-tested, and structurally enforced by maporder).
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
			Family{Name: "sim_virtual_seconds", Type: "gauge",
				Help:    "Simulated (virtual) time reached.",
				Samples: []Sample{{Value: ls.SimSeconds}}},
			Family{Name: "sim_events", Type: "counter",
				Help:    "DES events fired.",
				Samples: []Sample{{Value: float64(ls.Events)}}},
			Family{Name: "sim_requests", Type: "counter",
				Help:    "User requests completed.",
				Samples: []Sample{{Value: float64(ls.Requests)}}},
			Family{Name: "sim_arrivals", Type: "counter",
				Help:    "User requests arrived.",
				Samples: []Sample{{Value: float64(ls.Arrivals)}}},
			Family{Name: "sim_energy_joules", Type: "counter",
				Help:    "Array energy consumed (epoch-fresh).",
				Samples: []Sample{{Value: ls.EnergyJ}}},
			Family{Name: "sim_worst_afr_percent", Type: "gauge",
				Help:    "Worst per-disk annualized failure rate (epoch-fresh).",
				Samples: []Sample{{Value: ls.WorstAFRPct}}},
			Family{Name: "sim_queue_depth", Type: "gauge",
				Help:    "Total requests queued across disks (epoch-fresh).",
				Samples: []Sample{{Value: float64(ls.QueueDepth)}}},
			Family{Name: "sim_epoch", Type: "gauge",
				Help:    "Policy epochs completed.",
				Samples: []Sample{{Value: float64(ls.Epoch)}}},
			Family{Name: "sim_checkpoints_skipped", Type: "counter",
				Help:    "Checkpoint ticks skipped while a policy callback was in flight.",
				Samples: []Sample{{Value: float64(ls.CheckpointsSkipped)}}},
			Family{Name: "sim_disks_spinning", Type: "gauge",
				Help: "Disks by spin speed (epoch-fresh).",
				Samples: []Sample{
					{Labels: []Label{{"speed", "high"}}, Value: float64(ls.DisksHigh)},
					{Labels: []Label{{"speed", "low"}}, Value: float64(ls.DisksLow)},
				}},
		)
	}

	if opts.Watch != nil {
		ws := opts.Watch.Snapshot()
		stalled := 0.0
		if ws.Stall != nil {
			stalled = 1
		}
		fams = append(fams,
			Family{Name: "des_pending_events", Type: "gauge",
				Help:    "Events scheduled but not yet fired.",
				Samples: []Sample{{Value: float64(ws.Pending)}}},
			Family{Name: "des_watchdog_streak", Type: "gauge",
				Help:    "Consecutive same-instant events (stall pressure).",
				Samples: []Sample{{Value: float64(ws.Streak)}}},
			Family{Name: "des_watchdog_stall_limit", Type: "gauge",
				Help:    "Configured watchdog trip point.",
				Samples: []Sample{{Value: float64(ws.StallLimit)}}},
			Family{Name: "des_watchdog_stalled", Type: "gauge",
				Help:    "1 once the watchdog has tripped.",
				Samples: []Sample{{Value: stalled}}},
		)
	}

	if opts.Fleet != nil {
		fs := opts.Fleet.Snapshot()
		counters := []struct {
			name string
			help string
			v    uint64
		}{
			{"fleet_requests", "Fleet requests arrived at the router.", fs.Requests},
			{"fleet_served", "Fleet requests served (first successful completion).", fs.Served},
			{"fleet_retries", "Retry attempts issued after a timeout.", fs.Retries},
			{"fleet_hedges", "Hedged attempts issued.", fs.Hedges},
			{"fleet_hedge_wins", "Requests whose hedge finished first.", fs.HedgeWins},
			{"fleet_failovers", "Attempts re-issued to a replica after data loss.", fs.Failovers},
			{"fleet_timeouts", "Attempts that exceeded their deadline.", fs.Timeouts},
			{"fleet_deferred", "Attempts deferred by backpressure.", fs.Deferred},
			{"fleet_shed", "Requests dropped without service.", fs.Shed},
			{"fleet_failed", "Requests that exhausted every attempt and replica.", fs.Failed},
			{"fleet_shocks", "Rack power shocks injected.", fs.Shocks},
		}
		fams = append(fams, Family{Name: "fleet_virtual_seconds", Type: "gauge",
			Help:    "Simulated (virtual) time reached by the shared fleet clock.",
			Samples: []Sample{{Value: fs.SimSeconds}}})
		for _, c := range counters {
			fams = append(fams, Family{Name: c.name, Type: "counter",
				Help: c.help, Samples: []Sample{{Value: float64(c.v)}}})
		}
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
		for i, a := range fs.PerArray {
			key := []Label{{"array", fmt.Sprint(i)}}
			health.Samples = append(health.Samples, Sample{
				Labels: []Label{{"array", fmt.Sprint(i)}, {"health", a.Health}}, Value: 1})
			backlog.Samples = append(backlog.Samples, Sample{Labels: key, Value: float64(a.Backlog)})
			failedDisks.Samples = append(failedDisks.Samples, Sample{Labels: key, Value: float64(a.FailedDisks)})
			reb := 0.0
			if a.Rebuilding {
				reb = 1
			}
			rebuilding.Samples = append(rebuilding.Samples, Sample{Labels: key, Value: reb})
			afr.Samples = append(afr.Samples, Sample{Labels: key, Value: a.WorstAFRPct})
		}
		fams = append(fams, health, backlog, failedDisks, rebuilding, afr)
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
			Family{Name: "sweep_cell_count", Type: "gauge",
				Help:    "Total cells in the sweep.",
				Samples: []Sample{{Value: float64(snap.Total)}}},
			Family{Name: "sweep_elapsed_seconds", Type: "gauge",
				Help:    "Wall-clock time since the sweep started.",
				Samples: []Sample{{Value: snap.ElapsedSeconds}}},
			Family{Name: "sweep_events_per_second", Type: "gauge",
				Help:    "Aggregate simulated events per wall second.",
				Samples: []Sample{{Value: snap.EventsPerSecond}}},
		)
		if snap.ETASeconds >= 0 {
			fams = append(fams, Family{Name: "sweep_eta_seconds", Type: "gauge",
				Help:    "Estimated wall seconds to sweep completion (from completed-cell wall-clocks).",
				Samples: []Sample{{Value: snap.ETASeconds}}})
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
		Family{Name: "process_uptime_seconds", Type: "gauge",
			Help:    "Wall-clock seconds since the ops server started.",
			Samples: []Sample{{Value: s.now().Sub(s.start).Seconds()}}},
		Family{Name: "go_goroutines", Type: "gauge",
			Help:    "Live goroutines.",
			Samples: []Sample{{Value: float64(s.goroutines())}}},
		Family{Name: "go_heap_alloc_bytes", Type: "gauge",
			Help:    "Bytes of allocated heap objects.",
			Samples: []Sample{{Value: float64(ms.HeapAlloc)}}},
		Family{Name: "go_alloc_bytes", Type: "counter",
			Help:    "Cumulative bytes allocated.",
			Samples: []Sample{{Value: float64(ms.TotalAlloc)}}},
		Family{Name: "go_gc_cycles", Type: "counter",
			Help:    "Completed GC cycles.",
			Samples: []Sample{{Value: float64(ms.NumGC)}}},
		Family{Name: "go_gc_pause_seconds", Type: "counter",
			Help:    "Cumulative GC stop-the-world pause time.",
			Samples: []Sample{{Value: float64(ms.PauseTotalNs) / 1e9}}},
	)
	return fams
}

package array

import (
	"repro/internal/diskmodel"
	"repro/internal/reliability"
	"repro/internal/telemetry"
)

// sampleDisks walks the disks at virtual time now and records what the walk
// sees: one DiskSample per disk and one timeline row on the telemetry
// recorder, and the same aggregates as the live view's epoch gauges. It
// reads only snapshot (non-mutating) accessors, so sampling never perturbs
// the simulation: a run with telemetry enabled is result-identical to the
// same run with it disabled, not merely close.
//
//simlint:hotpath
func (s *sim) sampleDisks(now float64, epoch int) {
	rec := s.cfg.Telemetry
	if rec == nil {
		return
	}
	row := telemetry.Sample{T: now, Completed: s.respHist.N()}
	var worstAFR float64
	for i, ds := range s.disks {
		snap := ds.disk.Snapshot(now)
		temp := ds.temp.PeekMeanTemp(now)
		afr := s.cfg.Press.SnapshotAFR(reliability.Factors{
			TempC:             temp,
			Utilization:       snap.Utilization,
			TransitionsPerDay: snap.TransitionRatePerDay,
		})
		speed := "low"
		if snap.Speed == diskmodel.High {
			speed = "high"
			row.HighDisks++
		}
		if snap.State == diskmodel.Active {
			row.InService++
		}
		row.EnergyJ += snap.EnergyJ
		row.Queued += ds.queueLen()
		if afr > worstAFR {
			worstAFR = afr
		}
		if err := rec.RecordDiskSample(telemetry.DiskSample{
			T:           now,
			Epoch:       epoch,
			Disk:        i,
			Utilization: snap.Utilization,
			TempC:       temp,
			Speed:       speed,
			Transitions: snap.Transitions,
			AFRPct:      afr,
			QueueDepth:  ds.queueLen(),
			EnergyJ:     snap.EnergyJ,
		}); err != nil {
			// Telemetry I/O failure must not abort the simulation; drop the
			// recorder and keep running.
			s.cfg.Telemetry = nil
			return
		}
	}
	rec.RecordTimeline(row)
	// No-op (one nil check) when the recorder carries no Live.
	s.live.PublishEpoch(uint64(epoch), row.EnergyJ, worstAFR,
		uint64(row.Queued), uint64(row.HighDisks), uint64(len(s.disks)-row.HighDisks))
}

package array

import (
	"repro/internal/diskmodel"
	"repro/internal/reliability"
	"repro/internal/telemetry"
)

// sampleDisks appends one DiskSample per disk to the telemetry recorder at
// virtual time now. It reads only snapshot (non-mutating) accessors, so
// sampling never perturbs the simulation: a run with telemetry enabled is
// result-identical to the same run with it disabled, not merely close.
//
//simlint:hotpath
func (s *sim) sampleDisks(now float64, epoch int) {
	rec := s.cfg.Telemetry
	if rec == nil {
		return
	}
	var (
		energyJ            float64
		worstAFR           float64
		queueDepth         uint64
		disksHigh, disksLo uint64
	)
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
			disksHigh++
		} else {
			disksLo++
		}
		energyJ += snap.EnergyJ
		if afr > worstAFR {
			worstAFR = afr
		}
		queueDepth += uint64(ds.queueLen())
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
	// Epoch-cadence ops-plane aggregates, piggybacking on the disk walk
	// above. No-op (one nil check) when the recorder carries no Live.
	s.live.PublishEpoch(uint64(epoch), energyJ, worstAFR, queueDepth, disksHigh, disksLo)
}

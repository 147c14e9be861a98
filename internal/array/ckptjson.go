package array

// The checkpoint payload's encoder. Each wire type writes itself, field by
// field in struct order, in the exact bytes encoding/json's Marshal writes
// for it, straight into the envelope's buffer: no reflection, and no second
// pass to compact what a MarshalJSON method returned. Decoding stays on
// encoding/json. TestStateEncodingMatchesEncodingJSON and FuzzStateEncoding
// hold the two encodings equal, over real runs and over states whose every
// field a reflective filler set, so a field added to a wire type without
// its line here fails them.

import (
	"errors"

	"repro/internal/checkpoint"
)

// appendJSON appends the payload's encoding to dst.
func (st *simState) appendJSON(dst []byte) ([]byte, error) {
	w := checkpoint.NewWriter(dst)
	st.writeJSON(&w)
	return w.Bytes()
}

func (st *simState) writeJSON(w *checkpoint.Writer) {
	w.Raw(`{"clock":`)
	w.Float(st.Clock)
	w.Raw(`,"seq":`)
	w.Uint(st.Seq)
	w.Raw(`,"fired":`)
	w.Uint(st.Fired)
	w.Raw(`,"policy_name":`)
	w.String(st.PolicyName)
	w.Raw(`,"next_req":`)
	w.Int(st.NextReq)
	w.Raw(`,"migrations":`)
	w.Int(st.Migrations)
	w.Raw(`,"background_ops":`)
	w.Int(st.BackgroundOps)
	w.Raw(`,"epochs":`)
	w.Int(st.Epochs)
	w.Raw(`,"migs_this_epoch":`)
	w.Int(st.MigsThisEpoch)
	w.Raw(`,"place":`)
	st.Place.writeJSON(w)
	if st.Counts != nil {
		w.Raw(`,"counts":`)
		st.Counts.writeJSON(w)
	}
	if len(st.Migrating) > 0 {
		w.Raw(`,"migrating":`)
		w.Ints(st.Migrating)
	}
	w.Raw(`,"resp_stream":`)
	st.RespStream.WriteJSON(w)
	w.Raw(`,"resp_hist":`)
	st.RespHist.WriteJSON(w)
	w.Raw(`,"disks":`)
	if st.Disks == nil {
		w.Raw(`null`)
	} else {
		w.Raw(`[`)
		for i := range st.Disks {
			if i > 0 {
				w.Raw(`,`)
			}
			st.Disks[i].writeJSON(w)
		}
		w.Raw(`]`)
	}
	if len(st.Stripes) > 0 {
		w.Raw(`,"stripes":[`)
		for i := range st.Stripes {
			if i > 0 {
				w.Raw(`,`)
			}
			st.Stripes[i].writeJSON(w)
		}
		w.Raw(`]`)
	}
	if len(st.Timeline) > 0 {
		w.Raw(`,"timeline":[`)
		for i := range st.Timeline {
			if i > 0 {
				w.Raw(`,`)
			}
			st.Timeline[i].writeJSON(w)
		}
		w.Raw(`]`)
	}
	w.Raw(`,"policy":`)
	w.RawMessage(st.Policy)
	if st.Faults != nil {
		w.Raw(`,"faults":`)
		st.Faults.writeJSON(w)
	}
	w.Raw(`,"events":`)
	if st.Events == nil {
		w.Raw(`null`)
	} else {
		w.Raw(`[`)
		for i := range st.Events {
			if i > 0 {
				w.Raw(`,`)
			}
			st.Events[i].writeJSON(w)
		}
		w.Raw(`]`)
	}
	// Telemetry and decision tracing are off by default; their states keep
	// encoding/json.
	if st.Metrics != nil {
		w.Raw(`,"metrics":`)
		w.Marshal(st.Metrics)
	}
	if st.Trace != nil {
		w.Raw(`,"trace":`)
		w.Marshal(st.Trace)
	}
	w.Raw(`}`)
}

// errForeignKey reports a file-keyed map holding a key outside the run's
// file set. Restore rejects such a state, and no simulator write adds one.
var errForeignKey = errors.New("array: file-keyed map holds a key outside the file set")

// writeJSON writes the map as encoding/json writes a map[int]int: keys in
// the order of their decimal strings, which f.order already holds.
func (f fileMap) writeJSON(w *checkpoint.Writer) {
	if f.m == nil {
		w.Raw(`null`)
		return
	}
	w.Raw(`{`)
	n := 0
	for _, id := range f.order {
		if v, ok := f.m[id]; ok {
			if n > 0 {
				w.Raw(`,`)
			}
			w.Raw(`"`)
			w.Int(id)
			w.Raw(`":`)
			w.Int(v)
			n++
		}
	}
	w.Raw(`}`)
	if n != len(f.m) {
		w.Fail(errForeignKey)
	}
}

func (c *contState) writeJSON(w *checkpoint.Writer) {
	w.Raw(`{"kind":`)
	w.String(c.Kind)
	w.OmitInt(`,"file_id":`, c.FileID)
	w.OmitInt(`,"to":`, c.To)
	w.OmitInt(`,"disk":`, c.Disk)
	w.OmitFloat(`,"size_mb":`, c.SizeMB)
	w.OmitFloat(`,"next_issue":`, c.NextIssue)
	w.OmitFloat(`,"remaining_mb":`, c.RemainingMB)
	w.OmitUint(`,"req_id":`, c.ReqID)
	w.OmitInt(`,"attempt":`, c.Attempt)
	w.Raw(`}`)
}

func (o *opState) writeJSON(w *checkpoint.Writer) {
	w.Raw(`{"kind":`)
	w.Int(o.Kind)
	w.OmitInt(`,"file_id":`, o.FileID)
	w.OmitFloat(`,"size_mb":`, o.SizeMB)
	w.OmitFloat(`,"arrival":`, o.Arrival)
	w.Raw(`,"stripe":`)
	w.Int(o.Stripe)
	w.OmitBool(`,"mig":`, o.Mig)
	w.OmitBool(`,"rerouted":`, o.Rerouted)
	if o.Done != nil {
		w.Raw(`,"done":`)
		o.Done.writeJSON(w)
	}
	// The embedded stampState's fields are promoted into the op's object.
	w.OmitFloat(`,"enq_t":`, o.EnqT)
	w.OmitFloat(`,"spin_base":`, o.SpinBase)
	w.OmitFloat(`,"wait_spin":`, o.WaitSpin)
	w.OmitFloat(`,"svc_dur":`, o.SvcDur)
	w.Raw(`}`)
}

// writeOps writes a non-empty op list under key.
func writeOps(w *checkpoint.Writer, key string, ops []opState) {
	if len(ops) == 0 {
		return
	}
	w.Raw(key)
	w.Raw(`[`)
	for i := range ops {
		if i > 0 {
			w.Raw(`,`)
		}
		ops[i].writeJSON(w)
	}
	w.Raw(`]`)
}

func (s *stripeState) writeJSON(w *checkpoint.Writer) {
	w.Raw(`{"file_id":`)
	w.Int(s.FileID)
	w.Raw(`,"arrival":`)
	w.Float(s.Arrival)
	w.Raw(`,"remaining":`)
	w.Int(s.Remaining)
	w.OmitBool(`,"lost":`, s.Lost)
	if s.Done != nil {
		w.Raw(`,"done":`)
		s.Done.writeJSON(w)
	}
	w.Raw(`}`)
}

func (se *savedEvent) writeJSON(w *checkpoint.Writer) {
	w.Raw(`{"time":`)
	w.Float(se.Time)
	w.OmitUint(`,"seq":`, se.Seq)
	w.Raw(`,"kind":`)
	w.String(se.Kind)
	w.OmitInt(`,"disk":`, se.Disk)
	w.OmitUint(`,"gen":`, se.Gen)
	w.OmitFloat(`,"deadline":`, se.Deadline)
	w.OmitFloat(`,"timeout":`, se.Timeout)
	w.OmitFloat(`,"last_energy":`, se.LastEnergy)
	w.OmitFloat(`,"remaining_mb":`, se.RemainingMB)
	w.OmitInt(`,"file_id":`, se.FileID)
	w.OmitInt(`,"from":`, se.From)
	w.OmitInt(`,"to":`, se.To)
	w.OmitFloat(`,"size_mb":`, se.SizeMB)
	if se.Op != nil {
		w.Raw(`,"op":`)
		se.Op.writeJSON(w)
	}
	w.Raw(`}`)
}

func (d *diskCkptState) writeJSON(w *checkpoint.Writer) {
	w.Raw(`{"disk":`)
	d.Disk.WriteJSON(w)
	w.Raw(`,"temp":`)
	d.Temp.WriteJSON(w)
	if d.Pending != nil {
		w.Raw(`,"pending":`)
		w.Int(int(*d.Pending))
	}
	w.OmitFloat(`,"idle_timeout":`, d.IdleTimeout)
	w.OmitBool(`,"idle_armed":`, d.IdleArmed)
	w.OmitBool(`,"failed":`, d.Failed)
	w.OmitBool(`,"spare_assigned":`, d.SpareAssigned)
	w.OmitBool(`,"rebuilding":`, d.Rebuilding)
	w.OmitFloat(`,"rebuild_mbps":`, d.RebuildMBps)
	w.OmitUint(`,"gen":`, d.Gen)
	w.OmitFloat(`,"trans_busy":`, d.TransBusy)
	w.OmitFloat(`,"trans_start":`, d.TransStart)
	writeOps(w, `,"fg":`, d.FG)
	writeOps(w, `,"bg":`, d.BG)
	w.Raw(`}`)
}

func (f *faultCkptState) writeJSON(w *checkpoint.Writer) {
	w.Raw(`{"injector":`)
	f.Injector.WriteJSON(w)
	w.Raw(`,"spares":`)
	w.Int(f.Spares)
	w.Raw(`,"spares_used":`)
	w.Int(f.SparesUsed)
	w.Raw(`,"failures":`)
	w.Int(f.Failures)
	w.Raw(`,"repairs":`)
	w.Int(f.Repairs)
	w.Raw(`,"data_loss":`)
	w.Int(f.DataLoss)
	w.Raw(`,"first_loss":`)
	w.Float(f.FirstLoss)
	w.Raw(`,"lost_requests":`)
	w.Int(f.LostRequests)
	w.Raw(`,"degraded":`)
	w.Int(f.Degraded)
	w.Raw(`,"reassigned":`)
	w.Int(f.Reassigned)
	w.Raw(`,"rebuild_mb":`)
	w.Float(f.RebuildMB)
	w.Raw(`,"rebuild_energy_j":`)
	w.Float(f.RebuildEnergyJ)
	w.OmitInt(`,"lse_cleared":`, f.LSECleared)
	w.OmitInt(`,"scrubs":`, f.Scrubs)
	w.OmitFloat(`,"scrub_mb":`, f.ScrubMB)
	if r := f.RAID; r != nil {
		w.Raw(`,"raid":{"losses":`)
		w.Int(r.Losses)
		w.OmitInt(`,"lse_losses":`, r.LSELosses)
		w.OmitInt(`,"overlap_losses":`, r.OverlapLosses)
		w.Raw(`,"first_loss":`)
		w.Float(r.FirstLoss)
		if len(r.Log) > 0 {
			w.Raw(`,"log":[`)
			for i, ev := range r.Log {
				if i > 0 {
					w.Raw(`,`)
				}
				w.Raw(`{"time":`)
				w.Float(ev.Time)
				w.Raw(`,"group":`)
				w.Int(ev.Group)
				w.Raw(`,"disk":`)
				w.Int(ev.Disk)
				w.Raw(`,"kind":`)
				w.String(ev.Kind)
				w.Raw(`}`)
			}
			w.Raw(`]`)
		}
		w.Raw(`}`)
	}
	if len(f.Log) > 0 {
		w.Raw(`,"log":[`)
		for i, ev := range f.Log {
			if i > 0 {
				w.Raw(`,`)
			}
			w.Raw(`{"Disk":`)
			w.Int(ev.Disk)
			w.Raw(`,"Time":`)
			w.Float(ev.Time)
			w.Raw(`,"SpareUsed":`)
			w.Bool(ev.SpareUsed)
			w.Raw(`,"DataLoss":`)
			w.Bool(ev.DataLoss)
			w.Raw(`}`)
		}
		w.Raw(`]`)
	}
	w.Raw(`}`)
}

func (s *Sample) writeJSON(w *checkpoint.Writer) {
	w.Raw(`{"T":`)
	w.Float(s.T)
	w.Raw(`,"PowerW":`)
	w.Float(s.PowerW)
	w.Raw(`,"HighDisks":`)
	w.Int(s.HighDisks)
	w.Raw(`,"Queued":`)
	w.Int(s.Queued)
	w.Raw(`,"InService":`)
	w.Int(s.InService)
	w.Raw(`,"Completed":`)
	w.Uint(s.Completed)
	w.Raw(`}`)
}

package cluster

// Checkpoint/restore for a fleet. A fleet snapshot embeds one complete
// member payload per array (the same JSON a standalone array checkpoint
// carries, with per-event engine sequence numbers recorded) plus the
// router's own state: request table, counters, latency histogram, shock
// depths, pending router events, and the decision log. Restoring rebuilds
// every owner of the shared engine, merge-sorts ALL saved pending events —
// router and members together — by their original engine sequence number,
// and re-schedules them in that global order between BeginRestore and
// FinishRestore, so same-instant FIFO ties break exactly as in the original
// run and the resumed fleet is bit-identical, not merely close.

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/array"
	"repro/internal/checkpoint"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// reqCkptState is the serializable form of a reqState, keyed by request ID.
//
//simlint:checkpoint-for reqState
type reqCkptState struct {
	ID          uint64  `json:"id"`
	File        int     `json:"file"`
	Arrival     float64 `json:"arrival"`
	Attempts    int     `json:"attempts"`
	Outstanding int     `json:"outstanding,omitempty"`
	Pending     uint64  `json:"pending,omitempty"`
	Hedge       int     `json:"hedge,omitempty"`
	RetryQueued bool    `json:"retry_queued,omitempty"`
	Done        bool    `json:"done,omitempty"`
	Last        int     `json:"last"`
}

// savedRouterEvent is one pending router event: absolute fire time, original
// engine sequence number, and the routerRecord payload.
//
//simlint:checkpoint-for routerRecord
type savedRouterEvent struct {
	Time    float64 `json:"time"`
	Seq     uint64  `json:"seq"`
	Kind    string  `json:"kind"`
	Req     uint64  `json:"req,omitempty"`
	Attempt int     `json:"attempt,omitempty"`
	Rack    int     `json:"rack,omitempty"`
	Shock   int     `json:"shock,omitempty"`
	Cause   string  `json:"cause,omitempty"`
}

// clusterState is the fleet checkpoint payload. Ignored clusterSim fields
// are re-derived on restore: cfg and traceEnd come from the caller's config,
// eng is reconstructed and carried as Clock/Seq/Fired, members and racks are
// rebuilt (member state travels in Members), failure aborts a run before
// a checkpoint could be written, and recs — the pending router events'
// records — travels inside Events and is refilled as restore re-schedules
// them. freeReqs holds only settled request states and healthy is a
// buffer reused by every attempt; neither carries state between events.
// ckptSize, the last snapshot's length, only sizes the next snapshot's
// buffer.
//
//simlint:checkpoint-for clusterSim ignore=cfg,eng,members,racks,traceEnd,failure,recs,freeReqs,healthy,ckptSize
type clusterState struct {
	Clock float64 `json:"clock"`
	Seq   uint64  `json:"seq"`
	Fired uint64  `json:"fired"`

	Delivered  int   `json:"delivered"`
	Retries    int   `json:"retries,omitempty"`
	Hedges     int   `json:"hedges,omitempty"`
	HedgeWins  int   `json:"hedge_wins,omitempty"`
	Failovers  int   `json:"failovers,omitempty"`
	Timeouts   int   `json:"timeouts,omitempty"`
	Deferred   int   `json:"deferred,omitempty"`
	Duplicates int   `json:"duplicates,omitempty"`
	Shed       int   `json:"shed,omitempty"`
	Failed     int   `json:"failed,omitempty"`
	Shocks     int   `json:"shocks,omitempty"`
	ShockDepth []int `json:"shock_depth"`

	Reqs   []reqCkptState              `json:"reqs,omitempty"`
	Events []savedRouterEvent          `json:"events,omitempty"`
	Hist   stats.LatencyHistogramState `json:"hist"`

	// Members holds each array's standalone checkpoint payload, in index
	// order. A snapshot writes the payloads in place (appendJSON), so only
	// a decoded state fills Members.
	Members []json.RawMessage `json:"members"`

	// Decisions carries the fleet decision log when tracing is on.
	Decisions *telemetry.DecisionLogState `json:"decisions,omitempty"`
}

// buildState serializes the fleet state, all but the members' payloads,
// which appendJSON writes in place.
func (c *clusterSim) buildState() *clusterState {
	st := &clusterState{
		Clock:      c.eng.Now(),
		Seq:        c.eng.Seq(),
		Fired:      c.eng.Fired(),
		Delivered:  c.delivered,
		Retries:    c.retries,
		Hedges:     c.hedges,
		HedgeWins:  c.hedgeWins,
		Failovers:  c.failovers,
		Timeouts:   c.timeouts,
		Deferred:   c.deferred,
		Duplicates: c.duplicates,
		Shed:       c.shed,
		Failed:     c.failed,
		Shocks:     c.shocks,
		ShockDepth: append([]int(nil), c.shockDepth...),
		Hist:       c.hist.State(),
	}

	ids := make([]uint64, 0, len(c.reqs))
	for id := range c.reqs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r := c.reqs[id]
		st.Reqs = append(st.Reqs, reqCkptState{
			ID: id, File: r.file, Arrival: r.arrival,
			Attempts: r.attempts, Outstanding: r.outstanding, Pending: r.pending,
			Hedge: r.hedge, RetryQueued: r.retryQueued, Done: r.done, Last: r.last,
		})
	}

	// Pending router events, in ascending engine sequence order. Events
	// owned by members are saved inside their own payloads.
	for _, pe := range c.eng.PendingEvents() {
		if pe.Owner != c {
			continue
		}
		rec := c.recs.Get(pe.Slot)
		st.Events = append(st.Events, savedRouterEvent{
			Time: pe.Time, Seq: pe.Seq,
			Kind: rec.Kind.String(), Req: rec.Req, Attempt: rec.Attempt,
			Rack: rec.Rack, Shock: rec.Shock, Cause: rec.Cause,
		})
	}

	if log := c.decisions(); log != nil {
		s := log.State()
		st.Decisions = &s
	}
	return st
}

// appendJSON appends the payload's encoding to dst, in the exact bytes
// encoding/json writes for st with Members set to the members' payloads:
// each member appends its own payload in place.
func (st *clusterState) appendJSON(dst []byte, members []*array.Member) ([]byte, error) {
	w := checkpoint.NewWriter(dst)
	w.Raw(`{"clock":`)
	w.Float(st.Clock)
	w.Raw(`,"seq":`)
	w.Uint(st.Seq)
	w.Raw(`,"fired":`)
	w.Uint(st.Fired)
	w.Raw(`,"delivered":`)
	w.Int(st.Delivered)
	w.OmitInt(`,"retries":`, st.Retries)
	w.OmitInt(`,"hedges":`, st.Hedges)
	w.OmitInt(`,"hedge_wins":`, st.HedgeWins)
	w.OmitInt(`,"failovers":`, st.Failovers)
	w.OmitInt(`,"timeouts":`, st.Timeouts)
	w.OmitInt(`,"deferred":`, st.Deferred)
	w.OmitInt(`,"duplicates":`, st.Duplicates)
	w.OmitInt(`,"shed":`, st.Shed)
	w.OmitInt(`,"failed":`, st.Failed)
	w.OmitInt(`,"shocks":`, st.Shocks)
	w.Raw(`,"shock_depth":`)
	w.Ints(st.ShockDepth)
	if len(st.Reqs) > 0 {
		w.Raw(`,"reqs":[`)
		for i := range st.Reqs {
			if i > 0 {
				w.Raw(`,`)
			}
			r := &st.Reqs[i]
			w.Raw(`{"id":`)
			w.Uint(r.ID)
			w.Raw(`,"file":`)
			w.Int(r.File)
			w.Raw(`,"arrival":`)
			w.Float(r.Arrival)
			w.Raw(`,"attempts":`)
			w.Int(r.Attempts)
			w.OmitInt(`,"outstanding":`, r.Outstanding)
			w.OmitUint(`,"pending":`, r.Pending)
			w.OmitInt(`,"hedge":`, r.Hedge)
			w.OmitBool(`,"retry_queued":`, r.RetryQueued)
			w.OmitBool(`,"done":`, r.Done)
			w.Raw(`,"last":`)
			w.Int(r.Last)
			w.Raw(`}`)
		}
		w.Raw(`]`)
	}
	if len(st.Events) > 0 {
		w.Raw(`,"events":[`)
		for i := range st.Events {
			if i > 0 {
				w.Raw(`,`)
			}
			se := &st.Events[i]
			w.Raw(`{"time":`)
			w.Float(se.Time)
			w.Raw(`,"seq":`)
			w.Uint(se.Seq)
			w.Raw(`,"kind":`)
			w.String(se.Kind)
			w.OmitUint(`,"req":`, se.Req)
			w.OmitInt(`,"attempt":`, se.Attempt)
			w.OmitInt(`,"rack":`, se.Rack)
			w.OmitInt(`,"shock":`, se.Shock)
			w.OmitString(`,"cause":`, se.Cause)
			w.Raw(`}`)
		}
		w.Raw(`]`)
	}
	w.Raw(`,"hist":`)
	st.Hist.WriteJSON(&w)
	w.Raw(`,"members":`)
	if members == nil {
		w.Raw(`null`)
	} else {
		w.Raw(`[`)
		b, err := w.Bytes()
		if err != nil {
			return nil, err
		}
		for i, m := range members {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = m.AppendCheckpointState(b); err != nil {
				return nil, fmt.Errorf("cluster: array %d: %w", i, err)
			}
		}
		w = checkpoint.NewWriter(append(b, ']'))
	}
	// Decision tracing is off by default; its log keeps encoding/json.
	if st.Decisions != nil {
		w.Raw(`,"decisions":`)
		w.Marshal(st.Decisions)
	}
	w.Raw(`}`)
	return w.Bytes()
}

// writeCheckpoint snapshots the fleet into its envelope and commits it to
// the configured sink or path (atomically). As in the array, the buffer is
// sized from the last snapshot and never reused.
func (c *clusterSim) writeCheckpoint() error {
	st := c.buildState()
	spec := c.cfg.Checkpoint
	data, err := checkpoint.Marshal(&checkpoint.Envelope{
		Version:      checkpoint.Version,
		Tool:         spec.Tool,
		ConfigDigest: spec.ConfigDigest,
		SimTime:      c.eng.Now(),
		EventsFired:  c.eng.Fired(),
	}, c.ckptSize+c.ckptSize/8, func(dst []byte) ([]byte, error) {
		return st.appendJSON(dst, c.members)
	})
	if err != nil {
		return err
	}
	c.ckptSize = len(data)
	if spec.Sink != nil {
		return spec.Sink(data)
	}
	return checkpoint.WriteFile(spec.Path, data)
}

// onCheckpointTick snapshots the fleet. The next tick is scheduled BEFORE
// the snapshot so the saved pending set includes it, keeping the resumed
// run's cadence identical to the original's.
func (c *clusterSim) onCheckpointTick(now float64) {
	if c.failure != nil || c.cfg.Checkpoint == nil {
		return
	}
	if c.FleetWorkRemains() {
		c.rat(now+c.cfg.Checkpoint.EverySimSeconds, routerRecord{Kind: revCheckpoint})
	}
	if err := c.writeCheckpoint(); err != nil {
		c.fail(fmt.Errorf("cluster: checkpoint: %w", err))
	}
}

// mergeEvent is one saved pending event from any owner of the shared engine,
// tagged with its original sequence number for the global re-schedule order.
type mergeEvent struct {
	seq      uint64
	schedule func() error
	desc     string
}

// Resume reconstructs a fleet from a checkpoint payload produced under the
// same configuration and runs it to completion. As with array.Resume, member
// policies must be freshly constructed instances of the original
// configuration; their saved states are loaded, never re-Init'ed.
func Resume(cfg Config, stateJSON []byte) (*Result, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var st clusterState
	if err := json.Unmarshal(stateJSON, &st); err != nil {
		return nil, fmt.Errorf("cluster: resume: parse state: %w", err)
	}
	kinds := make([]revKind, len(st.Events))
	for i, se := range st.Events {
		k, err := parseRevKind(se.Kind)
		if err != nil {
			return nil, fmt.Errorf("cluster: resume: %w", err)
		}
		if k == revCheckpoint && cfg.Checkpoint == nil {
			return nil, fmt.Errorf("cluster: resume: snapshot has pending checkpoint ticks; set Config.Checkpoint to the original interval")
		}
		kinds[i] = k
	}
	if len(st.Members) != cfg.Arrays {
		return nil, fmt.Errorf("cluster: resume: checkpoint has %d arrays, config has %d", len(st.Members), cfg.Arrays)
	}
	c, err := newClusterSim(&cfg)
	if err != nil {
		return nil, err
	}
	if len(st.ShockDepth) != cfg.Topology.Racks {
		return nil, fmt.Errorf("cluster: resume: checkpoint has %d racks, config has %d", len(st.ShockDepth), cfg.Topology.Racks)
	}

	c.delivered = st.Delivered
	c.retries = st.Retries
	c.hedges = st.Hedges
	c.hedgeWins = st.HedgeWins
	c.failovers = st.Failovers
	c.timeouts = st.Timeouts
	c.deferred = st.Deferred
	c.duplicates = st.Duplicates
	c.shed = st.Shed
	c.failed = st.Failed
	c.shocks = st.Shocks
	copy(c.shockDepth, st.ShockDepth)
	if err := c.hist.SetState(st.Hist); err != nil {
		return nil, fmt.Errorf("cluster: resume: %w", err)
	}
	for _, r := range st.Reqs {
		c.reqs[r.ID] = &reqState{
			file: r.File, arrival: r.Arrival,
			attempts: r.Attempts, outstanding: r.Outstanding, pending: r.Pending,
			hedge: r.Hedge, retryQueued: r.RetryQueued, done: r.Done, last: r.Last,
		}
	}
	if st.Decisions != nil {
		if log := c.decisions(); log != nil {
			log.SetState(*st.Decisions)
		}
	}

	// Rebuild every owner of the shared engine, collecting their saved
	// pending events WITHOUT scheduling, then merge the union by original
	// sequence number.
	var merged []mergeEvent
	for i := range st.Members {
		mc, err := cfg.memberConfig(i)
		if err != nil {
			return nil, err
		}
		m, evs, err := array.ResumeMember(mc, c.eng, c, st.Members[i])
		if err != nil {
			return nil, fmt.Errorf("cluster: resume: array %d: %w", i, err)
		}
		c.members = append(c.members, m)
		for _, re := range evs {
			merged = append(merged, mergeEvent{seq: re.Seq, schedule: re.Schedule,
				desc: fmt.Sprintf("array %d event seq %d", i, re.Seq)})
		}
	}
	for i, se := range st.Events {
		se := se
		rec := routerRecord{Kind: kinds[i], Req: se.Req, Attempt: se.Attempt,
			Rack: se.Rack, Shock: se.Shock, Cause: se.Cause}
		merged = append(merged, mergeEvent{seq: se.Seq,
			schedule: func() error { return c.ratErr(se.Time, rec) },
			desc:     fmt.Sprintf("router %s seq %d", se.Kind, se.Seq)})
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].seq < merged[j].seq })

	if err := c.eng.BeginRestore(st.Clock); err != nil {
		return nil, fmt.Errorf("cluster: resume: %w", err)
	}
	for _, me := range merged {
		if err := me.schedule(); err != nil {
			return nil, fmt.Errorf("cluster: resume: re-schedule %s: %w", me.desc, err)
		}
	}
	if err := c.eng.FinishRestore(st.Seq, st.Fired); err != nil {
		return nil, fmt.Errorf("cluster: resume: %w", err)
	}
	return c.finish()
}

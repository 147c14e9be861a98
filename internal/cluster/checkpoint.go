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
	"math/bits"
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

// validate reports why st cannot be restored under cfg, whose defaults are
// set and which passed Validate; otherwise it returns the members' payloads,
// decoded and validated by array.DecodeMember. Like the array's validate it
// runs before anything is rebuilt and owns the whole rule: the router's
// invariants (see router.go) and their agreement with the attempts the
// members hold in flight. A router event whose request has settled is a
// legitimate stale no-op and is not checked against the request table.
func (st *clusterState) validate(cfg *Config) ([]*array.MemberSnapshot, error) {
	if len(st.Members) != cfg.Arrays {
		return nil, fmt.Errorf("checkpoint has %d arrays, config has %d", len(st.Members), cfg.Arrays)
	}
	racks := cfg.Topology.Racks
	if len(st.ShockDepth) != racks {
		return nil, fmt.Errorf("checkpoint has %d racks, config has %d", len(st.ShockDepth), racks)
	}
	for r, d := range st.ShockDepth {
		if d < 0 {
			return nil, fmt.Errorf("rack %d: negative shock depth %d", r, d)
		}
	}
	requests := len(cfg.Trace.Requests)
	if st.Delivered < 0 || st.Delivered > requests {
		return nil, fmt.Errorf("delivered %d outside [0, %d]", st.Delivered, requests)
	}
	if err := st.Hist.Validate(histLoExp, histHiExp, histPerDecade); err != nil {
		return nil, err
	}

	files := make(map[int]bool, len(cfg.Trace.Files))
	for _, f := range cfg.Trace.Files {
		files[f.ID] = true
	}
	// inFlight holds each live request's attempts in flight that no
	// member has yet been found to hold.
	inFlight := make(map[uint64]uint64, len(st.Reqs))
	for i := range st.Reqs {
		r := &st.Reqs[i]
		_, dup := inFlight[r.ID]
		switch {
		case r.ID < 1 || r.ID > uint64(st.Delivered):
			return nil, fmt.Errorf("request %d outside the %d delivered", r.ID, st.Delivered)
		case dup:
			return nil, fmt.Errorf("request %d saved twice", r.ID)
		case !files[r.File]:
			return nil, fmt.Errorf("request %d: unknown file %d", r.ID, r.File)
		case r.Last < -1 || r.Last >= cfg.Arrays:
			return nil, fmt.Errorf("request %d: last array %d outside [-1, %d)", r.ID, r.Last, cfg.Arrays)
		case r.Attempts < 0 || r.Attempts > cfg.MaxAttempts:
			return nil, fmt.Errorf("request %d: %d attempts outside [0, %d]", r.ID, r.Attempts, cfg.MaxAttempts)
		case r.Hedge < 0 || r.Hedge > r.Attempts:
			return nil, fmt.Errorf("request %d: hedge %d outside [0, %d]", r.ID, r.Hedge, r.Attempts)
		case r.Pending>>uint(r.Attempts) != 0:
			return nil, fmt.Errorf("request %d: attempt in flight past its %d attempts", r.ID, r.Attempts)
		case r.Outstanding != bits.OnesCount64(r.Pending):
			// issueAttempt and RequestDone change the two together.
			return nil, fmt.Errorf("request %d: %d outstanding but %d attempts pending", r.ID, r.Outstanding, bits.OnesCount64(r.Pending))
		case r.Outstanding == 0 && (r.Done || !r.RetryQueued):
			// A request settles once done and drained; a live one waits
			// for an attempt or a retry.
			return nil, fmt.Errorf("request %d can never settle", r.ID)
		}
		inFlight[r.ID] = r.Pending
	}

	// The arrival chain and a live request's retry keep the fleet running
	// until they fire, so each must fire no later than the router can have
	// scheduled it: the next arrival's trace time, or one capped backoff.
	arrivals := 0
	retries := make(map[uint64]int)
	ends := make([]int, racks)
	for i := range st.Events {
		se := &st.Events[i]
		if se.Time < st.Clock {
			return nil, fmt.Errorf("%s event at %v before the clock %v", se.Kind, se.Time, st.Clock)
		}
		switch kind := parseRevKind(se.Kind); kind {
		case numRevKinds:
			return nil, fmt.Errorf("unknown router event %q", se.Kind)
		case revCheckpoint:
			if cfg.Checkpoint == nil {
				return nil, fmt.Errorf("snapshot has pending checkpoint ticks; set Config.Checkpoint to the original interval")
			}
		case revArrival:
			arrivals++
			if se.Req != uint64(st.Delivered)+1 || st.Delivered == requests {
				return nil, fmt.Errorf("fleet-arrival event for request %d after %d of %d delivered", se.Req, st.Delivered, requests)
			}
			if latest := max(cfg.Trace.Requests[st.Delivered].Arrival, st.Clock); se.Time > latest {
				return nil, fmt.Errorf("fleet-arrival event at %v: due by %v at the latest", se.Time, latest)
			}
		case revRetry:
			if _, ok := inFlight[se.Req]; ok {
				retries[se.Req]++
				if latest := st.Clock + cfg.RetryCapSeconds*(1+cfg.RetryJitterFrac); se.Time > latest {
					return nil, fmt.Errorf("fleet-retry event at %v: due by %v at the latest", se.Time, latest)
				}
			}
		case revShockStart, revShockEnd:
			// Shock k of a rack starts only after its shocks 0..k-1 did.
			if se.Rack < 0 || se.Rack >= racks || se.Shock < 0 || se.Shock > st.Shocks {
				return nil, fmt.Errorf("%s event: rack %d outside [0, %d) or shock %d outside [0, %d]",
					se.Kind, se.Rack, racks, se.Shock, st.Shocks)
			}
			if kind == revShockEnd {
				ends[se.Rack]++
			}
		}
	}
	if want := min(requests-st.Delivered, 1); arrivals != want {
		return nil, fmt.Errorf("%d fleet-arrival events pending with %d requests to deliver", arrivals, requests-st.Delivered)
	}
	for r, d := range st.ShockDepth {
		if ends[r] != d {
			return nil, fmt.Errorf("rack %d: shock depth %d with %d shock-end events pending", r, d, ends[r])
		}
	}
	for _, r := range st.Reqs {
		if n := retries[r.ID]; n > 1 || (n == 1) != r.RetryQueued {
			return nil, fmt.Errorf("request %d: retry_queued %v with %d fleet-retry events pending", r.ID, r.RetryQueued, n)
		}
	}

	// Every attempt in flight is held by exactly one member.
	members := make([]*array.MemberSnapshot, cfg.Arrays)
	for i := range st.Members {
		mc, err := cfg.memberConfig(i)
		if err != nil {
			return nil, err
		}
		if members[i], err = array.DecodeMember(mc, st.Members[i]); err != nil {
			return nil, fmt.Errorf("array %d: %w", i, err)
		}
		for _, a := range members[i].FleetAttempts() {
			bit := uint64(1) << uint(a.Attempt-1)
			if a.Attempt < 1 || a.Attempt > 64 || inFlight[a.Req]&bit == 0 {
				return nil, fmt.Errorf("array %d holds attempt %d of request %d, which the router has not in flight", i, a.Attempt, a.Req)
			}
			inFlight[a.Req] &^= bit
		}
	}
	for _, r := range st.Reqs {
		if p := inFlight[r.ID]; p != 0 {
			return nil, fmt.Errorf("request %d: attempt %d is in flight on no array", r.ID, bits.TrailingZeros64(p)+1)
		}
	}
	return members, nil
}

// Resume reconstructs a fleet from a checkpoint payload produced under the
// same configuration and runs it to completion. As with array.Resume, member
// policies must be freshly constructed instances of the original
// configuration; their saved states are loaded, never re-Init'ed.
func Resume(cfg Config, stateJSON []byte) (*Result, error) {
	c, err := restore(cfg, stateJSON)
	if err != nil {
		return nil, err
	}
	return c.finish()
}

// decodeState parses a fleet checkpoint payload and validates it, members
// included, under cfg, whose defaults are set; nothing is rebuilt.
func decodeState(cfg *Config, stateJSON []byte) (*clusterState, []*array.MemberSnapshot, error) {
	st := new(clusterState)
	if err := json.Unmarshal(stateJSON, st); err != nil {
		return nil, nil, fmt.Errorf("cluster: resume: parse state: %w", err)
	}
	members, err := st.validate(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: resume: %w", err)
	}
	return st, members, nil
}

// restore is Resume up to running the restored fleet: it rebuilds every
// owner of the shared engine, collecting their saved pending events WITHOUT
// scheduling, then re-schedules the union in the original sequence order.
func restore(cfg Config, stateJSON []byte) (*clusterSim, error) {
	cfg.setDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st, members, err := decodeState(&cfg, stateJSON)
	if err != nil {
		return nil, err
	}
	c, err := newClusterSim(&cfg)
	if err != nil {
		return nil, err
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
	c.hist.SetState(st.Hist)
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

	var merged []mergeEvent
	for i, ms := range members {
		m, evs, err := ms.Restore(c.eng, c)
		if err != nil {
			return nil, fmt.Errorf("cluster: resume: array %d: %w", i, err)
		}
		c.members = append(c.members, m)
		for _, re := range evs {
			merged = append(merged, mergeEvent{seq: re.Seq, schedule: re.Schedule,
				desc: fmt.Sprintf("array %d event seq %d", i, re.Seq)})
		}
	}
	for _, se := range st.Events {
		rec := routerRecord{Kind: parseRevKind(se.Kind), Req: se.Req, Attempt: se.Attempt,
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
	return c, nil
}

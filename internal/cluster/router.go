package cluster

// The routing tier. The router owns the fleet's request stream: it replays
// the fleet trace as its own DES events, picks a replica for every attempt
// under the configured routing policy and health gate, and reacts to
// timeouts (retry with capped exponential backoff and seeded jitter),
// sustained silence (hedged attempts), and member data loss (failover).
//
// Every router action is a reified routerRecord event on the shared engine,
// kept in the router's slab exactly like the array simulator's records:
// records are plain data, so a checkpoint serializes the pending set and a
// resume rebuilds it. Events are never cancelled — a deadline, retry, or
// hedge that outlives its request fires and no-ops against the settled
// state — so no event IDs ever need to be persisted.

import (
	"fmt"

	"repro/internal/array"
	"repro/internal/des"
	"repro/internal/diskmodel"
	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// revKind is a router event record's kind.
type revKind uint8

const (
	revArrival revKind = iota
	revDeadline
	revRetry
	revHedge
	revShockStart
	revShockEnd
	revCheckpoint
	numRevKinds
)

// revKinds gives each kind its checkpoint wire name (savedRouterEvent.Kind),
// which is also its tracer label.
var revKinds = [numRevKinds]string{
	revArrival:    "fleet-arrival",
	revDeadline:   "fleet-deadline",
	revRetry:      "fleet-retry",
	revHedge:      "fleet-hedge",
	revShockStart: "shock-start",
	revShockEnd:   "shock-end",
	revCheckpoint: "fleet-checkpoint",
}

func (k revKind) String() string { return revKinds[k] }

// parseRevKind maps a checkpoint wire name back to its kind, or to
// numRevKinds when no kind has that name.
func parseRevKind(name string) revKind {
	for k, n := range revKinds {
		if n == name {
			return revKind(k)
		}
	}
	return numRevKinds
}

// Decision causes the router declares.
const (
	causeTimeout      = "timeout"
	causeBackpressure = "backpressure"
	causeSlow         = "p99-exceeded"
	causeDataLoss     = "data-loss"
	causeShock        = "domain-shock"
	causeRestore      = "shock-restore"
)

// Attempt kinds, for counters and decision records.
const (
	attemptFirst = iota
	attemptRetry
	attemptHedge
	attemptFailover
)

// routerRecord is the serializable description of one scheduled router
// event. One flat struct covers every kind; unused fields stay zero.
type routerRecord struct {
	Kind    revKind
	Req     uint64 // arrival: request ID to deliver; deadline/retry/hedge: subject
	Attempt int    // deadline/hedge: attempt watched; retry: attempt to issue
	Rack    int    // shocks: power domain hit
	Shock   int    // shocks: ordinal within the domain
	Cause   string // retry: declared cause (timeout or backpressure)
}

// reqState tracks one fleet request from arrival to settlement. A request is
// settled (and its state recycled) when it is done — served, failed, or shed
// — AND no attempt remains in flight on any member; until then late
// completions must still be attributable.
type reqState struct {
	file        int
	arrival     float64
	attempts    int    // attempts issued so far
	outstanding int    // attempts in flight on members
	pending     uint64 // bitmask of in-flight attempt ordinals
	hedge       int    // attempt ordinal issued as a hedge (0: none)
	retryQueued bool   // a fleet-retry event is pending
	done        bool
	last        int // array the newest attempt went to (-1 before the first)
}

// clusterSim is the fleet run: the shared engine, the members, and the
// router state machine. It implements array.Host.
type clusterSim struct {
	cfg     *Config
	eng     *des.Engine
	members []*array.Member
	racks   [][]int // arrays per rack, in index order

	reqs map[uint64]*reqState
	// freeReqs holds settled request states for reuse by the next arrival.
	freeReqs []*reqState
	// healthy is eligible's result buffer, reused by every attempt; pick
	// reads it before Submit, and nothing holds it after.
	healthy []int
	// recs holds the records of the router's pending events, indexed by
	// the slot each was posted with.
	recs des.Slab[routerRecord]

	// hist is the fleet latency distribution: arrival to FIRST successful
	// completion, across retries and hedges.
	hist *stats.LatencyHistogram

	delivered  int // fleet arrivals delivered
	retries    int
	hedges     int
	hedgeWins  int
	failovers  int
	timeouts   int
	deferred   int
	duplicates int
	shed       int
	failed     int
	shocks     int
	shockDepth []int // nested outage count per rack

	traceEnd float64 // last fleet arrival time; bounds the shock chains
	failure  error
	ckptSize int // last snapshot's length; sizes the next one's buffer
}

func newClusterSim(cfg *Config) (*clusterSim, error) {
	hist, err := newFleetHist()
	if err != nil {
		return nil, err
	}
	c := &clusterSim{
		cfg:        cfg,
		eng:        des.New(),
		reqs:       make(map[uint64]*reqState),
		healthy:    make([]int, 0, cfg.Replicas),
		hist:       hist,
		shockDepth: make([]int, cfg.Topology.Racks),
		racks:      make([][]int, cfg.Topology.Racks),
	}
	for i := 0; i < cfg.Arrays; i++ {
		r := cfg.Topology.RackOf(i)
		c.racks[r] = append(c.racks[r], i)
	}
	if n := len(cfg.Trace.Requests); n > 0 {
		c.traceEnd = cfg.Trace.Requests[n-1].Arrival
	}
	if cfg.Telemetry != nil {
		if tr := cfg.Telemetry.Tracer(); tr != nil {
			c.eng.SetTracer(tr)
		}
	}
	c.eng.SetWatch(cfg.Watch)
	return c, nil
}

// start builds the members in index order (construction order is scheduling
// order — see the package comment) and arms the router's own event chains.
func (c *clusterSim) start() error {
	for i := 0; i < c.cfg.Arrays; i++ {
		mc, err := c.cfg.memberConfig(i)
		if err != nil {
			return err
		}
		var first func() error
		if i == 0 && len(c.cfg.Trace.Requests) > 0 {
			// Slot the fleet arrival chain exactly where a standalone run
			// schedules its first trace arrival, so a fleet of one keeps the
			// standalone event sequence.
			first = func() error {
				return c.ratErr(c.cfg.Trace.Requests[0].Arrival, routerRecord{Kind: revArrival, Req: 1})
			}
		}
		m, err := array.NewMember(mc, c.eng, c, first)
		if err != nil {
			return fmt.Errorf("cluster: array %d: %w", i, err)
		}
		c.members = append(c.members, m)
	}
	if c.cfg.Shocks.Active() {
		for r := 0; r < c.cfg.Topology.Racks; r++ {
			if sh := c.cfg.Shocks.ShockAt(r, 0); sh.Start <= c.traceEnd {
				c.rat(sh.Start, routerRecord{Kind: revShockStart, Rack: r})
			}
		}
	}
	if c.cfg.Checkpoint != nil {
		c.rat(c.cfg.Checkpoint.EverySimSeconds, routerRecord{Kind: revCheckpoint})
	}
	return c.failure
}

// fail records the first fatal error and stops the engine.
func (c *clusterSim) fail(err error) {
	if c.failure == nil {
		c.failure = err
		c.eng.Stop()
	}
}

// ratErr schedules rec at absolute time t. The record goes into the
// router's slab and the engine carries only its slot, so a router event
// allocates nothing in steady state.
//
//simlint:hotpath
func (c *clusterSim) ratErr(t float64, rec routerRecord) error {
	slot := c.recs.Put(rec)
	if err := c.eng.Post(t, revKinds[rec.Kind], c, slot); err != nil {
		c.recs.Take(slot)
		return err
	}
	return nil
}

// Fire is the router's side of des.Owner: it runs the record posted with
// slot.
//
//simlint:hotpath
func (c *clusterSim) Fire(e *des.Engine, slot uint32) {
	c.dispatch(c.recs.Take(slot), e)
}

// rat is ratErr with scheduling errors routed to fail.
func (c *clusterSim) rat(t float64, rec routerRecord) {
	if err := c.ratErr(t, rec); err != nil {
		c.fail(err)
	}
}

// dispatch runs the handler for one fired router record.
//
//simlint:hotpath
func (c *clusterSim) dispatch(rec routerRecord, e *des.Engine) {
	if c.failure != nil {
		return
	}
	now := e.Now()
	switch rec.Kind {
	case revArrival:
		c.onFleetArrival(rec, now)
	case revDeadline:
		c.onDeadline(rec, now)
	case revRetry:
		c.onRetry(rec, now)
	case revHedge:
		c.onHedge(rec, now)
	case revShockStart:
		c.onShockStart(rec)
	case revShockEnd:
		c.onShockEnd(rec)
	case revCheckpoint:
		c.onCheckpointTick(now)
	default:
		c.fail(fmt.Errorf("cluster: unknown router event kind %d", rec.Kind)) //simlint:allow hotalloc -- unreachable: every revKind has a case; a new kind without one fails the run once
	}
}

// --- array.Host ---

// ArrivalsRemain reports whether undelivered fleet arrivals remain.
func (c *clusterSim) ArrivalsRemain() bool {
	return c.delivered < len(c.cfg.Trace.Requests)
}

// FleetWorkRemains reports whether any fleet activity is still possible.
func (c *clusterSim) FleetWorkRemains() bool {
	if c.ArrivalsRemain() || len(c.reqs) > 0 {
		return true
	}
	for _, m := range c.members {
		if m.Busy() {
			return true
		}
	}
	return false
}

// RequestDone is the member-side resolution of one attempt.
func (c *clusterSim) RequestDone(id uint64, attempt int, now float64, lost bool) {
	st := c.reqs[id]
	if st == nil {
		// The request settled and was dropped; this is a stray completion
		// (cannot normally happen — settlement waits for outstanding == 0).
		c.duplicates++
		return
	}
	if bit := uint64(1) << uint(attempt-1); st.pending&bit != 0 {
		st.pending &^= bit
		st.outstanding--
	}
	switch {
	case st.done:
		// A late completion for an already-served request (the hedge lost
		// the race, or a timed-out attempt finally landed).
		c.duplicates++
		c.settle(id, st)
	case !lost:
		st.done = true
		c.hist.Add(now - st.arrival)
		if st.hedge != 0 && attempt == st.hedge {
			c.hedgeWins++
		}
		c.settle(id, st)
	default:
		// The attempt's data was unrecoverable on its array. Fail over to a
		// replica immediately if an attempt slot remains; the member has
		// declared data loss, so the health gate ejects it from routing.
		if st.attempts < c.cfg.MaxAttempts && !st.retryQueued {
			c.issueAttempt(id, st.attempts+1, attemptFailover, causeDataLoss, now)
		} else if st.outstanding == 0 && !st.retryQueued {
			c.failRequest(id, st)
		}
	}
	c.publishLive()
}

// --- request lifecycle ---

func (c *clusterSim) onFleetArrival(rec routerRecord, now float64) {
	reqs := c.cfg.Trace.Requests
	idx := int(rec.Req) - 1
	if idx < 0 || idx >= len(reqs) {
		c.fail(fmt.Errorf("cluster: arrival for request %d of %d", rec.Req, len(reqs)))
		return
	}
	r := reqs[idx]
	c.delivered++
	if idx+1 < len(reqs) {
		next := reqs[idx+1].Arrival
		if next < now {
			next = now
		}
		c.rat(next, routerRecord{Kind: revArrival, Req: rec.Req + 1})
	}
	st := c.newReq(reqState{file: r.FileID, arrival: r.Arrival, last: -1})
	c.reqs[rec.Req] = st
	c.issueAttempt(rec.Req, 1, attemptFirst, "", now)
	c.publishLive()
}

// issueAttempt routes one attempt (first, retry, hedge, or failover) of a
// live request, or defers/fails it when no replica is eligible.
func (c *clusterSim) issueAttempt(id uint64, attempt int, kind int, cause string, now float64) {
	st := c.reqs[id]
	if st == nil || st.done || attempt > c.cfg.MaxAttempts || attempt <= st.attempts {
		return
	}
	healthy, draining := c.eligible(st.file)
	if len(healthy) == 0 {
		st.attempts = attempt
		if draining > 0 {
			// Backpressure: every replica is draining. The attempt is
			// deferred — it consumes its slot and the request retries after
			// backoff instead of queueing on a saturated array.
			c.deferred++
			if attempt < c.cfg.MaxAttempts && !st.retryQueued {
				st.retryQueued = true
				c.rat(now+c.backoff(id, attempt),
					routerRecord{Kind: revRetry, Req: id, Attempt: attempt + 1, Cause: causeBackpressure})
			} else if st.outstanding == 0 && !st.retryQueued {
				c.failRequest(id, st)
			}
			return
		}
		// Every replica is ejected: nothing can ever serve this request.
		if kind == attemptFirst {
			c.shed++
			st.done = true
			c.settle(id, st)
		} else if st.outstanding == 0 && !st.retryQueued {
			c.failRequest(id, st)
		}
		return
	}
	target := c.pick(healthy, id, attempt)
	switch kind {
	case attemptRetry:
		c.retries++
		c.decide(telemetry.DecisionRetry, cause, st, target, now)
	case attemptHedge:
		c.hedges++
		st.hedge = attempt
		c.decide(telemetry.DecisionHedge, cause, st, target, now)
	case attemptFailover:
		c.failovers++
		c.decide(telemetry.DecisionFailover, cause, st, target, now)
	}
	st.attempts = attempt
	st.pending |= uint64(1) << uint(attempt-1)
	st.outstanding++
	arrival := now
	if kind == attemptFirst {
		// The member's own latency stats use the fleet arrival time for
		// first attempts, matching a standalone run.
		arrival = st.arrival
	}
	c.members[target].Submit(id, attempt, st.file, arrival)
	st.last = target
	if c.cfg.DeadlineSeconds > 0 {
		c.rat(now+c.cfg.DeadlineSeconds, routerRecord{Kind: revDeadline, Req: id, Attempt: attempt})
	}
	if c.cfg.HedgeAfterP99Mult > 0 && kind != attemptHedge && attempt < c.cfg.MaxAttempts && c.cfg.Replicas > 1 {
		c.rat(now+c.hedgeDelay(), routerRecord{Kind: revHedge, Req: id, Attempt: attempt})
	}
}

func (c *clusterSim) onDeadline(rec routerRecord, now float64) {
	st := c.reqs[rec.Req]
	if st == nil || st.done {
		return
	}
	if st.pending&(uint64(1)<<uint(rec.Attempt-1)) == 0 {
		return // the attempt completed before its deadline
	}
	c.timeouts++
	if st.attempts < c.cfg.MaxAttempts && !st.retryQueued {
		st.retryQueued = true
		c.rat(now+c.backoff(rec.Req, st.attempts),
			routerRecord{Kind: revRetry, Req: rec.Req, Attempt: st.attempts + 1, Cause: causeTimeout})
	}
	c.publishLive()
}

func (c *clusterSim) onRetry(rec routerRecord, now float64) {
	st := c.reqs[rec.Req]
	if st == nil {
		return
	}
	st.retryQueued = false
	if st.done {
		c.settle(rec.Req, st)
		return
	}
	c.issueAttempt(rec.Req, rec.Attempt, attemptRetry, rec.Cause, now)
	c.publishLive()
}

func (c *clusterSim) onHedge(rec routerRecord, now float64) {
	st := c.reqs[rec.Req]
	if st == nil || st.done {
		return
	}
	if st.attempts != rec.Attempt {
		return // superseded by a retry or failover
	}
	if st.pending&(uint64(1)<<uint(rec.Attempt-1)) == 0 {
		return // the watched attempt already resolved
	}
	c.issueAttempt(rec.Req, rec.Attempt+1, attemptHedge, causeSlow, now)
	c.publishLive()
}

func (c *clusterSim) failRequest(id uint64, st *reqState) {
	c.failed++
	st.done = true
	c.settle(id, st)
}

// newReq returns a request state holding v, recycled from a settled request
// when one is free.
func (c *clusterSim) newReq(v reqState) *reqState {
	var st *reqState
	if n := len(c.freeReqs); n > 0 {
		st = c.freeReqs[n-1]
		c.freeReqs = c.freeReqs[:n-1]
	} else {
		st = new(reqState)
	}
	*st = v
	return st
}

// settle drops a request's state once it is done and fully drained, and
// recycles it: the table lookup is the only way back to a request, so a
// stale event for id finds nothing.
//
//simlint:hotpath
func (c *clusterSim) settle(id uint64, st *reqState) {
	if st.done && st.outstanding == 0 {
		delete(c.reqs, id)
		c.freeReqs = append(c.freeReqs, st)
	}
}

// backoff returns the capped exponential delay before issuing attempt+1,
// given that `attempt` attempts have been consumed. Jitter is a pure hash of
// (seed, request, attempt) — deterministic across resumes.
func (c *clusterSim) backoff(id uint64, attempt int) float64 {
	d := c.cfg.RetryBaseSeconds
	for i := 1; i < attempt && d < c.cfg.RetryCapSeconds; i++ {
		d *= 2
	}
	if d > c.cfg.RetryCapSeconds {
		d = c.cfg.RetryCapSeconds
	}
	if f := c.cfg.RetryJitterFrac; f > 0 {
		d *= 1 + f*(2*faults.Jitter01(c.cfg.Seed, id, uint64(attempt))-1)
	}
	return d
}

// hedgeDelay is the silence window before a hedged attempt: a multiple of
// the running fleet p99 once enough completions exist, else the fallback.
func (c *clusterSim) hedgeDelay() float64 {
	if c.hist.N() >= hedgeMinSamples {
		if p99, err := c.hist.P99(); err == nil && p99 > 0 {
			return c.cfg.HedgeAfterP99Mult * p99
		}
	}
	return c.cfg.HedgeFallbackSeconds
}

// --- health gating and replica choice ---

// eligible partitions a file's replica set, arrays (file + j) % Arrays for
// j < Replicas, into healthy candidates and a draining count (ejected
// members appear in neither). The candidates live in c.healthy, which the
// next call overwrites.
//
//simlint:hotpath
func (c *clusterSim) eligible(file int) (healthy []int, draining int) {
	healthy = c.healthy[:0]
	for j := 0; j < c.cfg.Replicas; j++ {
		switch a := c.cfg.replicaArray(file, j); c.evalHealth(a) {
		case telemetry.ArrayHealthy:
			healthy = append(healthy, a)
		case telemetry.ArrayDraining:
			draining++
		}
	}
	c.healthy = healthy
	return healthy, draining
}

// evalHealth gates one member: ejected on declared data loss (sticky by
// construction — data loss never un-happens), draining while its rack is in
// a power outage, while rebuilding, or while its backlog exceeds the limit.
// With the ops plane attached it also publishes the member's health row;
// the row's values (a PRESS snapshot of every disk among them) are computed
// only then, since they decide nothing.
func (c *clusterSim) evalHealth(a int) string {
	m := c.members[a]
	h := telemetry.ArrayHealthy
	switch {
	case m.DataLoss():
		h = telemetry.ArrayEjected
	case c.shockDepth[c.cfg.Topology.RackOf(a)] > 0 || m.Rebuilding():
		h = telemetry.ArrayDraining
	case c.cfg.MaxBacklog > 0 && m.Backlog() > c.cfg.MaxBacklog:
		h = telemetry.ArrayDraining
	}
	if fl := c.cfg.FleetLive; fl != nil {
		fl.PublishArray(a, h, m.Backlog(), m.FailedDisks(), m.Rebuilding(), m.PeekWorstAFR())
	}
	return h
}

// pick applies the routing policy over the healthy candidates (never empty).
func (c *clusterSim) pick(cands []int, id uint64, attempt int) int {
	switch c.cfg.Routing {
	case LeastLoaded:
		best, bestLoad := cands[0], c.members[cands[0]].Backlog()
		for _, a := range cands[1:] {
			if l := c.members[a].Backlog(); l < bestLoad {
				best, bestLoad = a, l
			}
		}
		return best
	case AFRAware:
		best, bestAFR := cands[0], c.members[cands[0]].PeekWorstAFR()
		for _, a := range cands[1:] {
			if v := c.members[a].PeekWorstAFR(); v < bestAFR {
				best, bestAFR = a, v
			}
		}
		return best
	default: // RoundRobin: rotate by request ID and attempt ordinal.
		return cands[int((id+uint64(attempt)-1)%uint64(len(cands)))]
	}
}

// --- correlated shocks ---

func (c *clusterSim) onShockStart(rec routerRecord) {
	c.shocks++
	c.shockDepth[rec.Rack]++
	if c.shockDepth[rec.Rack] == 1 {
		// Power is out: emergency spin-down across the rack.
		for _, a := range c.racks[rec.Rack] {
			c.members[a].ForceSpeedAll(diskmodel.Low, causeShock)
		}
	}
	sh := c.cfg.Shocks.ShockAt(rec.Rack, rec.Shock)
	c.rat(sh.End, routerRecord{Kind: revShockEnd, Rack: rec.Rack, Shock: rec.Shock})
	// Extend the chain only while it starts inside the trace window, so an
	// idle fleet's shock schedule cannot hold the event loop open.
	if next := c.cfg.Shocks.ShockAt(rec.Rack, rec.Shock+1); next.Start <= c.traceEnd {
		c.rat(next.Start, routerRecord{Kind: revShockStart, Rack: rec.Rack, Shock: rec.Shock + 1})
	}
	c.publishLive()
}

func (c *clusterSim) onShockEnd(rec routerRecord) {
	c.shockDepth[rec.Rack]--
	if c.shockDepth[rec.Rack] == 0 {
		// Power restored: re-heat — spin every disk back up.
		for _, a := range c.racks[rec.Rack] {
			c.members[a].ForceSpeedAll(diskmodel.High, causeRestore)
		}
	}
	c.publishLive()
}

// --- observability ---

func (c *clusterSim) decisions() *telemetry.DecisionLog {
	if c.cfg.Telemetry == nil {
		return nil
	}
	return c.cfg.Telemetry.Decisions
}

// decide records one routing-tier decision (retry, hedge, failover).
func (c *clusterSim) decide(kind, cause string, st *reqState, target int, now float64) {
	c.decisions().Append(telemetry.Decision{
		T:      now,
		Kind:   kind,
		Cause:  cause,
		FileID: st.file,
		From:   st.last,
		To:     target,
	})
}

// publishLive publishes the router's counters to both live views: the
// fleet's own (FleetLive) and the recorder's per-run Live, the per-cell row
// a sweep tracker shows on /progress, which reports fleet arrivals
// delivered and fleet requests served.
func (c *clusterSim) publishLive() {
	if rec := c.cfg.Telemetry; rec != nil {
		rec.Live.Tick(c.eng.Now(), c.eng.Fired(), c.hist.N(), uint64(c.delivered))
	}
	c.cfg.FleetLive.PublishCounters(c.eng.Now(), uint64(c.delivered), c.hist.N(),
		uint64(c.retries), uint64(c.hedges), uint64(c.hedgeWins), uint64(c.failovers),
		uint64(c.timeouts), uint64(c.deferred), uint64(c.shed), uint64(c.failed), uint64(c.shocks))
}

package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/factor"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/transport"
)

// CoordConfig drives one distributed solve.
type CoordConfig struct {
	// Spec is the problem every worker re-tears locally; the coordinator
	// only validates it.
	Spec SpecV2
	// Workers lists the transport member ids that own shards. Parts are
	// assigned in contiguous ranges across this slice, in order (the home
	// map); failover re-derives ownership from the surviving subset.
	Workers []int
	// Tol is the quiescence tolerance (stopping rule); required.
	Tol float64
	// LocalSolver selects the factor backend on every worker (empty for
	// default).
	LocalSolver string
	// SendThreshold suppresses unchanged wave re-announcements; defaults to
	// core.DrainThreshold(Tol), the fault-mode rule, because a real network
	// always needs traffic to drain.
	SendThreshold float64
	// WatchdogMS is the workers' retransmission interval (default 50ms).
	WatchdogMS int
	// HeartbeatMS is the workers' heartbeat (and snapshot) interval
	// (default 25ms).
	HeartbeatMS int
	// LeaseBeats sets a worker's lease to LeaseBeats missed heartbeats
	// (default 6), plus a deterministic per-worker jitter of up to 25% so a
	// uniformly slow fabric does not mass-expire the fleet at one instant.
	LeaseBeats int
	// DisableFailover turns lease expiry into an immediate *WorkerLostError
	// instead of a reassignment (strict mode).
	DisableFailover bool
	// PollInterval spaces the coordinator's status polls (default 10ms).
	PollInterval time.Duration
	// StablePolls is how many consecutive polls must satisfy the stopping
	// rule before the coordinator declares convergence (default 2) — the
	// distributed analogue of the DES engine's no-pending-events check.
	StablePolls int
	// OnPoll, when non-nil, is called just before status poll n (0-based)
	// is sent, a round asked again included. Fault drills hook it to kill a
	// worker at a deterministic point mid-solve.
	OnPoll func(poll int)
}

func (c *CoordConfig) normalize() error {
	if len(c.Workers) == 0 {
		return errors.New("dist: no workers")
	}
	if c.Spec.Parts() < len(c.Workers) {
		return fmt.Errorf("dist: %d workers for %d parts", len(c.Workers), c.Spec.Parts())
	}
	if !(c.Tol > 0) {
		return errors.New("dist: Tol must be positive")
	}
	// Refused here, before any assign: every worker would otherwise build the
	// spec only to fail in NewSubdomain.
	if err := (factor.Settings{Backend: c.LocalSolver}).Validate(); err != nil {
		return err
	}
	if c.SendThreshold <= 0 {
		c.SendThreshold = core.DrainThreshold(c.Tol)
	}
	if c.WatchdogMS <= 0 {
		c.WatchdogMS = 50
	}
	if c.HeartbeatMS <= 0 {
		c.HeartbeatMS = 25
	}
	if c.LeaseBeats <= 0 {
		c.LeaseBeats = 6
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 10 * time.Millisecond
	}
	if c.StablePolls <= 0 {
		c.StablePolls = 2
	}
	return nil
}

// maxEpochs caps how many ownership epochs (1 initial + failovers + rejoins)
// a solve may burn before giving up — a flapping fleet must fail loudly, not
// churn forever.
const maxEpochs = 8

// lease is the base lease duration (per-worker jitter applied on top).
func (c *CoordConfig) lease() time.Duration {
	return time.Duration(c.HeartbeatMS*c.LeaseBeats) * time.Millisecond
}

// Result is the outcome of a distributed solve.
type Result struct {
	// X is the assembled solution estimate (owner fragments gathered from
	// the workers).
	X sparse.Vec
	// Converged reports whether the stopping rule held before the context
	// expired.
	Converged bool
	// Solves and Messages aggregate the workers' counters at the final poll.
	Solves, Messages int
	// Polls is the number of completed status rounds the coordinator ran.
	Polls int
	// MaxLastChange and TwinGap are the final poll's convergence measures.
	MaxLastChange, TwinGap float64
	// RMSError is the RMS distance to the exact solution, when Exact is
	// given to Verify; NaN otherwise.
	RMSError float64
	// Owner maps part → worker member id under the final epoch.
	Owner []int
	// Failovers and Rejoins count ownership epochs burned on worker deaths
	// and on restarted workers re-admitted, respectively.
	Failovers, Rejoins int
	// Epoch is the final ownership epoch (1 when nothing failed).
	Epoch uint32
	// Fenced aggregates the workers' zombie-wave drop counters at the final
	// poll — nonzero proves the epoch/incarnation fences did real work.
	Fenced uint64
}

// ContiguousOwner assigns parts to workers in contiguous, near-equal ranges
// — the paper's processor-per-subdomain mapping generalised to fewer
// processors than subdomains.
func ContiguousOwner(nParts int, workers []int) []int {
	owner := make([]int, nParts)
	w := len(workers)
	for part := 0; part < nParts; part++ {
		owner[part] = workers[part*w/nParts]
	}
	return owner
}

// Coordinate runs one distributed solve over tr: assign shards, wait ready,
// start, poll until the stopping rule is stable (or ctx expires), stop, and
// gather X. The coordinator member owns no parts; it only speaks the control
// plane.
//
// Liveness: every control message from a worker renews its lease; a worker
// whose (jittered) lease lapses is declared dead and its parts are
// deterministically reassigned to the survivors under a new fenced epoch,
// seeded from its last heartbeat's boundary snapshots. A restarted worker
// answering the coordinator's polls with a higher incarnation is revived and
// handed its home parts back on the next epoch. When no failover can absorb
// a loss (no survivors, DisableFailover, or maxEpochs exhausted) Coordinate
// returns a *WorkerLostError wrapping ErrWorkerLost.
func Coordinate(ctx context.Context, tr transport.Transport, cfg CoordConfig) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	// The workers tear; the coordinator only refuses what it can see is
	// wrong without tearing, and learns the problem's shape from ready.
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	home := ContiguousOwner(cfg.Spec.Parts(), cfg.Workers)
	c := &coordinator{
		tr: tr, cfg: &cfg,
		home:     home,
		owner:    append([]int(nil), home...),
		epoch:    1,
		specHash: cfg.Spec.Hash(),
		snaps:    make(map[int32][]float64),
		ms:       newMembership(cfg.Workers, cfg.lease(), cfg.Spec.Hash()),
		res:      &Result{RMSError: math.NaN()},
	}
	return c.run(ctx)
}

// coordinator is the per-solve control-plane state.
type coordinator struct {
	tr  transport.Transport
	cfg *CoordConfig
	res *Result

	// dim and links are the first ready's problem shape, from worker
	// shapeFrom (dim is 0 until it arrives); every other ready must match it.
	// links are the twin links as core.Quiescent reads them.
	dim       int
	links     []partition.TwinLink
	shapeFrom int

	// home is the epoch-1 ownership map; owner is the current epoch's.
	home, owner []int
	epoch       uint32
	specHash    uint64
	ms          *membership
	// snaps retains the last-known-good boundary snapshot per part, folded
	// out of worker heartbeats (only from the part's current owner at the
	// current epoch, so a stale owner cannot overwrite fresher state).
	snaps map[int32][]float64
	// lastReassign is the current epoch's reassignment, retained because the
	// broadcast is best-effort: a live worker that missed it keeps its lease
	// renewed but reports under a stale epoch, and must be re-sent the
	// reassign (reassignSent bounds the re-send rate per worker).
	lastReassign *reassignMsg
	reassignSent map[int]time.Time

	// Round state: the number of the latest poll sent, and the statuses
	// answering it, by worker; nil while no poll is in flight.
	round    int
	statuses map[int]*statusMsg
	// rejoins queues dead-declared members seen beating with a higher
	// incarnation (recorded), to be re-admitted at the next epoch.
	rejoins map[int]uint32
}

func (c *coordinator) run(ctx context.Context) (*Result, error) {
	assign := c.assignMsg()
	for _, w := range c.cfg.Workers {
		if err := sendCtrlRetry(ctx, c.tr, w, &ctrlMsg{Type: msgAssign, Assign: assign}); err != nil {
			return nil, lostError(w, c.owner, "assign")
		}
	}
	if err := c.await(ctx, msgReady, c.cfg.Workers, c.agree); err != nil {
		return nil, err
	}
	for _, w := range c.cfg.Workers {
		if err := sendCtrlRetry(ctx, c.tr, w, &ctrlMsg{Type: msgStart}); err != nil {
			return nil, lostError(w, c.owner, "start")
		}
	}
	c.ms.start(time.Now())

	if err := c.pollLoop(ctx); err != nil {
		return nil, err
	}

	// Stop and gather regardless of convergence — a deadline still yields the
	// current estimate, mirroring the in-process engines' partial results.
	stopCtx := ctx
	if ctx.Err() != nil {
		var cancel context.CancelFunc
		stopCtx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
	}
	alive := c.ms.alive()
	for _, w := range alive {
		if err := sendCtrlRetry(stopCtx, c.tr, w, &ctrlMsg{Type: msgStop}); err != nil {
			return nil, lostError(w, c.owner, "stop")
		}
	}
	// Dead members may still have a zombie process attached; tell it to stop
	// too, best-effort (its results are not awaited).
	for _, w := range c.ms.dead() {
		_ = sendCtrl(stopCtx, c.tr, w, &ctrlMsg{Type: msgStop})
	}
	c.res.X = make(sparse.Vec, c.dim)
	if err := c.await(stopCtx, msgResult, alive, func(w int, m *ctrlMsg) error {
		r := m.Result
		if r == nil || len(r.Value) != len(r.Index) {
			return fmt.Errorf("dist: worker %d sent a malformed result", w)
		}
		for i, gv := range r.Index {
			if gv < 0 || int(gv) >= len(c.res.X) {
				return fmt.Errorf("dist: worker %d returned unknown %d of a %d-unknown problem", w, gv, len(c.res.X))
			}
			c.res.X[gv] = r.Value[i]
		}
		return nil
	}); err != nil {
		return nil, err
	}
	c.res.Owner = append([]int(nil), c.owner...)
	c.res.Epoch = c.epoch
	return c.res, nil
}

// agree takes the first ready's problem shape and refuses a worker whose
// shape differs: each worker tore the spec on its own, and one that tore a
// different problem cannot be solved against the others' links.
func (c *coordinator) agree(w int, m *ctrlMsg) error {
	r := m.Ready
	if r == nil {
		return fmt.Errorf("dist: worker %d sent ready without the problem's shape", w)
	}
	nParts := int32(c.cfg.Spec.Parts())
	if r.Dim < int(nParts) {
		return fmt.Errorf("dist: worker %d sent a problem of %d unknowns for %d parts", w, r.Dim, nParts)
	}
	links := make([]partition.TwinLink, len(r.Links))
	for i, l := range r.Links {
		if l[0] < 0 || l[0] >= nParts || l[2] < 0 || l[2] >= nParts || l[1] < 0 || l[3] < 0 {
			return fmt.Errorf("dist: worker %d sent twin link %d as %v, outside its %d parts", w, i, l, nParts)
		}
		links[i] = partition.TwinLink{ID: i, PartA: int(l[0]), PortA: int(l[1]), PartB: int(l[2]), PortB: int(l[3])}
	}
	if c.dim == 0 {
		c.dim, c.links, c.shapeFrom = r.Dim, links, w
		return nil
	}
	if r.Dim != c.dim || !slices.Equal(links, c.links) {
		return fmt.Errorf("dist: worker %d tore a different problem than worker %d: %d unknowns and %d twin links, against %d and %d",
			w, c.shapeFrom, r.Dim, len(links), c.dim, len(c.links))
	}
	return nil
}

func (c *coordinator) assignMsg() *assignMsg {
	return &assignMsg{
		Spec: c.cfg.Spec, Owner: append([]int(nil), c.owner...),
		Tol:           c.cfg.Tol,
		LocalSolver:   c.cfg.LocalSolver,
		SendThreshold: c.cfg.SendThreshold,
		WatchdogMS:    c.cfg.WatchdogMS,
		HeartbeatMS:   c.cfg.HeartbeatMS,
		Epoch:         c.epoch,
	}
}

// classify folds one control message into the membership/snapshot/round
// state (lease renewal, rejoin detection, snapshot retention, status
// collection). It returns an error only for a worker-reported fatal failure.
func (c *coordinator) classify(from int, m *ctrlMsg, now time.Time) error {
	if m.Err != "" {
		return fmt.Errorf("dist: worker %d failed: %s", from, m.Err)
	}
	switch m.Type {
	case msgHeartbeat:
		if m.HB == nil {
			return nil
		}
		if c.ms.beat(from, m.HB.Inc, m.HB.Epoch, now) {
			c.queueRejoin(from, m.HB.Inc)
			return nil
		}
		if m.HB.Epoch == c.epoch {
			for _, sn := range m.HB.Snaps {
				if int(sn.Part) < len(c.owner) && c.owner[sn.Part] == from {
					c.snaps[sn.Part] = append([]float64(nil), sn.Incoming...)
				}
			}
		}
	case msgHello:
		if m.HB == nil {
			return nil
		}
		// Only an idle (sessionless) worker answers a poll with hello: it is
		// a restarted process — whether or not its previous life's lease has
		// lapsed yet — and needs a fresh fenced assignment to participate.
		// helloRejoin debounces the repeats the worker keeps sending until
		// that assignment lands.
		if c.ms.helloRejoin(from, m.HB.Inc, now) {
			c.queueRejoin(from, m.HB.Inc)
		}
	case msgStatus:
		var epoch uint32
		if m.Status != nil {
			// Record the epoch the status was produced under even when it is
			// stale: the lagging-worker re-send keys off the acknowledged epoch.
			epoch = m.Status.Epoch
		}
		c.ms.beat(from, 0, epoch, now)
		// A reply to an earlier round was produced before the round in
		// flight began, so it cannot stand for it.
		if m.Status != nil && m.Status.Epoch == c.epoch && m.Round == c.round && c.statuses != nil {
			c.statuses[from] = m.Status
		}
	default:
		// ready/result renew the lease too; barrier-specific handling is in
		// await.
		c.ms.beat(from, 0, 0, now)
	}
	return nil
}

func (c *coordinator) queueRejoin(w int, inc uint32) {
	if c.rejoins == nil {
		c.rejoins = make(map[int]uint32)
	}
	c.rejoins[w] = inc
}

// await receives control traffic until every listed member has produced one
// message of the wanted type, folding everything else into the membership
// state. A context expiry surfaces as a *WorkerLostError naming a still-
// pending worker and its parts.
func (c *coordinator) await(ctx context.Context, want string, members []int, fn func(int, *ctrlMsg) error) error {
	phase := map[string]string{msgReady: "ready", msgResult: "result"}[want]
	pending := make(map[int]bool, len(members))
	for _, m := range members {
		pending[m] = true
	}
	for len(pending) > 0 {
		pkt, err := c.tr.Recv(ctx)
		if err != nil {
			for _, w := range members {
				if pending[w] {
					return lostError(w, c.owner, phase)
				}
			}
			return err
		}
		if pkt.Kind != transport.KindControl {
			continue
		}
		m, err := decodeCtrl(&pkt)
		if err != nil {
			continue
		}
		if err := c.classify(int(pkt.From), m, time.Now()); err != nil {
			return err
		}
		if m.Type != want || !pending[int(pkt.From)] {
			continue
		}
		delete(pending, int(pkt.From))
		if err := fn(int(pkt.From), m); err != nil {
			return err
		}
	}
	return nil
}

// pollLoop is the solve-phase event loop: poll statuses on a cadence,
// evaluate the stopping rule on complete rounds, renew leases from every
// sign of life, fail over expired workers and re-admit restarted ones.
//
// A quiet round is confirmed at once: the next poll goes out as soon as the
// round completes, not a PollInterval later. That is the second wave of
// Mattern's four-counter termination detection, which needs the second round
// to begin after the first has completed and no delay between them, as long
// as a reply counts only in the round that asked for it (classify). A round
// still incomplete when PollInterval passes is asked again, not replaced.
func (c *coordinator) pollLoop(ctx context.Context) error {
	stable, polls := 0, 0
	var lastFull []core.ShardState
	nextPoll := time.Now().Add(c.cfg.PollInterval)
	// idle: the last Recv found the inbox empty. Leases are judged only then —
	// after this process was stalled, every live worker's beats are queued
	// behind the stall, and expiring on the clock alone would take the
	// coordinator's own pause for their deaths.
	idle := true
	for {
		if ctx.Err() != nil {
			break // deadline: stop with whatever we have
		}
		now := time.Now()
		if len(c.rejoins) > 0 {
			if err := c.readmit(ctx, now); err != nil {
				return err
			}
			stable, c.statuses = 0, nil
		}
		if expired := c.ms.expired(now); idle && len(expired) > 0 {
			if err := c.failover(ctx, expired); err != nil {
				return err
			}
			stable, c.statuses = 0, nil
		}
		c.resendLagging(ctx, now)
		if !now.Before(nextPoll) {
			// A new round begins only after the last one completed (or was
			// abandoned by an epoch change). A round still incomplete is asked
			// again under its own number, keeping the replies it has: a reply
			// slower than PollInterval still counts, and any reply echoing the
			// round was produced after the round was first asked.
			if c.statuses == nil {
				c.round++
				c.statuses = make(map[int]*statusMsg, len(c.ms.alive()))
			}
			if c.cfg.OnPoll != nil {
				c.cfg.OnPoll(polls)
			}
			polls++
			// Best-effort: a lost poll is re-sent next interval. Dead members
			// are pinged too — a restarted process answers with hello and is
			// re-admitted.
			for _, w := range c.cfg.Workers {
				_ = sendCtrl(ctx, c.tr, w, &ctrlMsg{Type: msgStatusRq, Round: c.round})
			}
			nextPoll = now.Add(c.cfg.PollInterval)
		}
		rctx, cancel := context.WithDeadline(ctx, nextPoll)
		pkt, err := c.tr.Recv(rctx)
		cancel()
		idle = err != nil
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			if errors.Is(err, transport.ErrClosed) {
				return err
			}
			continue // recv window elapsed; run the lease/poll bookkeeping
		}
		if pkt.Kind != transport.KindControl {
			continue
		}
		m, err := decodeCtrl(&pkt)
		if err != nil {
			continue
		}
		if err := c.classify(int(pkt.From), m, time.Now()); err != nil {
			return err
		}
		states := c.roundStates()
		if states == nil {
			continue
		}
		// Complete round: evaluate the stopping rule.
		c.statuses = nil
		c.res.Polls++
		lastFull = states
		var quiet bool
		quiet, c.res.MaxLastChange, c.res.TwinGap = core.Quiescent(c.links, c.cfg.Tol, states)
		if quiet {
			stable++
			if stable >= c.cfg.StablePolls {
				c.res.Converged = true
				break
			}
			nextPoll = time.Time{} // confirm at once
		} else {
			stable = 0
		}
	}
	c.res.Solves, c.res.Messages, c.res.Fenced = core.Totals(lastFull)
	return nil
}

// roundStates returns the in-flight poll's shard states in member order, or
// nil while no poll is in flight or a live worker has yet to answer it under
// the current epoch.
func (c *coordinator) roundStates() []core.ShardState {
	workers := c.ms.alive()
	states := make([]core.ShardState, 0, len(workers))
	for _, w := range workers {
		if c.statuses[w] == nil {
			return nil
		}
		states = append(states, c.statuses[w].ShardState)
	}
	return states
}

// failover declares the expired workers dead and moves their parts to the
// survivors under a new fenced epoch.
func (c *coordinator) failover(ctx context.Context, expired []int) error {
	for _, w := range expired {
		c.ms.markDead(w)
	}
	if err := c.reassign(ctx, expired[0], nil); err != nil {
		return err
	}
	c.res.Failovers++
	return nil
}

// readmit revives queued rejoining workers (restarted processes beating with
// a higher incarnation) and hands their home parts back under a new epoch.
func (c *coordinator) readmit(ctx context.Context, now time.Time) error {
	lost := -1
	revived := make(map[int]bool, len(c.rejoins))
	for w, inc := range c.rejoins {
		c.ms.revive(w, inc, now)
		revived[w] = true
		if lost < 0 || w < lost {
			lost = w
		}
	}
	c.rejoins = nil
	if err := c.reassign(ctx, lost, revived); err != nil {
		return err
	}
	c.res.Rejoins++
	return nil
}

// reassign derives the next epoch's ownership map and broadcasts the fenced
// reassignment to the live fleet, carrying the last-known-good snapshots of
// every part that moved owner — and of every part owned by a just-revived
// worker, whose previous life's state died with it. lost names a worker for
// the error when no reassignment is possible.
func (c *coordinator) reassign(ctx context.Context, lost int, revived map[int]bool) error {
	alive := c.ms.alive()
	if len(alive) == 0 || c.cfg.DisableFailover || c.epoch >= maxEpochs {
		return lostError(lost, c.owner, "poll")
	}
	prev := c.owner
	c.epoch++
	c.owner = DeriveOwner(c.specHash, c.home, alive)
	re := &reassignMsg{Epoch: c.epoch, Assign: *c.assignMsg()}
	for part := range c.owner {
		if c.owner[part] == prev[part] && !revived[c.owner[part]] {
			continue
		}
		if sn, ok := c.snaps[int32(part)]; ok {
			re.Snaps = append(re.Snaps, partSnap{Part: int32(part), Incoming: sn})
		}
	}
	sort.Slice(re.Snaps, func(i, j int) bool { return re.Snaps[i].Part < re.Snaps[j].Part })
	// Bounded per-worker delivery: a worker that dies mid-broadcast is
	// caught by its own lease expiry on a later pass, not by wedging here. A
	// live worker that misses its copy (a dropped datagram on a lossy fabric)
	// is caught by resendLagging once its acknowledged epoch visibly lags.
	c.lastReassign = re
	if c.reassignSent == nil {
		c.reassignSent = make(map[int]time.Time, len(alive))
	}
	for _, w := range alive {
		wctx, cancel := context.WithTimeout(ctx, 2*c.cfg.lease())
		_ = sendCtrlRetry(wctx, c.tr, w, &ctrlMsg{Type: msgReassign, Reassign: re})
		cancel()
		c.reassignSent[w] = time.Now()
	}
	return nil
}

// resendLagging re-sends the current reassignment to live workers whose
// acknowledged epoch still lags the current one a full base lease after the
// last attempt. Without it a worker that missed the best-effort broadcast is
// wedged forever: its heartbeats keep the lease renewed (never declared
// dead), but every status it reports carries the stale epoch and is
// discarded, so no poll round ever completes.
func (c *coordinator) resendLagging(ctx context.Context, now time.Time) {
	if c.lastReassign == nil {
		return
	}
	for _, w := range c.ms.lagging(c.epoch) {
		if now.Sub(c.reassignSent[w]) <= c.cfg.lease() {
			continue
		}
		c.reassignSent[w] = now
		_ = sendCtrl(ctx, c.tr, w, &ctrlMsg{Type: msgReassign, Reassign: c.lastReassign})
	}
}

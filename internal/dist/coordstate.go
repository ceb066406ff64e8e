package dist

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// The coordinator's phases are assign → ready → start → poll → stop →
// result. Assign, ready and result are named after the message they send or
// await; start and stop happen inside the transitions out of ready and poll.
const phasePoll, phaseDone = "poll", "done"

// out is one message a state asks its driver to send. A worker's ready and
// result are retried until the context ends, the rest sent once. The
// coordinator sends once polls (a lost one is re-sent next interval), stops
// to dead members and lagging re-sends; the rest are retried until the context
// ends, and failing that the worker is lost in the phase the message names
// (assign, start, stop) — except a reassign, retried for at most two leases:
// a worker that dies mid-broadcast is caught by its own lease expiry on a
// later tick, not by wedging Coordinate, and a live worker that misses its
// copy (a dropped datagram on a lossy fabric) is re-sent it once its
// acknowledged epoch visibly lags.
type out struct {
	to    int
	m     *ctrlMsg
	retry bool
}

// coordState is the coordinator's control plane with no I/O in it:
// Coordinate feeds it the clock and what arrives, and sends what it returns.
// Its phases are states, so a test can drive it with a fake clock.
type coordState struct {
	cfg   *CoordConfig
	res   *Result
	phase string
	// pending are the workers the assign, ready or result phase still waits
	// on, in the order a loss names them.
	pending []int
	outs    []out

	// dim and links are the first ready's problem shape, from worker
	// shapeFrom (dim is 0 until it arrives); every other ready must match it.
	// links are the twin links as core.Quiescent reads them.
	dim, shapeFrom int
	links          []partition.TwinLink

	// home is the epoch-1 ownership map; owner is the current epoch's.
	home, owner []int
	epoch       uint32
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
	// answering it, by worker; nil while no poll is in flight. stable counts
	// consecutive quiet rounds.
	round, stable int
	statuses      map[int]*statusMsg
	nextPoll      time.Time
	// silent is each live worker's latest quiet notice, toldSilent whether a
	// silent one arrived since the latest round began (pollIfSilent).
	silent     map[int]bool
	toldSilent bool
	// final are the statuses the results carried, the session's counters.
	final []core.ShardState
	// rejoins queues dead-declared members seen beating with a higher
	// incarnation (recorded), to be re-admitted at the next epoch.
	rejoins map[int]uint32
}

// newCoordState starts a session of a normalised, validated configuration.
func newCoordState(cfg *CoordConfig) *coordState {
	home := ContiguousOwner(cfg.Spec.Parts(), cfg.Workers)
	return &coordState{
		cfg: cfg, res: &Result{},
		phase: msgAssign, pending: slices.Clone(cfg.Workers),
		home: home, owner: slices.Clone(home), epoch: 1,
		snaps:   make(map[int32][]float64),
		ms:      newMembership(cfg.Workers, cfg.lease(), cfg.Spec.Hash()),
		rejoins: make(map[int]uint32), reassignSent: make(map[int]time.Time),
		silent: make(map[int]bool),
	}
}

func (s *coordState) send(to []int, m *ctrlMsg, retry bool) {
	for _, w := range to {
		s.outs = append(s.outs, out{w, m, retry})
	}
}

// Tick advances the state to now. It returns when it next wants a tick and
// what to send. idle says Coordinate's last receive found the inbox empty.
// Leases are judged only then — after this process was stalled, every live
// worker's beats are queued behind the stall, and expiring on the clock alone
// would take the coordinator's own pause for their deaths.
func (s *coordState) Tick(now time.Time, idle bool) (next time.Time, outs []out, err error) {
	defer func() { outs, s.outs = s.outs, nil }()
	switch {
	case s.phase == msgAssign:
		s.phase = msgReady
		s.send(s.cfg.Workers, &ctrlMsg{Type: msgAssign, Assign: s.assignMsg()}, true)
	case s.phase == msgReady && len(s.pending) == 0:
		s.send(s.cfg.Workers, &ctrlMsg{Type: msgStart}, true)
		s.ms.start(now)
		s.phase, s.nextPoll = phasePoll, now.Add(s.cfg.PollInterval)
	case s.phase == phasePoll:
		err = s.pollTick(now, idle)
		return s.nextPoll, nil, err
	case s.phase == msgResult && len(s.pending) == 0:
		s.phase, s.res.Owner, s.res.Epoch = phaseDone, slices.Clone(s.owner), s.epoch
		s.res.Solves, s.res.Messages, s.res.Fenced = core.Totals(s.final)
	case s.phase == msgResult && idle:
		// A worker that died after the last poll never sends its result.
		for _, w := range s.ms.expired(now) {
			if slices.Contains(s.pending, w) {
				return next, nil, lostError(w, s.owner, msgResult)
			}
		}
	}
	return now.Add(s.cfg.PollInterval), nil, nil
}

// pollTick is the solve phase's bookkeeping, in order: re-admit restarted
// workers, fail over expired ones, re-send lagging reassignments, poll.
//
// A new round begins only after the last one completed (or was abandoned by
// an epoch change). A round still incomplete when PollInterval passes is
// asked again under its own number, keeping the replies it has: a reply
// slower than PollInterval still counts, and any reply echoing the round was
// produced after the round was first asked.
func (s *coordState) pollTick(now time.Time, idle bool) error {
	if len(s.rejoins) > 0 {
		// Revive the queued rejoining workers (restarted processes beating
		// with a higher incarnation) and hand their home parts back.
		lost, revived := math.MaxInt, make(map[int]bool, len(s.rejoins))
		for w, inc := range s.rejoins {
			s.ms.revive(w, inc, now)
			revived[w], lost = true, min(lost, w)
		}
		clear(s.rejoins)
		if err := s.reassign(now, lost, revived); err != nil {
			return err
		}
		s.res.Rejoins++
	}
	if expired := s.ms.expired(now); idle && len(expired) > 0 {
		// Declare the expired workers dead; their parts go to the survivors.
		for _, w := range expired {
			s.ms.markDead(w)
		}
		if err := s.reassign(now, expired[0], nil); err != nil {
			return err
		}
		s.res.Failovers++
	}
	// Re-send the current reassignment to live workers whose acknowledged
	// epoch still lags the current one a full base lease after the last
	// attempt. Without it a worker that missed the best-effort broadcast is
	// wedged forever: its heartbeats keep the lease renewed (never declared
	// dead), but every status it reports carries the stale epoch and is
	// discarded, so no poll round ever completes.
	for _, w := range s.ms.lagging(s.epoch) {
		if s.lastReassign != nil && now.Sub(s.reassignSent[w]) > s.cfg.lease() {
			s.reassignSent[w] = now
			s.send([]int{w}, &ctrlMsg{Type: msgReassign, Reassign: s.lastReassign}, false)
		}
	}
	if !now.Before(s.nextPoll) {
		if s.statuses == nil {
			s.round++
			s.statuses = make(map[int]*statusMsg, len(s.ms.alive()))
			s.toldSilent = false
		}
		// Dead members are polled too: a restarted process answers with hello
		// and is re-admitted.
		s.send(s.cfg.Workers, &ctrlMsg{Type: msgStatusRq, Round: s.round}, false)
		s.nextPoll = now.Add(s.cfg.PollInterval)
	}
	return nil
}

// Expire is Coordinate's news that its context ended. The poll phase stops
// and gathers regardless — a deadline still yields the current estimate,
// mirroring the in-process engines' partial results; a phase waiting on
// workers names the first one still pending.
func (s *coordState) Expire() (outs []out, err error) {
	defer func() { outs, s.outs = s.outs, nil }()
	if s.phase != phasePoll {
		return nil, lostError(s.pending[0], s.owner, s.phase)
	}
	s.stop()
	return nil, nil
}

// Handle folds one control message from a worker into the state and returns
// what to send. Its error is a worker-reported failure, a ready that
// disagrees with the first, or a malformed result.
func (s *coordState) Handle(now time.Time, from int, m *ctrlMsg) (outs []out, err error) {
	defer func() { outs, s.outs = s.outs, nil }()
	if err := s.classify(from, m, now); err != nil {
		return nil, err
	}
	if s.phase == phasePoll {
		s.completeRound()
		s.pollIfSilent()
		return nil, nil
	}
	// A duplicate ready or result only renewed the lease; a refused one
	// leaves its worker pending.
	if m.Type != s.phase || !slices.Contains(s.pending, from) {
		return nil, nil
	}
	file := s.gather
	if m.Type == msgReady {
		file = s.agree
	}
	if err = file(from, m); err == nil {
		s.pending = slices.DeleteFunc(s.pending, func(w int) bool { return w == from })
	}
	return nil, err
}

// gather files one worker's owner fragment of X and the final status it
// came with, whose counters hold the work done up to the stop: a deadline
// can end the poll phase before any poll round has seen that work.
func (s *coordState) gather(w int, m *ctrlMsg) error {
	r := m.Result
	if r == nil || len(r.Value) != len(r.Index) {
		return fmt.Errorf("dist: worker %d sent a malformed result", w)
	}
	for i, gv := range r.Index {
		if gv < 0 || int(gv) >= len(s.res.X) {
			return fmt.Errorf("dist: worker %d returned unknown %d of a %d-unknown problem", w, gv, len(s.res.X))
		}
		s.res.X[gv] = r.Value[i]
	}
	if m.Status != nil {
		s.final = append(s.final, m.Status.ShardState)
	}
	return nil
}

// completeRound evaluates the stopping rule once the round in flight is
// complete: every live worker answered it under the current epoch. A quiet
// round is confirmed at once: the next poll goes out as soon as the round
// completes, not a PollInterval later. That is the second wave of Mattern's
// four-counter termination detection, which needs the second round to begin
// after the first has completed and no delay between them, as long as a
// reply counts only in the round that asked for it (classify). A round that
// is not quiet is followed at once too when the fleet told it fell silent
// since the round began (pollIfSilent).
func (s *coordState) completeRound() {
	alive := s.ms.alive()
	states := make([]core.ShardState, 0, len(alive))
	for _, w := range alive {
		if s.statuses[w] == nil {
			return // no poll in flight, or a reply still missing
		}
		states = append(states, s.statuses[w].ShardState)
	}
	s.statuses = nil
	s.res.Polls++
	var quiet bool
	quiet, s.res.MaxLastChange, s.res.TwinGap = core.Quiescent(s.links, s.cfg.Tol, states)
	if !quiet {
		s.stable = 0
		return
	}
	if s.stable++; s.stable >= s.cfg.StablePolls {
		s.res.Converged = true
		s.stop()
		return
	}
	s.nextPoll = time.Time{}
}

// pollIfSilent brings the next poll forward to now when no round is in
// flight, every live worker's latest quiet notice says its shard is silent
// and one such notice arrived after the latest round began — the moments
// are a notice's arrival and a round completing not quiet. The notice only
// decides when a round begins; what stops the session is still two
// consecutive quiet rounds (completeRound). A notice from before the round
// began cannot trigger again, so a fleet silent but not quiet is polled on
// the PollInterval timer.
func (s *coordState) pollIfSilent() {
	if s.phase != phasePoll || s.statuses != nil || !s.toldSilent {
		return
	}
	for _, w := range s.ms.alive() {
		if !s.silent[w] {
			return
		}
	}
	s.nextPoll = time.Time{}
}

// stop ends the poll phase, converged or not: every live worker is told to
// stop and its result awaited.
func (s *coordState) stop() {
	s.phase, s.pending = msgResult, s.ms.alive()
	s.res.X = make(sparse.Vec, s.dim)
	s.send(s.pending, &ctrlMsg{Type: msgStop}, true)
	// Dead members may still have a zombie process attached; tell it to stop
	// too, best-effort (its results are not awaited).
	s.send(s.ms.dead(), &ctrlMsg{Type: msgStop}, false)
}

// agree takes the first ready's problem shape and refuses a worker whose
// shape differs: each worker tore the spec on its own, and one that tore a
// different problem cannot be solved against the others' links.
func (s *coordState) agree(w int, m *ctrlMsg) error {
	r := m.Ready
	if r == nil {
		return fmt.Errorf("dist: worker %d sent ready without the problem's shape", w)
	}
	nParts := int32(s.cfg.Spec.Parts())
	if r.Dim < int(nParts) {
		return fmt.Errorf("dist: worker %d sent a problem of %d unknowns for %d parts", w, r.Dim, nParts)
	}
	if len(r.Links)%4 != 0 {
		return fmt.Errorf("dist: worker %d sent %d twin-link values, not a whole number of quadruples", w, len(r.Links))
	}
	links := make([]partition.TwinLink, len(r.Links)/4)
	for i := range links {
		l := r.Links[4*i : 4*i+4]
		if l[0] < 0 || l[0] >= nParts || l[2] < 0 || l[2] >= nParts || l[1] < 0 || l[3] < 0 {
			return fmt.Errorf("dist: worker %d sent twin link %d as %v, outside its %d parts", w, i, l, nParts)
		}
		links[i] = partition.TwinLink{ID: i, PartA: int(l[0]), PortA: int(l[1]), PartB: int(l[2]), PortB: int(l[3])}
	}
	if s.dim == 0 {
		s.dim, s.links, s.shapeFrom = r.Dim, links, w
		return nil
	}
	if r.Dim != s.dim || !slices.Equal(links, s.links) {
		return fmt.Errorf("dist: worker %d tore a different problem than worker %d: %d unknowns and %d twin links, against %d and %d",
			w, s.shapeFrom, r.Dim, len(links), s.dim, len(s.links))
	}
	return nil
}

func (s *coordState) assignMsg() *assignMsg {
	return &assignMsg{
		Spec: s.cfg.Spec, Owner: slices.Clone(s.owner),
		Backend:       s.cfg.Factor.Backend,
		Ordering:      s.cfg.Factor.Ordering.String(),
		SendThreshold: s.cfg.SendThreshold,
		WatchdogMS:    s.cfg.WatchdogMS,
		HeartbeatMS:   s.cfg.HeartbeatMS,
		Epoch:         s.epoch,
	}
}

// classify folds one control message into the membership/snapshot/round
// state (lease renewal, rejoin detection, snapshot retention, status
// collection). It returns an error only for a worker-reported fatal failure.
func (s *coordState) classify(from int, m *ctrlMsg, now time.Time) error {
	if m.Err != "" {
		return fmt.Errorf("dist: worker %d failed: %s", from, m.Err)
	}
	if (m.Type == msgHeartbeat || m.Type == msgHello) && m.HB == nil {
		return nil
	}
	switch m.Type {
	case msgHeartbeat:
		if s.ms.beat(from, m.HB.Inc, m.HB.Epoch, now) {
			s.rejoins[from] = m.HB.Inc
			return nil
		}
		if m.HB.Epoch == s.epoch {
			for _, sn := range m.HB.Snaps {
				if int(sn.Part) < len(s.owner) && s.owner[sn.Part] == from {
					s.snaps[sn.Part] = append([]float64(nil), sn.Incoming...)
				}
			}
		}
	case msgHello:
		// Only an idle (sessionless) worker answers a poll with hello: it is
		// a restarted process — whether or not its previous life's lease has
		// lapsed yet — and needs a fresh fenced assignment to participate.
		// helloRejoin debounces the repeats the worker keeps sending until
		// that assignment lands.
		if s.ms.helloRejoin(from, m.HB.Inc, now) {
			s.rejoins[from] = m.HB.Inc
		}
	case msgStatus:
		var epoch uint32
		if m.Status != nil {
			// Record the epoch the status was produced under even when it is
			// stale: the lagging-worker re-send keys off the acknowledged epoch.
			epoch = m.Status.Epoch
		}
		s.ms.beat(from, 0, epoch, now)
		// A reply to an earlier round was produced before the round in
		// flight began, so it cannot stand for it.
		if m.Status != nil && m.Status.Epoch == s.epoch && m.Round == s.round && s.statuses != nil {
			s.statuses[from] = m.Status
		}
	case msgQuiet:
		s.ms.beat(from, 0, 0, now)
		if w, ok := s.ms.members[from]; ok && w.alive && s.phase == phasePoll {
			s.silent[from] = m.Quiet
			s.toldSilent = s.toldSilent || m.Quiet
		}
	default:
		// ready/result renew the lease too; the barriers are Handle's.
		s.ms.beat(from, 0, 0, now)
	}
	return nil
}

// reassign derives the next epoch's ownership map and broadcasts the fenced
// reassignment to the live fleet, carrying the last-known-good snapshots of
// every part that moved owner — and of every part owned by a just-revived
// worker, whose previous life's state died with it. The round in flight is
// abandoned. lost names a worker for the error when no reassignment is
// possible.
func (s *coordState) reassign(now time.Time, lost int, revived map[int]bool) error {
	alive := s.ms.alive()
	if len(alive) == 0 || s.cfg.DisableFailover || s.epoch >= maxEpochs {
		return lostError(lost, s.owner, phasePoll)
	}
	prev := s.owner
	s.epoch++
	s.owner = DeriveOwner(s.cfg.Spec.Hash(), s.home, alive)
	re := &reassignMsg{Epoch: s.epoch, Assign: *s.assignMsg()}
	for part := range s.owner { // ascending, so the snapshots are in part order
		if s.owner[part] == prev[part] && !revived[s.owner[part]] {
			continue
		}
		if sn, ok := s.snaps[int32(part)]; ok {
			re.Snaps = append(re.Snaps, partSnap{Part: int32(part), Incoming: sn})
		}
	}
	s.lastReassign = re
	s.send(alive, &ctrlMsg{Type: msgReassign, Reassign: re}, true)
	for _, w := range alive {
		s.reassignSent[w] = now
	}
	s.stable, s.statuses = 0, nil
	// Every worker wakes under the new map: none is silent until it says so.
	clear(s.silent)
	s.toldSilent = false
	return nil
}

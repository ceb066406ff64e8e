package dist

import (
	"sort"
	"time"
)

// membership is the coordinator's view of the worker fleet: per worker the
// last sign of life, the highest incarnation seen, and whether its lease is
// currently honoured. Every control message from a worker (heartbeat, hello,
// status, quiet, ready, result) renews its lease; a worker whose lease
// lapses is declared dead and its parts are reassigned. A dead worker beating
// with a *higher* incarnation is a restarted process asking to rejoin; a
// beat with the old incarnation is a zombie and is ignored.
type membership struct {
	members map[int]*memberState
	// lease is the base lease duration; each worker's effective lease gets a
	// deterministic +0..25% jitter derived from seed, so a uniformly slow
	// fabric does not mass-expire the fleet in one tick.
	lease time.Duration
	seed  uint64
}

type memberState struct {
	inc      uint32
	lastBeat time.Time
	alive    bool
	// epoch is the newest ownership epoch the worker has acknowledged
	// through a heartbeat or status.
	epoch uint32
	// revivedAt stamps the last readmission, debouncing the hello→rejoin
	// path: an idle restarted worker answers every poll with hello until its
	// reassign lands, and each must not burn another epoch.
	revivedAt time.Time
}

func newMembership(workers []int, lease time.Duration, seed uint64) *membership {
	ms := &membership{members: make(map[int]*memberState, len(workers)), lease: lease, seed: seed}
	for _, w := range workers {
		ms.members[w] = &memberState{alive: true}
	}
	return ms
}

// start stamps every live member's lease at the moment the poll loop begins
// (the ready barrier already proved them alive).
func (ms *membership) start(now time.Time) {
	for _, m := range ms.members {
		if m.alive {
			m.lastBeat = now
		}
	}
}

// leaseOf returns the jittered lease of one worker.
func (ms *membership) leaseOf(id int) time.Duration {
	return ms.lease + time.Duration(jitter01(ms.seed, id)*0.25*float64(ms.lease))
}

// beat records a sign of life. It returns rejoin=true when the beat comes
// from a dead-declared member carrying a real incarnation (inc > 0) at or
// above the recorded one: a higher incarnation is a restarted process asking
// for parts, and the *same* incarnation is a false expiry — the process is
// provably still alive (a genuinely dead one is silent), its lease just
// lapsed on a slow fabric, and stranding it would permanently lose capacity.
// Truly stale beats (old incarnation after a restart was admitted) and beats
// from unknown members are ignored.
func (ms *membership) beat(id int, inc uint32, epoch uint32, now time.Time) (rejoin bool) {
	m, ok := ms.members[id]
	if !ok {
		return false
	}
	if !m.alive {
		return inc > 0 && inc >= m.inc
	}
	m.lastBeat = now
	if inc > m.inc {
		m.inc = inc
	}
	if epoch > m.epoch {
		m.epoch = epoch
	}
	return false
}

// expired returns the live members whose jittered lease lapsed, ascending.
func (ms *membership) expired(now time.Time) []int {
	var dead []int
	for id, m := range ms.members {
		if m.alive && now.Sub(m.lastBeat) > ms.leaseOf(id) {
			dead = append(dead, id)
		}
	}
	sort.Ints(dead)
	return dead
}

// markDead declares a member dead (its lease lapsed).
func (ms *membership) markDead(id int) {
	if m, ok := ms.members[id]; ok {
		m.alive = false
	}
}

// revive re-admits a restarted member at its new incarnation.
func (ms *membership) revive(id int, inc uint32, now time.Time) {
	m, ok := ms.members[id]
	if !ok {
		return
	}
	m.alive = true
	m.inc = inc
	m.lastBeat = now
	m.revivedAt = now
}

// helloRejoin decides whether an idle worker's hello warrants a rejoin
// reassignment. Only sessionless workers answer polls with hello, so a hello
// always means a restarted process — but the restarted process keeps
// answering hello to every poll until its reassign lands, and each repeat
// must not burn another epoch. The debounce: queue a rejoin for a new
// incarnation immediately, and for an already-revived incarnation only after
// a full lease of continued hellos (the reassign evidently never arrived).
func (ms *membership) helloRejoin(id int, inc uint32, now time.Time) bool {
	m, ok := ms.members[id]
	if !ok {
		return false
	}
	if !m.alive {
		return inc > 0 && inc >= m.inc
	}
	m.lastBeat = now
	if inc > m.inc {
		return true
	}
	return now.Sub(m.revivedAt) > ms.leaseOf(id)
}

// lagging returns the live members whose acknowledged ownership epoch (the
// newest epoch seen in their heartbeats/statuses) is still below epoch,
// ascending. A lagging member missed the best-effort reassign broadcast: it
// keeps renewing its lease — so it is never declared dead — while reporting
// under a stale epoch that the round classifier discards, and only a re-send
// can unwedge it.
func (ms *membership) lagging(epoch uint32) []int {
	var behind []int
	for id, m := range ms.members {
		if m.alive && m.epoch < epoch {
			behind = append(behind, id)
		}
	}
	sort.Ints(behind)
	return behind
}

// alive returns the live member ids, ascending.
func (ms *membership) alive() []int {
	var live []int
	for id, m := range ms.members {
		if m.alive {
			live = append(live, id)
		}
	}
	sort.Ints(live)
	return live
}

// dead returns the dead member ids, ascending.
func (ms *membership) dead() []int {
	var gone []int
	for id, m := range ms.members {
		if !m.alive {
			gone = append(gone, id)
		}
	}
	sort.Ints(gone)
	return gone
}

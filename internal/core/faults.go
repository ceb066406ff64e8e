package core

import (
	"repro/internal/chaos"
	"repro/internal/netsim"
)

// This file holds the fault-tolerance layer of the DES engine. Every part of
// a DES window is a one-part member with its own Shard — the
// wave-reliability protocol a dist worker runs: per-pair sequence numbers
// with last-writer-wins deduplication, needed/applied marks,
// threshold-suppressed sends — driven on virtual time by a dtmNode. What the
// node keeps itself under an enabled fault spec is what a Shard leaves to its
// driver: the watchdog timers and their backoff, the snapshot ticks, the
// crash schedule, and the window gates of the stopping rule (faultQuiet).
//
// Everything here is inert when Config.Faults is nil or disabled: no clock
// is armed, and the nodes' pooled loop allocates nothing in the steady
// state.

// faultState is the engine's fault bookkeeping, allocated only when a run has
// an enabled fault spec.
type faultState struct {
	spec *chaos.Spec
	ctl  *chaos.Controller
	// snaps[part] is the part's incoming waves at its latest snapshot tick,
	// nil before the first: the recovery state a restart solves from.
	snaps [][]float64

	stats FaultStats
}

// newFaultState is the bookkeeping of an enabled fault spec over nParts parts
// (Config.validate has checked its part references against the partition).
// The fault-mode SendThreshold default (DrainThreshold) is applied by
// Config.normalize, for every engine.
func newFaultState(spec *chaos.Spec, nParts int) *faultState {
	return &faultState{
		spec:  spec,
		ctl:   chaos.NewController(spec, nParts),
		snaps: make([][]float64, nParts),
	}
}

// drained reports whether every part's receivers have applied the newest
// state-bearing wave it sent them: a retransmission carries no news, so a
// lost one holds nothing back.
func (e *engine) drained() bool {
	for part, sh := range e.shards {
		p := sh.parts[part]
		for ai, remote := range p.sub.adjacent {
			if p.pairs[ai].needed > *e.appliedMark(part, remote) {
				return false
			}
		}
	}
	return true
}

// settle applies every wave sent so far at its receiver — engine.sweep calls
// it after the barrier, which exchanges all waves reliably.
func (e *engine) settle() {
	for part, sh := range e.shards {
		p := sh.parts[part]
		for ai, remote := range p.sub.adjacent {
			*e.appliedMark(part, remote) = p.pairs[ai].sentSeq
		}
	}
}

// appliedMark is the newest sequence number part to has applied from its
// neighbour from.
func (e *engine) appliedMark(from, to int) *uint64 {
	p := e.shards[to].parts[to]
	return &p.pairs[p.sub.adjacentIndex(from)].applied
}

// faultQuiet reports whether the fault layer permits declaring convergence at
// absolute virtual time now: no link-down window is open, no part is inside a
// crash window, and no wave is unaccounted for (in flight, lost, or pending
// retransmission). Without it, the twin-gap rule could declare convergence on
// a state that a delayed or retransmitted wave is still going to change.
func (e *engine) faultQuiet(now float64) bool {
	f := e.faults
	return f == nil || !f.spec.AnyDownAt(now) && !f.spec.AnyCrashedAt(now) && e.drained()
}

// Timer-id layout per node (per netsim node ids are scoped to the node):
// ids 0..len(adj)-1 are the per-neighbour watchdogs, len(adj) is the snapshot
// tick, and above that crashes and restarts alternate (crash i → base+2i,
// restart i → base+2i+1, indexing the spec's crash list).
func (n *dtmNode) idSnapshot() int  { return len(n.adj) }
func (n *dtmNode) idCrashBase() int { return len(n.adj) + 1 }

// armClocks schedules this part's crash timers and, when crashes exist, the
// periodic snapshot tick, and reports whether the part starts the window
// crashed.
func (n *dtmNode) armClocks(now float64) bool {
	spec := n.eng.faults.spec
	absNow := n.off + now
	for ci, c := range spec.Crashes {
		if c.Part != n.part {
			continue
		}
		switch {
		case c.At > absNow:
			n.sim.After(n.part, now, c.At-absNow, n.idCrashBase()+2*ci)
		case c.At+c.RestartAfter > absNow:
			// The crash window straddles this DES window's start (mixed
			// engine): begin crashed and schedule only the restart.
			n.crashed = true
			n.sim.After(n.part, now, c.At+c.RestartAfter-absNow, n.idCrashBase()+2*ci+1)
		}
	}
	if len(spec.Crashes) > 0 {
		n.sim.After(n.part, now, spec.SnapshotInterval(), n.idSnapshot())
	}
	return n.crashed
}

// rearm re-arms, with its backoff reset, the watchdog toward every neighbour
// the activation's packets go to.
func (n *dtmNode) rearm(now float64) {
	for _, o := range n.outs {
		ai := n.eng.subs[n.part].adjacentIndex(o.To)
		n.wdBackoff[ai] = 0
		n.armWatchdog(now, ai)
	}
}

// armWatchdog (re)arms the retransmission watchdog toward neighbour adj[ai].
// The timeout is WatchdogMult × the link delay, doubled per consecutive silent
// expiry up to the backoff cap. Stale timer events — ones superseded by a
// newer arming — are recognised in OnTimer by comparing against wdDeadline, so
// nothing needs to be cancelled.
func (n *dtmNode) armWatchdog(now float64, ai int) {
	spec := n.eng.faults.spec
	t := spec.WatchdogTimeout(n.eng.prob.Delay(n.part, n.adj[ai]))
	t *= float64(uint64(1) << uint(n.wdBackoff[ai]))
	n.wdDeadline[ai] = now + t
	n.sim.After(n.part, now, t, ai)
}

// OnTimer dispatches the node's timer events: watchdog expiries, snapshot
// ticks, and the crash/restart schedule. It implements netsim.TimerNode.
func (n *dtmNode) OnTimer(now float64, id int) []netsim.Outgoing[wavePacket] {
	switch {
	case id < len(n.adj):
		return n.watchdogFired(now, id)
	case id == n.idSnapshot():
		n.snapshotTick(now)
		return nil
	default:
		return n.crashTimer(now, id)
	}
}

// watchdogFired re-announces the current waves toward one neighbour through
// the shard. DTM has no acknowledgements, so the watchdog cannot know whether
// the last wave was lost; it retransmits the current state unconditionally,
// which is safe because waves are idempotent boundary conditions and the
// receiver deduplicates by sequence number. Backoff keeps a converged-but-
// lossy system from chattering at the full watchdog rate forever.
func (n *dtmNode) watchdogFired(now float64, ai int) []netsim.Outgoing[wavePacket] {
	if n.crashed || now < n.wdDeadline[ai] {
		// Crashed processes run no timers; an event below the armed deadline
		// was superseded by a more recent send re-arming the watchdog.
		return nil
	}
	n.outs = n.outs[:0]
	n.shard.announceTo(int32(n.part), ai, true)
	n.eng.faults.stats.Retransmissions++
	if n.wdBackoff[ai] < chaos.MaxBackoff {
		n.wdBackoff[ai]++
	}
	n.armWatchdog(now, ai)
	return n.outs
}

// snapshotTick records the part's incoming waves — the recovery state a
// dist failover adopts from too (Shard.Incoming) — and re-arms the tick. A
// crashed process takes no snapshot (it is not running), but the tick keeps
// going so snapshots resume after the restart.
func (n *dtmNode) snapshotTick(now float64) {
	f := n.eng.faults
	if !n.crashed {
		f.snaps[n.part] = n.shard.Incoming(int32(n.part))
		f.stats.Snapshots++
	}
	n.sim.After(n.part, now, f.spec.SnapshotInterval(), n.idSnapshot())
}

// crashTimer handles the crash/restart schedule. A crash silences the node:
// incoming messages are discarded and timers ignored until the restart, which
// models a process that lost its in-memory state. The restart rebuilds the
// factorisation from the cached local matrix, rolls the incoming waves back
// to the latest snapshot (zero before the first), and wakes the shard, which
// forgets what it announced, re-solves and re-announces its waves to every
// neighbour — recovery is local, the rest of the computation never stops.
func (n *dtmNode) crashTimer(now float64, id int) []netsim.Outgoing[wavePacket] {
	f := n.eng.faults
	part, sub := n.part, n.eng.subs[n.part]
	rel := id - n.idCrashBase()
	if rel%2 == 0 { // crash
		n.crashed = true
		f.stats.Crashes++
		n.sim.After(part, now, f.spec.Crashes[rel/2].RestartAfter, id+1)
		return nil
	}
	n.crashed = false
	f.stats.Restarts++
	if err := sub.Refactor(); err != nil {
		// The same matrix factorised successfully at start-up; a failure here
		// is a programming error, not a runtime condition.
		panic(err)
	}
	if snap := f.snaps[part]; snap != nil {
		copy(sub.incoming, snap)
	} else {
		clear(sub.incoming)
	}
	n.shard.Wake()
	n.outs = n.outs[:0]
	n.shard.SolveDirty()
	n.eng.solved(part, n.off+now, n.shard.parts[part].lastChange)
	return n.sent(now)
}

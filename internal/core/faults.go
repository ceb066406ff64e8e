package core

import (
	"slices"

	"repro/internal/chaos"
	"repro/internal/netsim"
	"repro/internal/transport"
)

// This file holds the fault-tolerance layer of the DES engine. Under an
// enabled fault spec every part is a one-part member with its own Shard —
// the wave-reliability protocol a dist worker runs: per-pair sequence
// numbers with last-writer-wins deduplication, needed/applied marks,
// threshold-suppressed sends — driven on virtual time by a faultNode. What
// the node keeps itself is what a Shard leaves to its driver: the watchdog
// timers and their backoff, the snapshot ticks, the crash schedule, and the
// window gates of the stopping rule (faultQuiet).
//
// Everything here is inert when Config.Faults is nil or disabled: the engine
// builds plain dtmNodes, whose pooled loop allocates nothing in the steady
// state.

// faultState is the engine's fault bookkeeping, allocated only when a run has
// an enabled fault spec.
type faultState struct {
	spec *chaos.Spec
	ctl  *chaos.Controller
	// shards[part] is the part's one-part member. The shards outlive a mixed
	// run's windows, so their sequence numbers keep counting across them, and
	// a barrier settles them (settle).
	shards []*Shard
	// snaps[part] is the part's incoming waves at its latest snapshot tick,
	// nil before the first: the recovery state a restart solves from.
	snaps [][]float64

	stats FaultStats
}

// newFaultState is the bookkeeping of an enabled fault spec over the
// subdomains (Config.validate has checked its part references against the
// partition). The fault-mode SendThreshold default (DrainThreshold) is
// applied by Config.normalize, for every engine.
func newFaultState(spec *chaos.Spec, subs []*Subdomain, threshold float64) *faultState {
	f := &faultState{
		spec:   spec,
		ctl:    chaos.NewController(spec, len(subs)),
		shards: make([]*Shard, len(subs)),
		snaps:  make([][]float64, len(subs)),
	}
	owner := make([]int, len(subs))
	for part := range owner {
		owner[part] = part
	}
	for part, sub := range subs {
		f.shards[part] = NewShard(part, owner, 0, threshold, nil)
		f.shards[part].Adopt(sub, nil)
	}
	return f
}

// drained reports whether every part's receivers have applied the newest
// state-bearing wave it sent them: a retransmission carries no news, so a
// lost one holds nothing back.
func (f *faultState) drained() bool {
	for part, sh := range f.shards {
		p := sh.parts[part]
		for ai, remote := range p.sub.AdjacentParts() {
			if p.needed[ai] > f.shards[remote].dedup.Applied(int32(part), int32(remote)) {
				return false
			}
		}
	}
	return true
}

// settle applies every wave sent so far at its receiver — engine.sweep calls
// it after the barrier, which exchanges all waves reliably.
func (f *faultState) settle() {
	for part, sh := range f.shards {
		p := sh.parts[part]
		for ai, remote := range p.sub.AdjacentParts() {
			f.shards[remote].dedup.Fresh(&transport.Packet{FromPart: int32(part), ToPart: int32(remote), Seq: p.sentSeq[ai]})
		}
	}
}

// faultQuiet reports whether the fault layer permits declaring convergence at
// absolute virtual time now: no link-down window is open, no part is inside a
// crash window, and no wave is unaccounted for (in flight, lost, or pending
// retransmission). Without it, the twin-gap rule could declare convergence on
// a state that a delayed or retransmitted wave is still going to change.
func (e *engine) faultQuiet(now float64) bool {
	f := e.faults
	return f == nil || !f.spec.AnyDownAt(now) && !f.spec.AnyCrashedAt(now) && f.drained()
}

// faultNode is one part of a DES window under a fault spec: a dtmNode whose
// Shard folds in what arrives and decides what to solve and announce (into
// outs), and which runs the clocks a Shard has none of.
type faultNode struct {
	dtmNode
	shard      *Shard
	sim        *netsim.Simulator[wavePacket]
	wdDeadline []float64 // armed watchdog deadline per neighbour
	wdBackoff  []int     // consecutive silent watchdog expiries per neighbour
	crashed    bool
}

func (e *engine) newFaultNode(part int, off float64) *faultNode {
	sub := e.subs[part]
	adj := sub.AdjacentParts()
	n := &faultNode{
		dtmNode:    dtmNode{eng: e, sub: sub, adj: adj, off: off},
		shard:      e.faults.shards[part],
		wdDeadline: make([]float64, len(adj)),
		wdBackoff:  make([]int, len(adj)),
	}
	n.shard.emit = n.emit
	return n
}

// emit is the shard's network: the packet leaves at the end of the
// activation.
func (n *faultNode) emit(_ int, pkt transport.Packet) {
	n.eng.messages++
	n.outs = append(n.outs, netsim.Outgoing[wavePacket]{To: int(pkt.ToPart), Payload: wavePacket{seq: pkt.Seq, entries: pkt.Entries}})
}

// Timer-id layout per node (per netsim node ids are scoped to the node):
// ids 0..len(adj)-1 are the per-neighbour watchdogs, len(adj) is the snapshot
// tick, and above that crashes and restarts alternate (crash i → base+2i,
// restart i → base+2i+1, indexing the spec's crash list).
func (n *faultNode) idSnapshot() int  { return len(n.adj) }
func (n *faultNode) idCrashBase() int { return len(n.adj) + 1 }

// Init schedules this part's crash timers and (when crashes exist) the
// periodic snapshot tick, then announces the part's current waves without
// solving — before its first solve the zero waves of (5.6), in a mixed run's
// later windows the state the last barrier left.
func (n *faultNode) Init(now float64) []netsim.Outgoing[wavePacket] {
	spec := n.eng.faults.spec
	part := n.sub.Part()
	absNow := n.off + now
	for ci, c := range spec.Crashes {
		if c.Part != part {
			continue
		}
		switch {
		case c.At > absNow:
			n.sim.After(part, now, c.At-absNow, n.idCrashBase()+2*ci)
		case c.At+c.RestartAfter > absNow:
			// The crash window straddles this DES window's start (mixed
			// engine): begin crashed and schedule only the restart.
			n.crashed = true
			n.sim.After(part, now, c.At+c.RestartAfter-absNow, n.idCrashBase()+2*ci+1)
		}
	}
	if len(spec.Crashes) > 0 {
		n.sim.After(part, now, spec.SnapshotInterval(), n.idSnapshot())
	}
	if n.crashed {
		return nil
	}
	n.outs = n.outs[:0]
	n.shard.parts[part].forget()
	n.shard.announce(int32(part), false)
	return n.sent(now)
}

// OnMessages hands every delivered wave to the shard, which discards
// duplicates and overtaken waves, and solves if one was fresh. A crashed
// process loses everything delivered to it; the senders' watchdogs recover
// the state after the restart.
func (n *faultNode) OnMessages(now float64, msgs []netsim.Message[wavePacket]) []netsim.Outgoing[wavePacket] {
	if n.crashed {
		return nil
	}
	part := int32(n.sub.Part())
	for i := range msgs {
		n.shard.Receive(&transport.Packet{
			Kind: transport.KindWave, FromPart: int32(msgs[i].From), ToPart: part,
			Seq: msgs[i].Payload.seq, Entries: msgs[i].Payload.entries,
		})
	}
	n.outs = n.outs[:0]
	if !n.shard.SolveDirty() {
		// Nothing fresh: re-solving and re-announcing would only amplify
		// the duplicate traffic.
		return nil
	}
	n.eng.solved(int(part), n.off+now, n.shard.parts[part].lastChange)
	return n.sent(now)
}

// sent re-arms, with its backoff reset, the watchdog toward every neighbour
// the activation's packets go to.
func (n *faultNode) sent(now float64) []netsim.Outgoing[wavePacket] {
	for _, o := range n.outs {
		ai, _ := slices.BinarySearch(n.adj, o.To)
		n.wdBackoff[ai] = 0
		n.armWatchdog(now, ai)
	}
	return n.outs
}

// armWatchdog (re)arms the retransmission watchdog toward neighbour adj[ai].
// The timeout is WatchdogMult × the link delay, doubled per consecutive silent
// expiry up to the backoff cap. Stale timer events — ones superseded by a
// newer arming — are recognised in OnTimer by comparing against wdDeadline, so
// nothing needs to be cancelled.
func (n *faultNode) armWatchdog(now float64, ai int) {
	spec := n.eng.faults.spec
	part := n.sub.Part()
	t := spec.WatchdogTimeout(n.eng.prob.Delay(part, n.adj[ai]))
	t *= float64(uint64(1) << uint(n.wdBackoff[ai]))
	n.wdDeadline[ai] = now + t
	n.sim.After(part, now, t, ai)
}

// OnTimer dispatches the node's timer events: watchdog expiries, snapshot
// ticks, and the crash/restart schedule. It implements netsim.TimerNode.
func (n *faultNode) OnTimer(now float64, id int) []netsim.Outgoing[wavePacket] {
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
func (n *faultNode) watchdogFired(now float64, ai int) []netsim.Outgoing[wavePacket] {
	if n.crashed || now < n.wdDeadline[ai] {
		// Crashed processes run no timers; an event below the armed deadline
		// was superseded by a more recent send re-arming the watchdog.
		return nil
	}
	n.outs = n.outs[:0]
	n.shard.announceTo(int32(n.sub.Part()), ai, true)
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
func (n *faultNode) snapshotTick(now float64) {
	f := n.eng.faults
	part := n.sub.Part()
	if !n.crashed {
		f.snaps[part] = n.shard.Incoming(int32(part))
		f.stats.Snapshots++
	}
	n.sim.After(part, now, f.spec.SnapshotInterval(), n.idSnapshot())
}

// crashTimer handles the crash/restart schedule. A crash silences the node:
// incoming messages are discarded and timers ignored until the restart, which
// models a process that lost its in-memory state. The restart rebuilds the
// factorisation from the cached local matrix, rolls the incoming waves back
// to the latest snapshot (zero before the first), and wakes the shard, which
// forgets what it announced, re-solves and re-announces its waves to every
// neighbour — recovery is local, the rest of the computation never stops.
func (n *faultNode) crashTimer(now float64, id int) []netsim.Outgoing[wavePacket] {
	f := n.eng.faults
	part := n.sub.Part()
	rel := id - n.idCrashBase()
	if rel%2 == 0 { // crash
		n.crashed = true
		f.stats.Crashes++
		n.sim.After(part, now, f.spec.Crashes[rel/2].RestartAfter, id+1)
		return nil
	}
	n.crashed = false
	f.stats.Restarts++
	if err := n.sub.Refactor(); err != nil {
		// The same matrix factorised successfully at start-up; a failure here
		// is a programming error, not a runtime condition.
		panic(err)
	}
	if snap := f.snaps[part]; snap != nil {
		copy(n.sub.incoming, snap)
	} else {
		clear(n.sub.incoming)
	}
	n.shard.Wake()
	n.outs = n.outs[:0]
	n.shard.SolveDirty()
	n.eng.solved(part, n.off+now, n.shard.parts[part].lastChange)
	return n.sent(now)
}

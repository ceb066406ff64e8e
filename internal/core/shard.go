package core

import (
	"math"
	"slices"

	"repro/internal/netsim"
	"repro/internal/partition"
	"repro/internal/transport"
)

// Shard is the wave-reliability protocol of one member of a real-concurrency
// DTM run: the parts it owns, the paper's per-processor loop over them
// (Table 1: fold in whatever waves arrived, re-solve, announce) and the
// recovery rules that make Theorem 6.1's self-stabilisation usable on a
// network that loses, duplicates and reorders datagrams — per-pair sequence
// numbers with last-writer-wins, needed/applied marks, threshold-suppressed
// sends, watchdog re-announcement, epoch fences (DESIGN.md, "One
// wave-reliability protocol", states the rules).
//
// It is a pure state machine: no clock, no goroutine, no transport. A driver
// hands it received wave packets (Receive), tells it when to work
// (SolveDirty), when its watchdog fired (Retransmit) and when ownership
// changed (Adopt, Drop, Advance); what the shard wants to send to another
// member leaves through emit. A dist worker runs one Shard for all its
// parts; the DES engine runs one per part on virtual time (engine.go), so
// every kind of run is held to the same rules. Waves between two parts of
// one shard ("siblings") are applied directly and carry no sequence numbers:
// in-process delivery cannot lose anything.
//
// Every ownership map a shard is given (NewShard, Advance) must name, for
// each part of the problem, a member of the fleet — a non-negative id no
// larger than the fleet's largest: the shard sizes its per-member state by
// the largest id it sees and indexes it by each, unchecked. A dist worker
// refuses a map that names anyone else on receipt.
//
// When a part re-solves is the shard's choice (Theorem 6.1 holds for any
// delays), and it solves for the network, not against it: a part that applied
// a remote wave is dirty and solves at once, a part that applied a sibling's
// wave is only owed a solve, and the owed parts are swept once per batch of
// remote news — not iterated to a fixed point against remote waves that
// cannot change until the driver next blocks. Not safe for concurrent use.
type Shard struct {
	self      int
	owner     []int // part → member id, for every part of the problem
	threshold float64
	emit      func(to int, pkt *transport.Packet)

	parts []*shardPart // by part id; nil where another member owns the part
	owned []int32      // ascending, so every sweep is deterministic
	dirty []int32      // parts that applied a remote wave (or woke) and await their solve, FIFO
	owed  []int32      // parts that applied a sibling's wave and await the next sweep; disjoint from dirty
	// awaited[m] marks a member this shard sent news to and has not heard
	// from since; news says a fresh remote packet arrived since the last
	// sibling sweep. A sweep runs when either permits it (SolveDirty).
	// partsOf[m] counts the parts member m owns.
	awaited []bool
	partsOf []int
	news    bool

	// The receiver half of the protocol (Receive), with each part's applied
	// marks: epoch is the ownership epoch the shard announces under and
	// admits; inc[part] is the newest incarnation heard from the sending
	// part (an older one is fenced); fenced counts what both fences dropped.
	epoch  uint32
	inc    []uint32
	fenced uint64
	// pool, when set, supplies the entries of every packet the shard emits:
	// the DES engine's free list on a fault-free run, whose receivers hand
	// each buffer back once Receive has read it.
	pool *netsim.Pool[transport.WaveEntry]

	// solves and messages count all work; newsSent counts the cross-member
	// sends that carried news: those that raised a needed mark (announce).
	solves, messages, newsSent int

	// out is the packet emit is handed, rewritten for every send: one
	// 80-byte Packet is neither built nor copied per wave.
	out transport.Packet
}

// shardPart is one owned part's protocol state.
type shardPart struct {
	sub *Subdomain
	// lastSent[k] is the wave last announced on end k (NaN when nothing has
	// been announced since the last Wake); the send threshold compares
	// against it, so a converged part goes quiet and the network can drain.
	lastSent []float64
	// pairs[ai] is the state of the pair with the neighbour
	// AdjacentParts()[ai], both ways.
	pairs      []pairState
	lastChange float64
	solvedOnce bool
}

// pairState is an owned part's protocol state toward one neighbouring part.
type pairState struct {
	// sentSeq is the newest sequence number assigned toward the neighbour;
	// needed is the newest one that announced changed state (a watchdog
	// retransmission gets a fresh number, so it beats older copies in
	// flight, but carries no news and must not hold the stopping rule if it
	// is lost); applied is the newest one applied from the neighbour
	// (last-writer-wins: an older or equal one is a duplicate or overtaken).
	sentSeq, needed, applied uint64
	// answer says the neighbour sent news this part has not answered yet.
	answer bool
}

// PairSeq is one directed part pair's sequence-number mark.
type PairSeq struct {
	From int32
	To   int32
	Seq  uint64
}

// PartState is one owned part's convergence state.
type PartState struct {
	Part       int32
	SolvedOnce bool
	LastChange float64 // largest port move of the last solve
	Ports      []float64
}

// ShardState is a consistent snapshot of what the stopping rule needs from
// one shard. Parts ascend by part id; Needed and Applied follow the same
// sweep (owned part, then neighbour, both ascending), so equal states encode
// to equal bytes. It is the body of dist's status frame.
type ShardState struct {
	Solves   int
	Messages int
	Parts    []PartState
	// Needed lists the outgoing cross-member pairs that have announced state,
	// Applied the incoming ones that have folded some in.
	Needed  []PairSeq
	Applied []PairSeq
	// Dirty counts owned parts whose Ports and LastChange are stale: they
	// applied a wave (or were woken) and have not been re-solved yet — owed
	// parts included.
	Dirty int
	// Fenced counts packets the epoch and incarnation fences discarded.
	Fenced uint64
}

// NewShard returns an empty shard for member self under the given ownership
// map and epoch. Announcements are suppressed per neighbour while no wave
// toward it has moved by more than sendThreshold since the last one. The
// packet emit is handed is the shard's own, valid only during the call: a
// driver that keeps or queues it copies it.
func NewShard(self int, owner []int, epoch uint32, sendThreshold float64, emit func(to int, pkt *transport.Packet)) *Shard {
	s := &Shard{
		self: self, threshold: sendThreshold, emit: emit,
		parts: make([]*shardPart, len(owner)),
		inc:   make([]uint32, len(owner)),
		epoch: epoch,
		out:   transport.Packet{Kind: transport.KindWave},
	}
	s.setOwner(owner)
	return s
}

// setOwner installs an ownership map with no member awaited.
func (s *Shard) setOwner(owner []int) {
	s.owner = owner
	members := 0
	for _, m := range owner {
		members = max(members, m+1)
	}
	s.awaited = make([]bool, members)
	s.partsOf = make([]int, members)
	for _, m := range owner {
		if m >= 0 { // as members does: only a malformed map has one
			s.partsOf[m]++
		}
	}
}

// Adopt adds a factorised subdomain. On the initial assignment snap is nil
// and the part starts from the zero state of (5.6). A failover adopter passes
// the last-known-good boundary snapshot (see Incoming), so recovery costs
// what the snapshot is stale by, never a cold restart, and the part is solved
// once off the books of the stopping rule: seeded, it jumps from zero to
// (near) the fixed point, a huge last change that might never be measured
// again because converged neighbours suppress their sends. A snapshot of the
// wrong shape is ignored — one more transient for Theorem 6.1 to absorb.
func (s *Shard) Adopt(sub *Subdomain, snap []float64) {
	p := &shardPart{
		sub:      sub,
		lastSent: make([]float64, len(sub.Ends())),
		pairs:    make([]pairState, len(sub.AdjacentParts())),
	}
	p.forget()
	s.parts[sub.Part()] = p
	s.owned = append(s.owned, int32(sub.Part()))
	slices.Sort(s.owned)
	if snap != nil && len(snap) == len(sub.incoming) {
		copy(sub.incoming, snap)
		sub.Solve()
		s.solves++
	}
}

func (p *shardPart) forget() {
	for i := range p.lastSent {
		p.lastSent[i] = math.NaN()
	}
}

// Drop forgets a part handed to another owner. It leaves the dirty and owed
// queues too: a pending solve must never reach a part that is gone.
func (s *Shard) Drop(part int32) {
	if s.Sub(part) == nil {
		return
	}
	s.parts[part] = nil
	gone := func(p int32) bool { return p == part }
	s.owned = slices.DeleteFunc(s.owned, gone)
	s.dirty = slices.DeleteFunc(s.dirty, gone)
	s.owed = slices.DeleteFunc(s.owed, gone)
}

// Sub returns an owned part's subdomain, nil when the part is not owned.
func (s *Shard) Sub(part int32) *Subdomain {
	if p := s.part(part); p != nil {
		return p.sub
	}
	return nil
}

// part returns an owned part's state, nil when the part is not owned.
func (s *Shard) part(part int32) *shardPart {
	if part < 0 || int(part) >= len(s.parts) {
		return nil
	}
	return s.parts[part]
}

// Owned lists the owned parts, ascending. The slice is the shard's own.
func (s *Shard) Owned() []int32 { return s.owned }

// Epoch is the ownership epoch the shard announces under and admits.
func (s *Shard) Epoch() uint32 { return s.epoch }

// Incoming returns a copy of an owned part's boundary state: the latest
// incoming wave per DTL end, in end order. It is the complete recovery state
// (the local solution is a pure function of it), and small.
func (s *Shard) Incoming(part int32) []float64 {
	return slices.Clone(s.parts[part].sub.incoming)
}

// Wake marks every owned part dirty and forgets what it last announced, so
// each solves and then sends all its waves, whatever the threshold. It starts
// the exchange (every part's first solve is against the zero incoming waves of
// (5.6)), and restarts it after a crash-restart — a process with no memory of
// what it sent — or an epoch change.
func (s *Shard) Wake() {
	for _, part := range s.owned {
		s.parts[part].forget()
		s.markDirty(part)
	}
}

// Advance installs the ownership map of a newer epoch: packets of other
// epochs are fenced from now on, the per-pair sequence numbers and applied
// marks restart (the reassigned senders number from 1 again), no member is
// awaited, and every part wakes. The recorded incarnations reset too: they
// scope to the epoch that observed them, because a reassignment may hand a
// part from a restarted worker back to a lower-incarnation survivor, whose
// waves the old watermark would fence forever; the epoch fence alone drops
// every cross-epoch zombie. An older or equal epoch is ignored.
func (s *Shard) Advance(epoch uint32, owner []int) {
	if epoch <= s.epoch {
		return
	}
	s.setOwner(owner)
	s.epoch = epoch
	clear(s.inc)
	for _, part := range s.owned {
		clear(s.parts[part].pairs)
	}
	s.Wake()
}

// Receive folds one wave packet into the part it is addressed to and marks
// the part dirty. A fresh packet is news for the sibling sweep and ends the
// wait for its sender's member; one that moved an incoming wave by more than
// the send threshold is owed an answer (see announceTo) when that member
// owns siblings: only owed parts wait for answers, and a one-part member
// never has any. Receive reports false, having changed nothing but the fence
// counter, when the part is not owned here, the sender is not one of its
// neighbours, or the packet is a duplicate, overtaken, or fenced (admit).
func (s *Shard) Receive(pkt *transport.Packet) bool {
	p := s.part(pkt.ToPart)
	if p == nil {
		return false
	}
	sub := p.sub
	ai := sub.adjacentIndex(int(pkt.FromPart))
	if ai < 0 {
		return false
	}
	if (pkt.Epoch != s.epoch || pkt.Inc != s.inc[pkt.FromPart]) && !s.admit(pkt) {
		return false
	}
	pair := &p.pairs[ai]
	if pkt.Seq <= pair.applied {
		// A duplicate, or overtaken by a newer wave on the pair.
		return false
	}
	pair.applied = pkt.Seq
	m := s.owner[pkt.FromPart]
	answers := s.partsOf[m] > 1
	moved := false
	for _, e := range pkt.Entries {
		if k := sub.endOf(int(e.LinkID)); k >= 0 {
			moved = moved || answers && math.Abs(e.Wave-sub.incoming[k]) > s.threshold
			sub.incoming[k] = e.Wave
		}
	}
	s.awaited[m] = false
	if moved {
		pair.answer = true
	}
	s.news = true
	s.markDirty(pkt.ToPart)
	return true
}

// admit is the fence for a wave packet whose epoch or incarnation differs
// from the shard's. A packet of another epoch is zombie (or
// not-yet-reassigned straggler) traffic, one from an overtaken incarnation of
// its sending part a message of a dead life: admit counts either fenced and
// reports false — the watchdog re-announces current state under the current
// epoch, so dropping here costs time, never correctness. A newer incarnation
// is a new life of the sending part, which restarts its sequence numbers
// toward every part it neighbours here: admit records it and reports true.
func (s *Shard) admit(pkt *transport.Packet) bool {
	from := pkt.FromPart
	if pkt.Epoch != s.epoch || pkt.Inc < s.inc[from] {
		s.fenced++
		return false
	}
	s.inc[from] = pkt.Inc
	for _, part := range s.owned {
		q := s.parts[part]
		if ai := q.sub.adjacentIndex(int(from)); ai >= 0 {
			q.pairs[ai].applied = 0
		}
	}
	return true
}

// markDirty queues part for a solve at once; an owed part is promoted.
func (s *Shard) markDirty(part int32) {
	s.owed = slices.DeleteFunc(s.owed, func(p int32) bool { return p == part })
	if !slices.Contains(s.dirty, part) {
		s.dirty = append(s.dirty, part)
	}
}

// markOwed queues part for the next sibling sweep, unless it is dirty.
func (s *Shard) markOwed(part int32) {
	if !slices.Contains(s.dirty, part) && !slices.Contains(s.owed, part) {
		s.owed = append(s.owed, part)
	}
}

// SolveDirty solves the longest-waiting dirty part and announces its new
// waves. With no part dirty it sweeps the owed parts — makes them all dirty
// and solves the first — if a fresh remote packet arrived since the last
// sweep or no member it sent news to is still awaited; otherwise the remote
// waves the owed parts would solve against are about to change, and it
// reports false, as it does when nothing is dirty or owed.
func (s *Shard) SolveDirty() bool {
	if len(s.dirty) == 0 {
		if len(s.owed) == 0 || !s.news && slices.Contains(s.awaited, true) {
			return false
		}
		s.dirty, s.owed = s.owed, s.dirty
		s.news = false
	}
	part := s.dirty[0]
	copy(s.dirty, s.dirty[1:]) // in place: the queue keeps its storage
	s.dirty = s.dirty[:len(s.dirty)-1]
	p := s.parts[part]
	p.lastChange = p.sub.Solve()
	p.solvedOnce = true
	s.solves++
	s.announce(part, false)
	return true
}

// Retransmit is the watchdog sweep: re-announce every owned part's current
// waves to its neighbours on other members, and stop awaiting anyone — an
// answer that was lost then costs one watchdog interval, never liveness.
func (s *Shard) Retransmit() {
	clear(s.awaited)
	for _, part := range s.owned {
		s.announce(part, true)
	}
}

// announce sends part's outgoing waves, one packet per neighbouring part
// (announceTo). A DES watchdog retransmits toward one neighbour at a time.
func (s *Shard) announce(part int32, retransmit bool) {
	for ai := range s.parts[part].sub.AdjacentParts() {
		s.announceTo(part, ai, retransmit)
	}
}

// announceTo sends part's outgoing waves toward its neighbour
// AdjacentParts()[ai]. A retransmission always goes out, unless the neighbour
// is on this shard, and leaves needed and answer alone. Otherwise the
// neighbour gets a packet when a wave toward it moved beyond the threshold
// (raising needed) or when it sent news this part has not answered yet: the
// answer carries this part's state after folding that news in, and is what
// ends the sender's wait. Only news marks the neighbour's member awaited: the
// neighbour answers a wave that moved (when this member owns siblings), not
// an answer below the threshold, and a wait for a reply that never comes
// would hold the owed parts until the watchdog. A sibling's waves are written in place and leave it owed. The
// baseline moves only on an actual send, so sub-threshold drift cannot
// accumulate unannounced; only a packet that leaves allocates.
func (s *Shard) announceTo(part int32, ai int, retransmit bool) {
	p := s.parts[part]
	remote := p.sub.AdjacentParts()[ai]
	local := s.owner[remote] == s.self
	if retransmit && local {
		return
	}
	toward := p.sub.AdjacentEnds(ai)
	moved := false
	for _, k := range toward {
		if !(math.Abs(p.sub.OutgoingWave(k)-p.lastSent[k]) <= s.threshold) {
			moved = true
			break
		}
	}
	pair := &p.pairs[ai]
	if !moved && !retransmit && !pair.answer {
		return
	}
	s.messages++
	ends := p.sub.Ends()
	if local {
		dst := s.parts[remote].sub
		for _, k := range toward {
			p.lastSent[k] = p.sub.OutgoingWave(k)
			dst.SetIncomingByLink(ends[k].LinkID, p.lastSent[k])
		}
		s.markOwed(int32(remote))
		return
	}
	entries := s.pool.Get(len(toward))
	for _, k := range toward {
		p.lastSent[k] = p.sub.OutgoingWave(k)
		entries = append(entries, transport.WaveEntry{LinkID: int32(ends[k].LinkID), Wave: p.lastSent[k]})
	}
	pair.sentSeq++
	if !retransmit {
		if moved {
			pair.needed = pair.sentSeq
			s.newsSent++
			s.awaited[s.owner[remote]] = true
		}
		pair.answer = false
	}
	o := &s.out
	o.FromPart, o.ToPart, o.Seq, o.Epoch, o.Entries = part, int32(remote), pair.sentSeq, s.epoch, entries
	s.emit(s.owner[remote], o)
}

// NewsSent counts the cross-member sends that carried news: each raised a
// needed mark, so the stopping rule waits for its receiver to apply it.
// Answers below the threshold and watchdog retransmissions are not news.
func (s *Shard) NewsSent() int { return s.newsSent }

// Backlog is the number of owned parts awaiting a solve, dirty and owed —
// State's Dirty, without the snapshot.
func (s *Shard) Backlog() int { return len(s.dirty) + len(s.owed) }

// State snapshots the shard for the stopping rule.
func (s *Shard) State() ShardState {
	st := ShardState{
		Solves: s.solves, Messages: s.messages,
		Parts: make([]PartState, 0, len(s.owned)),
		Dirty: s.Backlog(), Fenced: s.fenced,
	}
	for _, part := range s.owned {
		p := s.parts[part]
		st.Parts = append(st.Parts, PartState{
			Part: part, SolvedOnce: p.solvedOnce, LastChange: p.lastChange,
			Ports: slices.Clone(p.sub.x[:p.sub.numPorts]),
		})
		for ai, remote := range p.sub.AdjacentParts() {
			if s.owner[remote] == s.self {
				continue
			}
			rp := int32(remote)
			if seq := p.pairs[ai].needed; seq > 0 {
				st.Needed = append(st.Needed, PairSeq{From: part, To: rp, Seq: seq})
			}
			if seq := p.pairs[ai].applied; seq > 0 {
				st.Applied = append(st.Applied, PairSeq{From: rp, To: part, Seq: seq})
			}
		}
	}
	return st
}

// Totals sums the states' work and fence counters.
func Totals(states []ShardState) (solves, messages int, fenced uint64) {
	for i := range states {
		solves += states[i].Solves
		messages += states[i].Messages
		fenced += states[i].Fenced
	}
	return solves, messages, fenced
}

// TwinGap is the twin gap both stopping rules read — the DES, VTM and mixed
// engines' and Quiescent's: the largest |u_A − u_B| over the links, where
// ports[part] holds a part's port potentials. A NaN disagreement makes it NaN
// (math.Max propagates it), so no gap test passes on a diverged part; a
// link whose port is missing — a part nobody reported — makes it +Inf. With
// no links it is 0.
func TwinGap(links []partition.TwinLink, ports [][]float64) float64 {
	gap := 0.0
	for _, l := range links {
		a, b := ports[l.PartA], ports[l.PartB]
		if l.PortA >= len(a) || l.PortB >= len(b) {
			return math.Inf(1)
		}
		gap = math.Max(gap, math.Abs(a[l.PortA]-b[l.PortB]))
	}
	return gap
}

// Quiescent is the distributed stopping rule, evaluated on one state per
// shard: every part has solved at least once, no last solve moved a port by
// more than tol, every twin gap (TwinGap) is at most tol, no shard has
// applied a wave it has not yet solved for, and every announced sequence
// number has been applied by its receiver — the network is drained. It also
// returns the two convergence measures.
func Quiescent(links []partition.TwinLink, tol float64, states []ShardState) (quiet bool, maxChange, gap float64) {
	nParts := 0
	for _, l := range links {
		nParts = max(nParts, l.PartA+1, l.PartB+1)
	}
	ports := make([][]float64, nParts)
	applied := make(map[[2]int32]uint64)
	quiet = true
	for i := range states {
		quiet = quiet && states[i].Dirty == 0
		for _, ps := range states[i].Parts {
			quiet = quiet && ps.SolvedOnce
			maxChange = math.Max(maxChange, ps.LastChange)
			if ps.Part >= 0 && int(ps.Part) < nParts {
				ports[ps.Part] = ps.Ports
			}
		}
		for _, pr := range states[i].Applied {
			applied[[2]int32{pr.From, pr.To}] = pr.Seq
		}
	}
	gap = TwinGap(links, ports)
	for i := range states {
		for _, nd := range states[i].Needed {
			quiet = quiet && applied[[2]int32{nd.From, nd.To}] >= nd.Seq
		}
	}
	return quiet && maxChange <= tol && gap <= tol, maxChange, gap
}

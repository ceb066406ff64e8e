package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dtl"
	"repro/internal/factor"
	"repro/internal/transport"
)

// Worker owns a group of subdomains in a distributed run: it factorises them
// once on assignment, then reacts to whatever waves arrive — solve, announce,
// repeat — with no synchronisation, exactly the per-processor loop of
// Table 1 in the paper. Waves between two parts of the same worker are
// applied in-process; waves to remote parts ride the transport with
// sequence numbers, and a periodic watchdog re-announces the current waves
// so losses cost time, not correctness.
//
// Failover: an in-session worker heartbeats its incarnation, epoch,
// sequence frontiers and per-part boundary snapshots to the coordinator;
// when a peer dies the coordinator broadcasts a fenced reassign and the
// worker adopts its share of the orphaned parts, re-tearing them from the
// spec and seeding them from the last-known-good snapshot. An idle worker
// answers polls with hello so a restarted process (higher Incarnation) is
// handed parts back on the next epoch.
type Worker struct {
	tr transport.Transport
	// Logf, when non-nil, receives progress lines (the dtmd binary wires it
	// to its logger; tests leave it nil).
	Logf func(format string, args ...any)
	// Incarnation distinguishes successive lives of one member id. A
	// restarted dtmd process must register with a strictly higher
	// incarnation than its previous life, or its beats are fenced as zombie
	// traffic. Defaults to 1.
	Incarnation uint32
	// FactorCache, when non-nil, serves this worker's subdomain
	// factorisations, so a standing worker re-assigned a problem it has
	// already torn (a repeated session, a failover adoption) factors once.
	FactorCache *factor.Cache

	badCtrl atomic.Uint64
}

// NewWorker wraps a transport member into a worker (incarnation 1).
func NewWorker(tr transport.Transport) *Worker { return &Worker{tr: tr, Incarnation: 1} }

// BadCtrl returns how many malformed control frames this worker has dropped.
func (w *Worker) BadCtrl() uint64 { return w.badCtrl.Load() }

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Run serves solve sessions until the context is cancelled, the transport
// closes, or a shutdown message arrives. Each session is one
// assign→ready→start→solve→stop→result cycle; the worker (and its factor
// cache) outlives sessions, so a long-lived dtmd process amortises
// factorisation across solves. A reassign addressed to an idle worker (the
// rejoin path) starts a mid-solve session directly.
func (w *Worker) Run(ctx context.Context) error {
	for {
		pkt, err := w.tr.Recv(ctx)
		if err != nil {
			if errors.Is(err, transport.ErrClosed) || ctx.Err() != nil {
				return nil
			}
			return err
		}
		if pkt.Kind != transport.KindControl {
			continue // stray wave from a finished session
		}
		m, err := decodeCtrl(&pkt)
		if err != nil {
			w.badCtrl.Add(1)
			w.logf("worker %d: %v", w.tr.Self(), err)
			continue
		}
		coord := int(pkt.From)
		switch m.Type {
		case msgShutdown:
			return nil
		case msgStatusRq:
			// Idle: no session to report on — hello with the incarnation so
			// the coordinator can offer parts (rejoin) on the next epoch.
			_ = sendCtrl(ctx, w.tr, coord, &ctrlMsg{Type: msgHello, HB: &heartbeatMsg{Inc: w.Incarnation}})
		case msgAssign:
			if m.Assign == nil {
				w.badCtrl.Add(1)
				continue
			}
			w.serve(ctx, coord, m.Assign, nil)
		case msgReassign:
			if m.Reassign == nil {
				w.badCtrl.Add(1)
				continue
			}
			// Rejoin (or late adoption): the reassign is self-contained, so
			// an idle worker starts a session mid-solve from it.
			w.serve(ctx, coord, &m.Reassign.Assign, m.Reassign)
		}
	}
}

// serve runs one session and reports failures to the coordinator.
func (w *Worker) serve(ctx context.Context, coord int, a *assignMsg, re *reassignMsg) {
	err := w.session(ctx, coord, a, re)
	if err != nil && ctx.Err() == nil && !errors.Is(err, transport.ErrClosed) {
		w.logf("worker %d: session: %v", w.tr.Self(), err)
		// Report the failure so the coordinator can abort the run.
		_ = sendCtrl(ctx, w.tr, coord, &ctrlMsg{Type: msgReady, Err: err.Error()})
	}
}

// session runs one assignment to completion. When re is non-nil the session
// starts mid-solve from a reassign (rejoin): no ready handshake, solving
// begins immediately from the carried snapshots.
func (w *Worker) session(ctx context.Context, coord int, a *assignMsg, re *reassignMsg) error {
	if re != nil {
		// Renew the lease before tearing and factorising: a rejoining worker
		// rebuilds the whole problem from the spec, which can outlast a lease
		// on a slow machine, and being re-declared dead for doing the
		// rejoin's own work would churn the epoch budget away.
		_ = sendCtrl(ctx, w.tr, coord, &ctrlMsg{Type: msgHeartbeat,
			HB: &heartbeatMsg{Inc: w.Incarnation, Epoch: re.Epoch}})
	}
	s, err := w.newSession(ctx, coord, a)
	if err != nil {
		return err
	}
	if re != nil {
		s.restoreSnaps(re.Snaps)
		s.warmup(s.owned)
		s.started = true
		s.markAllDirty()
		s.sendHeartbeat()
	} else if err := sendCtrlRetry(ctx, w.tr, coord, &ctrlMsg{Type: msgReady}); err != nil {
		return err
	}
	return s.run()
}

// newSession tears the spec, factorises the owned subdomains and builds the
// per-assignment solve state (it performs no network handshake — session
// and the stepped tests drive that).
func (w *Worker) newSession(ctx context.Context, coord int, a *assignMsg) (*workerSession, error) {
	self := w.tr.Self()
	p, err := a.Spec.Build()
	if err != nil {
		return nil, err
	}
	nParts := p.Partition.NumParts()
	if len(a.Owner) != nParts {
		return nil, fmt.Errorf("dist: assignment maps %d parts, problem tears into %d", len(a.Owner), nParts)
	}
	zs, err := dtl.Assign(p.Partition, dtl.DiagScaled{Alpha: 1})
	if err != nil {
		return nil, err
	}
	s := &workerSession{
		w: w, ctx: ctx, coord: coord, a: a, p: p, self: self, zs: zs,
		epoch:      a.Epoch,
		subs:       make(map[int32]*core.Subdomain),
		dedup:      transport.NewDedup(),
		sentSeq:    make(map[[2]int32]uint64),
		needed:     make(map[[2]int32]uint64),
		lastSent:   make(map[int32][]float64),
		lastChange: make(map[int32]float64),
		solvedOnce: make(map[int32]bool),
	}
	s.dedup.Advance(a.Epoch)
	// Factorise only the owned subdomains — the whole point of sharding.
	for part := 0; part < nParts; part++ {
		if a.Owner[part] != self {
			continue
		}
		if err := s.adopt(int32(part)); err != nil {
			return nil, err
		}
	}
	if len(s.owned) == 0 {
		return nil, fmt.Errorf("dist: worker %d owns no parts", self)
	}
	w.logf("worker %d (inc %d): owns parts %v (%d unknowns total)", self, w.Incarnation, s.owned, p.System.Dim())
	return s, nil
}

// workerSession is the per-assignment solve state.
type workerSession struct {
	w     *Worker
	ctx   context.Context
	coord int
	a     *assignMsg
	p     *core.Problem
	self  int
	zs    []float64

	epoch   uint32
	started bool

	subs  map[int32]*core.Subdomain
	owned []int32

	dedup   *transport.Dedup
	sentSeq map[[2]int32]uint64 // outgoing cross-member pair → last assigned seq
	needed  map[[2]int32]uint64 // outgoing cross-member pair → newest state-bearing seq
	// lastSent[part][endIdx] is the wave last announced on that end (NaN
	// before the first send); the send threshold compares against it so a
	// converged shard goes quiet and the network can drain.
	lastSent   map[int32][]float64
	lastChange map[int32]float64
	solvedOnce map[int32]bool

	solves   int
	messages int

	dirty    []int32
	dirtySet map[int32]bool
}

// adopt builds and factorises one subdomain into the session (initial
// assignment and failover adoption share it). The ownership maps must
// already name this worker for the part.
func (s *workerSession) adopt(part int32) error {
	sd, err := core.NewSubdomain(s.p.Partition.Subdomains[part], s.p.Partition.LinksOfPart(int(part)), s.zs,
		factor.Settings{Backend: s.a.LocalSolver, Cache: s.w.FactorCache})
	if err != nil {
		return fmt.Errorf("dist: building subdomain %d: %w", part, err)
	}
	s.subs[part] = sd
	// Keep owned sorted so every sweep (waves, status, heartbeat) is
	// deterministic regardless of adoption order.
	at := len(s.owned)
	for i, p := range s.owned {
		if p > part {
			at = i
			break
		}
	}
	s.owned = append(s.owned, 0)
	copy(s.owned[at+1:], s.owned[at:])
	s.owned[at] = part
	ls := make([]float64, len(sd.Ends()))
	for i := range ls {
		ls[i] = math.NaN()
	}
	s.lastSent[part] = ls
	return nil
}

// drop forgets a part handed to another owner (rejoin handback). The part
// must leave the dirty queue too: a pending solve on a dropped part would
// dereference the deleted subdomain.
func (s *workerSession) drop(part int32) {
	delete(s.subs, part)
	delete(s.lastSent, part)
	delete(s.lastChange, part)
	delete(s.solvedOnce, part)
	for i, p := range s.owned {
		if p == part {
			s.owned = append(s.owned[:i], s.owned[i+1:]...)
			break
		}
	}
	if s.dirtySet[part] {
		delete(s.dirtySet, part)
		for i, p := range s.dirty {
			if p == part {
				s.dirty = append(s.dirty[:i], s.dirty[i+1:]...)
				break
			}
		}
	}
}

// restoreSnaps seeds adopted subdomains from the last-known-good boundary
// snapshots: the incoming waves are the complete recovery state (the local
// solution is a pure function of them), so recovery cost is proportional to
// snapshot staleness, never a cold restart of the global solve. Malformed or
// unknown snapshots are skipped — a missing snapshot just means the zero
// initial condition, which Theorem 6.1 self-stabilisation absorbs.
func (s *workerSession) restoreSnaps(snaps []partSnap) {
	for _, sn := range snaps {
		sub, ok := s.subs[sn.Part]
		if !ok {
			continue
		}
		ends := sub.Ends()
		if len(sn.Incoming) != len(ends) {
			continue
		}
		for k, e := range ends {
			sub.SetIncomingByLink(e.LinkID, sn.Incoming[k])
		}
	}
}

// warmup solves freshly seeded parts once, off the books of the stopping
// rule. A part restored from a snapshot jumps from the zero initial state to
// (near) the fixpoint in one solve — a huge "last change" that would never
// be re-measured, because converged neighbours suppress further sends and
// the part would never go dirty again. The warm-up absorbs that jump;
// whatever the loop's accounted solves measure afterwards is genuine
// movement since restoration.
func (s *workerSession) warmup(parts []int32) {
	for _, part := range parts {
		s.subs[part].Solve()
		s.solves++
	}
}

func (s *workerSession) markAllDirty() {
	for _, part := range s.owned {
		s.markDirty(part)
	}
}

func (s *workerSession) markDirty(part int32) {
	if s.dirtySet == nil {
		s.dirtySet = make(map[int32]bool)
	}
	if !s.dirtySet[part] {
		s.dirtySet[part] = true
		s.dirty = append(s.dirty, part)
	}
}

func (s *workerSession) popDirty() (int32, bool) {
	if len(s.dirty) == 0 {
		return 0, false
	}
	part := s.dirty[0]
	s.dirty = s.dirty[1:]
	delete(s.dirtySet, part)
	return part, true
}

// sendWaves announces part's current outgoing waves. initial sends the zero
// boot waves of (5.6); retransmit is a watchdog sweep (always goes out to
// remote neighbours with a fresh seq that does not raise the needed mark,
// and skips local neighbours — in-process delivery cannot lose anything).
// Regular sends are suppressed per neighbour when no wave moved more than
// the send threshold. Every remote wave carries the session epoch and the
// worker incarnation so receivers can fence zombie traffic.
func (s *workerSession) sendWaves(part int32, initial, retransmit bool) {
	sub := s.subs[part]
	ends := sub.Ends()
	ls := s.lastSent[part]
	for _, remote := range sub.AdjacentParts() {
		rp := int32(remote)
		localDst := s.a.Owner[remote] == s.self
		if retransmit && localDst {
			continue
		}
		toward := sub.EndsTowards(remote)
		entries := make([]transport.WaveEntry, 0, len(toward))
		changed := initial || retransmit
		for _, k := range toward {
			w := 0.0
			if !initial {
				w = sub.OutgoingWave(k)
			}
			if !changed && !(math.Abs(w-ls[k]) <= s.a.SendThreshold) {
				changed = true
			}
			entries = append(entries, transport.WaveEntry{LinkID: int32(ends[k].LinkID), Wave: w})
		}
		if !changed {
			continue
		}
		for i, k := range toward {
			ls[k] = entries[i].Wave
		}
		s.messages++
		if localDst {
			// Same worker: reliable in-process delivery, no seq needed.
			dst := s.subs[rp]
			for _, e := range entries {
				dst.SetIncomingByLink(int(e.LinkID), e.Wave)
			}
			s.markDirty(rp)
			continue
		}
		key := [2]int32{part, rp}
		s.sentSeq[key]++
		seq := s.sentSeq[key]
		if !retransmit {
			s.needed[key] = seq
		}
		pkt := transport.Packet{
			Kind: transport.KindWave, FromPart: part, ToPart: rp,
			Seq: seq, Epoch: s.epoch, Inc: s.w.Incarnation, Entries: entries,
		}
		// Best-effort: a failed send is a lost datagram; the watchdog sweep
		// re-announces.
		_ = s.w.tr.Send(s.ctx, s.a.Owner[remote], pkt)
	}
}

// retransmit is the watchdog sweep: re-announce every owned part's current
// waves to its remote neighbours.
func (s *workerSession) retransmit() {
	for _, part := range s.owned {
		s.sendWaves(part, false, true)
	}
}

// solveDirty solves one dirty part and announces its new waves.
func (s *workerSession) solveDirty() bool {
	part, ok := s.popDirty()
	if !ok {
		return false
	}
	sub := s.subs[part]
	change := sub.Solve()
	s.solves++
	s.lastChange[part] = change
	s.solvedOnce[part] = true
	s.sendWaves(part, false, false)
	return true
}

// handleWave applies a received wave packet to the owned destination part,
// unless the fences (epoch, incarnation, LWW sequence) discard it.
func (s *workerSession) handleWave(pkt *transport.Packet) {
	sub, ok := s.subs[pkt.ToPart]
	if !ok {
		return // not ours — stale assignment or misroute; drop
	}
	if !s.dedup.Fresh(pkt) {
		return // duplicate, overtaken, or fenced (stale epoch/incarnation)
	}
	for _, e := range pkt.Entries {
		sub.SetIncomingByLink(int(e.LinkID), e.Wave)
	}
	s.markDirty(pkt.ToPart)
}

// status assembles the poll reply: per-part convergence state plus the
// recovery protocol's sequence-number frontier, stamped with the epoch and
// incarnation that produced it.
func (s *workerSession) status() *statusMsg {
	st := &statusMsg{
		Solves: s.solves, Messages: s.messages,
		Inc: s.w.Incarnation, Epoch: s.epoch,
		Fenced: s.dedup.Fenced(), BadCtrl: s.w.badCtrl.Load(),
	}
	for _, part := range s.owned {
		sub := s.subs[part]
		ports := make([]float64, sub.NumPorts())
		for q := range ports {
			ports[q] = sub.PortPotential(q)
		}
		st.Parts = append(st.Parts, partStatus{
			Part:       part,
			SolvedOnce: s.solvedOnce[part],
			LastChange: s.lastChange[part],
			Ports:      ports,
		})
		// Incoming cross-member pairs: the applied frontier.
		for _, remote := range sub.AdjacentParts() {
			if s.a.Owner[remote] == s.self {
				continue
			}
			rp := int32(remote)
			st.Applied = append(st.Applied, pairSeq{From: rp, To: part, Seq: s.dedup.Applied(rp, part)})
		}
	}
	for key, seq := range s.needed {
		st.Needed = append(st.Needed, pairSeq{From: key[0], To: key[1], Seq: seq})
	}
	return st
}

// heartbeat assembles the periodic liveness beat: incarnation, epoch, the
// sequence frontiers, and one boundary snapshot per owned part (small: the
// incoming wave per DTL end, never interior unknowns) — the state the
// coordinator retains as last-known-good for failover.
func (s *workerSession) heartbeat() *heartbeatMsg {
	hb := &heartbeatMsg{Inc: s.w.Incarnation, Epoch: s.epoch}
	for _, part := range s.owned {
		sub := s.subs[part]
		ends := sub.Ends()
		inc := make([]float64, len(ends))
		for k := range ends {
			inc[k] = sub.Incoming(k)
		}
		hb.Snaps = append(hb.Snaps, partSnap{Part: part, Incoming: inc})
		for _, remote := range sub.AdjacentParts() {
			if s.a.Owner[remote] == s.self {
				continue
			}
			rp := int32(remote)
			hb.Applied = append(hb.Applied, pairSeq{From: rp, To: part, Seq: s.dedup.Applied(rp, part)})
		}
	}
	for key, seq := range s.needed {
		hb.Needed = append(hb.Needed, pairSeq{From: key[0], To: key[1], Seq: seq})
	}
	return hb
}

func (s *workerSession) sendHeartbeat() {
	_ = sendCtrl(s.ctx, s.w.tr, s.coord, &ctrlMsg{Type: msgHeartbeat, HB: s.heartbeat()})
}

// applyReassign installs a fenced ownership change: adopt newly owned parts
// (seeded from the carried snapshots), drop handed-back parts, advance the
// epoch fence, and restart the per-pair sequence numbering. Stale or
// malformed reassigns are dropped. The announcement machinery resets so the
// next solves re-announce every boundary under the new epoch.
func (s *workerSession) applyReassign(m *reassignMsg) error {
	if m.Epoch <= s.epoch {
		return nil // duplicate or out-of-order reassign: already there
	}
	// Renew the lease before adopting: factorising inherited subdomains can
	// outlast a heartbeat interval, and a worker must not be declared dead
	// for doing the failover's own work.
	s.sendHeartbeat()
	newOwner := m.Assign.Owner
	if len(newOwner) != s.p.Partition.NumParts() {
		s.w.badCtrl.Add(1)
		return nil
	}
	// Adopt first (factorisation can fail — report before mutating the rest).
	var adopted []int32
	for part := 0; part < len(newOwner); part++ {
		p32 := int32(part)
		if newOwner[part] == s.self && s.subs[p32] == nil {
			if err := s.adopt(p32); err != nil {
				return err
			}
			adopted = append(adopted, p32)
		}
	}
	for part := 0; part < len(newOwner); part++ {
		p32 := int32(part)
		if newOwner[part] != s.self && s.subs[p32] != nil {
			s.drop(p32)
		}
	}
	s.restoreSnaps(m.Snaps)
	s.warmup(adopted)
	s.a.Owner = newOwner
	s.epoch = m.Epoch
	s.dedup.Advance(m.Epoch)
	clear(s.sentSeq)
	clear(s.needed)
	for part, ls := range s.lastSent {
		for i := range ls {
			ls[i] = math.NaN()
		}
		s.lastSent[part] = ls
	}
	if len(s.owned) == 0 {
		return nil
	}
	s.markAllDirty()
	s.w.logf("worker %d (inc %d): epoch %d, owns parts %v", s.self, s.w.Incarnation, s.epoch, s.owned)
	s.sendHeartbeat()
	return nil
}

// run is the solve loop: drain the network, solve dirty parts, retransmit on
// watchdog silence, heartbeat the coordinator, answer polls, stop on command.
func (s *workerSession) run() error {
	// Pump receives into a channel so the loop can select over the timers.
	sessCtx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	rx := make(chan transport.Packet, 1024)
	pumpErr := make(chan error, 1)
	go func() {
		for {
			pkt, err := s.w.tr.Recv(sessCtx)
			if err != nil {
				pumpErr <- err
				close(rx)
				return
			}
			rx <- pkt
		}
	}()

	wdInterval := time.Duration(s.a.WatchdogMS) * time.Millisecond
	if wdInterval <= 0 {
		wdInterval = 50 * time.Millisecond
	}
	wd := time.NewTicker(wdInterval)
	defer wd.Stop()
	hbInterval := time.Duration(s.a.HeartbeatMS) * time.Millisecond
	if hbInterval <= 0 {
		hbInterval = 25 * time.Millisecond
	}
	hb := time.NewTicker(hbInterval)
	defer hb.Stop()
	// The deadlines are checked at the top of every iteration, not only in
	// the idle select: a worker busy solving a long dirty backlog must still
	// heartbeat, or the coordinator declares it dead for doing its job. The
	// tickers below only wake the idle select.
	nextHB := time.Now().Add(hbInterval)
	nextWD := time.Now().Add(wdInterval)

	for {
		now := time.Now()
		if !now.Before(nextHB) {
			s.sendHeartbeat()
			nextHB = now.Add(hbInterval)
		}
		if s.started && !now.Before(nextWD) {
			s.retransmit()
			nextWD = now.Add(wdInterval)
		}
		// Drain everything already queued before doing local work, so a
		// burst is folded in as one batch like the DES engine's OnMessages.
		for {
			var pkt transport.Packet
			var ok bool
			select {
			case pkt, ok = <-rx:
			default:
				ok = false
			}
			if !ok {
				break
			}
			stop, err := s.handle(&pkt)
			if err != nil || stop {
				return err
			}
		}
		if s.started && s.solveDirty() {
			continue
		}
		select {
		case pkt, ok := <-rx:
			if !ok {
				return <-pumpErr
			}
			stop, err := s.handle(&pkt)
			if err != nil || stop {
				return err
			}
		case <-wd.C:
		case <-hb.C:
		case <-s.ctx.Done():
			return s.ctx.Err()
		}
	}
}

// handle processes one packet; it reports stop=true when the session is done.
func (s *workerSession) handle(pkt *transport.Packet) (bool, error) {
	if pkt.Kind == transport.KindWave {
		if s.started {
			s.handleWave(pkt)
		}
		return false, nil
	}
	m, err := decodeCtrl(pkt)
	if err != nil {
		s.w.badCtrl.Add(1)
		return false, nil // corrupt control packet: drop, never panic
	}
	switch m.Type {
	case msgStart:
		s.started = true
		// Boot: announce the zero initial waves of (5.6) on every pair.
		// Receivers (local and remote) fold them in and solve — the
		// asynchronous exchange bootstraps itself from there.
		for _, part := range s.owned {
			s.sendWaves(part, true, false)
		}
		// A worker whose parts have only local neighbours must seed itself.
		s.markAllDirty()
	case msgStatusRq:
		_ = sendCtrl(s.ctx, s.w.tr, int(pkt.From), &ctrlMsg{Type: msgStatus, Status: s.status()})
	case msgReassign:
		if m.Reassign == nil {
			s.w.badCtrl.Add(1)
			return false, nil
		}
		if err := s.applyReassign(m.Reassign); err != nil {
			return true, err
		}
	case msgStop:
		res := &resultMsg{}
		owner := s.p.OwnerPairs()
		for _, part := range s.owned {
			x := s.subs[part].X()
			for _, pair := range owner[part] {
				res.Index = append(res.Index, int32(pair[1]))
				res.Value = append(res.Value, x[pair[0]])
			}
		}
		if err := sendCtrlRetry(s.ctx, s.w.tr, int(pkt.From), &ctrlMsg{Type: msgResult, Result: res}); err != nil {
			return true, err
		}
		s.w.logf("worker %d: session done (%d solves, %d messages, %d fenced)", s.self, s.solves, s.messages, s.dedup.Fenced())
		return true, nil
	case msgShutdown:
		return true, transport.ErrClosed
	}
	return false, nil
}

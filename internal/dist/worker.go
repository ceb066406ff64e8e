package dist

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/factor"
	"repro/internal/transport"
)

// Worker owns a group of subdomains in a distributed run: it factorises them
// once on assignment, then reacts to whatever waves arrive — solve, announce,
// repeat — with no synchronisation, exactly the per-processor loop of
// Table 1 in the paper. That loop and its reliability protocol are a
// core.Shard; the worker drives it from the transport, a watchdog ticker and
// the coordinator's control messages.
//
// Failover: an in-session worker heartbeats its incarnation, epoch and
// per-part boundary snapshots to the coordinator;
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

	badCtrl atomic.Uint64
	// rx carries everything Run's receive pump takes off the transport, to
	// the idle loop and to the session in progress alike.
	rx chan transport.Packet
}

// NewWorker wraps a transport member into a worker (incarnation 1).
func NewWorker(tr transport.Transport) *Worker { return &Worker{tr: tr, Incarnation: 1} }

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Run serves solve sessions until the context is cancelled, the transport
// closes, or a shutdown message arrives. Each session is one
// assign→ready→start→solve→stop→result cycle; the worker outlives sessions,
// and every session tears the spec and factorises its owned parts afresh. A
// reassign addressed to an idle worker (the rejoin path) starts a mid-solve
// session directly.
func (w *Worker) Run(ctx context.Context) error {
	// Pump receives into a channel, so a session's loop can select over its
	// timers. One pump serves the worker's whole life: a pump per session
	// would go on taking packets off the transport after its session ended,
	// and a shutdown (or the next assign) swallowed that way is never seen.
	pumpCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	rx := make(chan transport.Packet, 1024) // a burst of waves from every neighbour
	w.rx = rx
	var pumpErr error
	go func() {
		defer close(rx)
		for {
			pkt, err := w.tr.Recv(pumpCtx)
			if err != nil {
				pumpErr = err
				return
			}
			select {
			case rx <- pkt:
			case <-pumpCtx.Done():
				return
			}
		}
	}()
	for {
		pkt, ok := <-rx
		if !ok {
			if errors.Is(pumpErr, transport.ErrClosed) || ctx.Err() != nil {
				return nil
			}
			return pumpErr
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
	var snaps []partSnap
	if re != nil {
		snaps = re.Snaps
		// Renew the lease before tearing and factorising: a rejoining worker
		// rebuilds the whole problem from the spec, which can outlast a lease
		// on a slow machine, and being re-declared dead for doing the
		// rejoin's own work would churn the epoch budget away.
		_ = sendCtrl(ctx, w.tr, coord, &ctrlMsg{Type: msgHeartbeat,
			HB: &heartbeatMsg{Inc: w.Incarnation, Epoch: re.Epoch}})
	}
	s, err := w.newSession(ctx, coord, a, snaps)
	if err != nil {
		return err
	}
	if re != nil {
		s.started = true
		s.shard.Wake()
		s.sendHeartbeat()
	} else if err := sendCtrlRetry(ctx, w.tr, coord, &ctrlMsg{Type: msgReady, Ready: s.ready()}); err != nil {
		return err
	}
	return s.run()
}

// newSession tears the spec, factorises the owned subdomains (seeding them
// from snaps, which a rejoin carries) and builds the per-assignment solve
// state. It performs no network handshake — session and the stepped tests
// drive that.
func (w *Worker) newSession(ctx context.Context, coord int, a *assignMsg, snaps []partSnap) (*workerSession, error) {
	self := w.tr.Self()
	p, err := a.Spec.Build()
	if err != nil {
		return nil, err
	}
	nParts := p.Partition.NumParts()
	if len(a.Owner) != nParts {
		return nil, fmt.Errorf("dist: assignment maps %d parts, problem tears into %d", len(a.Owner), nParts)
	}
	zs, err := p.Impedances(nil)
	if err != nil {
		return nil, err
	}
	s := &workerSession{w: w, ctx: ctx, coord: coord, a: a, p: p, self: self, zs: zs}
	s.shard = core.NewShard(self, a.Owner, a.Epoch, a.SendThreshold, s.send)
	if err := s.own(a.Owner, snaps); err != nil {
		return nil, err
	}
	if len(s.shard.Owned()) == 0 {
		return nil, fmt.Errorf("dist: worker %d owns no parts", self)
	}
	w.logf("worker %d (inc %d): owns parts %v (%d unknowns total)", self, w.Incarnation, s.shard.Owned(), p.System.Dim())
	return s, nil
}

// workerSession is the per-assignment state: the control plane around one
// core.Shard, which carries the solve loop and the wave-reliability protocol.
type workerSession struct {
	w     *Worker
	ctx   context.Context
	coord int
	a     *assignMsg
	p     *core.Problem
	self  int
	zs    []float64

	started bool
	shard   *core.Shard
}

// own makes the shard hold exactly the parts the ownership map gives this
// worker: parts handed to someone else are dropped, newly owned ones torn,
// factorised — only the owned subdomains, the whole point of sharding — and
// adopted, seeded from their snapshot when snaps carries one.
func (s *workerSession) own(owner []int, snaps []partSnap) error {
	for part, w := range owner {
		if w != s.self {
			s.shard.Drop(int32(part))
			continue
		}
		if s.shard.Sub(int32(part)) != nil {
			continue
		}
		sd, err := core.NewSubdomain(s.p.Partition.Subdomains[part], s.p.Partition.LinksOfPart(part), s.zs,
			factor.Settings{Backend: s.a.LocalSolver})
		if err != nil {
			return fmt.Errorf("dist: building subdomain %d: %w", part, err)
		}
		var snap []float64
		for _, sn := range snaps {
			if int(sn.Part) == part {
				snap = sn.Incoming
			}
		}
		s.shard.Adopt(sd, snap)
	}
	return nil
}

// send is the shard's emit: stamp the wave with this life's incarnation, so
// receivers can fence zombie traffic, and hand it to the transport.
// Best-effort — a failed send is a lost datagram, and the watchdog sweep
// re-announces.
func (s *workerSession) send(to int, pkt transport.Packet) {
	pkt.Inc = s.w.Incarnation
	_ = s.w.tr.Send(s.ctx, to, pkt)
}

// ready reports the torn problem's shape: its dimension and twin links.
func (s *workerSession) ready() *readyMsg {
	links := make(transport.Packed[int32], 0, 4*len(s.p.Partition.Links))
	for _, l := range s.p.Partition.Links {
		links = append(links, int32(l.PartA), int32(l.PortA), int32(l.PartB), int32(l.PortB))
	}
	return &readyMsg{Dim: s.p.System.Dim(), Links: links}
}

// status assembles the poll reply: the shard's state, stamped with the epoch
// and incarnation that produced it.
func (s *workerSession) status() *statusMsg {
	return &statusMsg{
		ShardState: s.shard.State(),
		Inc:        s.w.Incarnation, Epoch: s.shard.Epoch(),
		BadCtrl: s.w.badCtrl.Load(),
	}
}

// heartbeat assembles the periodic liveness beat: incarnation, epoch, and one
// boundary snapshot per owned part — the state the coordinator retains as
// last-known-good for failover.
func (s *workerSession) heartbeat() *heartbeatMsg {
	hb := &heartbeatMsg{Inc: s.w.Incarnation, Epoch: s.shard.Epoch()}
	for _, part := range s.shard.Owned() {
		hb.Snaps = append(hb.Snaps, partSnap{Part: part, Incoming: s.shard.Incoming(part)})
	}
	return hb
}

func (s *workerSession) sendHeartbeat() {
	s.sendBestEffort(s.coord, &ctrlMsg{Type: msgHeartbeat, HB: s.heartbeat()})
}

// sendBestEffort sends m and drops a transport failure — the next beat or
// poll sends again — but logs a message encoding/json refuses, which no
// repeat can send.
func (s *workerSession) sendBestEffort(to int, m *ctrlMsg) {
	if err := sendCtrl(s.ctx, s.w.tr, to, m); errors.Is(err, errEncode) {
		s.w.logf("worker %d: %v", s.self, err)
	}
}

// applyReassign installs a fenced ownership change: adopt newly owned parts
// (seeded from the carried snapshots), drop handed-back parts, and advance
// the shard to the new epoch, which restarts the sequence numbering and makes
// every part re-announce its boundary. Stale or malformed reassigns are
// dropped.
func (s *workerSession) applyReassign(m *reassignMsg) error {
	if m.Epoch <= s.shard.Epoch() {
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
	if err := s.own(newOwner, m.Snaps); err != nil {
		return err
	}
	s.a.Owner = newOwner
	s.shard.Advance(m.Epoch, newOwner)
	if len(s.shard.Owned()) == 0 {
		return nil
	}
	s.w.logf("worker %d (inc %d): epoch %d, owns parts %v", s.self, s.w.Incarnation, s.shard.Epoch(), s.shard.Owned())
	s.sendHeartbeat()
	return nil
}

// run is the solve loop: drain the network, solve dirty parts, retransmit on
// watchdog silence, heartbeat the coordinator, answer polls, stop on command.
func (s *workerSession) run() error {
	wdInterval := time.Duration(s.a.WatchdogMS) * time.Millisecond
	if wdInterval <= 0 {
		wdInterval = 50 * time.Millisecond
	}
	hbInterval := time.Duration(s.a.HeartbeatMS) * time.Millisecond
	if hbInterval <= 0 {
		hbInterval = 25 * time.Millisecond
	}
	// The deadlines are checked at the top of every iteration, not only in
	// the idle select: a worker busy solving a long dirty backlog must still
	// heartbeat, or the coordinator declares it dead for doing its job. The
	// ticker only wakes the idle select.
	tick := time.NewTicker(min(wdInterval, hbInterval))
	defer tick.Stop()
	nextHB := time.Now().Add(hbInterval)
	nextWD := time.Now().Add(wdInterval)

	for {
		now := time.Now()
		if !now.Before(nextHB) {
			s.sendHeartbeat()
			nextHB = now.Add(hbInterval)
		}
		if s.started && !now.Before(nextWD) {
			s.shard.Retransmit()
			nextWD = now.Add(wdInterval)
		}
		// Take what is already queued before doing local work, so a burst is
		// folded in as one batch; block only when nothing is left to solve.
		var pkt transport.Packet
		ok := true
		select {
		case pkt, ok = <-s.w.rx:
		default:
			if s.started && s.shard.SolveDirty() {
				continue
			}
			select {
			case pkt, ok = <-s.w.rx:
			case <-tick.C:
				continue
			}
		}
		if !ok {
			return transport.ErrClosed // Run reports why the pump stopped
		}
		if stop, err := s.handle(&pkt); err != nil || stop {
			return err
		}
	}
}

// handle processes one packet; it reports stop=true when the session is done.
func (s *workerSession) handle(pkt *transport.Packet) (bool, error) {
	if pkt.Kind == transport.KindWave {
		if s.started {
			s.shard.Receive(pkt)
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
		s.shard.Wake()
	case msgStatusRq:
		s.sendBestEffort(int(pkt.From), &ctrlMsg{Type: msgStatus, Round: m.Round, Status: s.status()})
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
		for _, part := range s.shard.Owned() {
			x := s.shard.Sub(part).X()
			for _, pair := range owner[part] {
				res.Index = append(res.Index, int32(pair[1]))
				res.Value = append(res.Value, x[pair[0]])
			}
		}
		if err := sendCtrlRetry(s.ctx, s.w.tr, int(pkt.From), &ctrlMsg{Type: msgResult, Result: res}); err != nil {
			return true, err
		}
		st := s.shard.State()
		s.w.logf("worker %d: session done (%d solves, %d messages, %d fenced)", s.self, st.Solves, st.Messages, st.Fenced)
		return true, nil
	case msgShutdown:
		return true, transport.ErrClosed
	}
	return false, nil
}

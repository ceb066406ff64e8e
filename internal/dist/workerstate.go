package dist

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/factor"
	"repro/internal/transport"
)

// workerState is the worker's control plane with no I/O in it: Worker.Run
// feeds it the clock and what arrives, and sends what it returns. It is idle
// (shard nil) or in a session: one assignment, the problem it tears into and
// the core.Shard holding the owned parts, whose waves leave through emit, the
// send function the driver supplies. A test can drive it with a fake clock.
type workerState struct {
	self int
	inc  uint32
	// fleet is the transport's membership, ascending: the member ids an
	// ownership map may name (core.Shard sizes and indexes its per-member
	// state by them).
	fleet []int
	emit  func(to int, pkt transport.Packet)
	logf  func(format string, args ...any)
	outs  []out

	// pending is an assign or reassign whose build the next Tick does.
	// Tearing and factorising can outlast a lease, so Handle returns the
	// heartbeat that renews it, and the work waits until that has left.
	pending *ctrlMsg

	coord          int
	a              *assignMsg
	fs             factor.Settings
	p              *core.Problem
	zs             []float64
	shard          *core.Shard
	started        bool
	nextHB, nextWD time.Time

	// silent is what the coordinator was last told (quiet); newsSeen is the
	// shard's NewsSent at the previous idle tick, and fresh says a part
	// solved since the last notice.
	silent, fresh bool
	newsSeen      int
}

func (s *workerState) send(to int, m *ctrlMsg, retry bool) {
	s.outs = append(s.outs, out{to, m, retry})
}

// Handle folds one packet into the state and returns what to send, and
// whether the worker is told to exit. A wave reaches the shard only once the
// session has started; a control frame that does not decode is dropped and
// counted. Run ticks after every Handle: an assign or reassign that builds is
// left to that Tick, and a reassign renews the lease first — a worker must
// not be declared dead for doing the failover's own work.
func (s *workerState) Handle(pkt *transport.Packet) (outs []out, exit bool) {
	defer func() { outs, s.outs = s.outs, nil }()
	if pkt.Kind == transport.KindWave {
		if s.started {
			s.shard.Receive(pkt)
		}
		return nil, false
	}
	m, err := decodeCtrl(pkt)
	if err != nil {
		s.logf("worker %d: %v", s.self, err)
		return nil, false
	}
	from, idle := int(pkt.From), s.shard == nil
	switch re := m.Reassign; {
	case m.Type == msgShutdown:
		return nil, true
	case m.Type == msgStatusRq && idle:
		// No session to report on: hello with the incarnation, so the
		// coordinator can hand parts back (rejoin) on the next epoch.
		s.send(from, &ctrlMsg{Type: msgHello, HB: &heartbeatMsg{Inc: s.inc}}, false)
	case m.Type == msgStatusRq:
		st := s.status()
		if part, ok := diverged(st.Parts); ok {
			// NaN and ±Inf never leave a part once they appear, so the session
			// cannot converge: fail it now rather than at its deadline.
			s.send(from, &ctrlMsg{Type: msgStatus, Round: m.Round, Err: fmt.Sprintf("part %d diverged", part)}, false)
			break
		}
		s.send(from, &ctrlMsg{Type: msgStatus, Round: m.Round, Status: st}, false)
	case m.Type == msgAssign && m.Assign == nil, m.Type == msgReassign && re == nil:
		// Malformed: dropped.
	case m.Type == msgAssign && idle:
		s.begin(from, m, m.Assign)
	case m.Type == msgReassign && idle:
		// A rejoin (or a late adoption): the reassign is self-contained, so
		// an idle worker starts a session mid-solve from it.
		if s.begin(from, m, &re.Assign) {
			s.send(from, &ctrlMsg{Type: msgHeartbeat, HB: &heartbeatMsg{Inc: s.inc, Epoch: re.Epoch}}, false)
		}
	case m.Type == msgReassign && re.Epoch <= s.shard.Epoch():
		// A duplicate or out-of-order reassign: already there.
	case m.Type == msgReassign && len(re.Assign.Owner) != s.p.Partition.NumParts(),
		m.Type == msgReassign && !s.inFleet(re.Assign.Owner):
		// Malformed: dropped.
	case m.Type == msgReassign:
		s.pending = m
		s.beat()
	case m.Type == msgStart && !idle:
		s.started = true
		s.shard.Wake()
	case m.Type == msgStop && !idle:
		s.stop(from)
	}
	return nil, false
}

// begin takes an assign, or a reassign to an idle worker, as a session the
// next Tick builds, and reports whether it did. An ownership map that names
// a member outside the fleet, or an interval that is not positive, is
// refused by name: the coordinator sends neither.
func (s *workerState) begin(from int, m *ctrlMsg, a *assignMsg) bool {
	s.coord = from
	switch {
	case !s.inFleet(a.Owner):
		s.fail(fmt.Errorf("dist: %s gives parts to members outside the fleet %v", m.Type, s.fleet))
	case a.WatchdogMS <= 0:
		s.fail(fmt.Errorf("dist: %s with watchdogMS %d, want a positive interval", m.Type, a.WatchdogMS))
	case a.HeartbeatMS <= 0:
		s.fail(fmt.Errorf("dist: %s with heartbeatMS %d, want a positive interval", m.Type, a.HeartbeatMS))
	default:
		s.pending = m
		return true
	}
	return false
}

// inFleet reports whether every member an ownership map names is in the
// fleet. It is checked on receipt, before anything is sized by those ids.
func (s *workerState) inFleet(owner []int) bool {
	for _, m := range owner {
		if _, ok := slices.BinarySearch(s.fleet, m); !ok {
			return false
		}
	}
	return true
}

// fail ends the session, if any, and reports err so the run can be aborted.
func (s *workerState) fail(err error) {
	s.logf("worker %d: session: %v", s.self, err)
	s.send(s.coord, &ctrlMsg{Type: msgReady, Err: err.Error()}, true)
	s.end()
}

// end returns the worker to idle.
func (s *workerState) end() {
	s.a, s.p, s.zs, s.shard, s.started = nil, nil, nil, nil, false
	s.silent, s.fresh, s.newsSeen = false, false, 0
}

// Tick advances the state to now: it does the build Handle left, sends the
// heartbeat and runs the watchdog's Retransmit when they are due, and, when
// idle says Run's last receive found the inbox empty, solves one dirty part
// or, with none to solve, tells the coordinator whether the shard is silent
// (tell). It returns what to send and the next deadline: zero when nothing
// is due before a packet arrives, now itself when it solved, as more work
// may wait.
func (s *workerState) Tick(now time.Time, idle bool) (next time.Time, outs []out) {
	defer func() { outs, s.outs = s.outs, nil }()
	if m := s.pending; m != nil {
		s.pending = nil
		if err := s.apply(now, m); err != nil {
			s.fail(err)
		}
	}
	if s.shard == nil {
		return time.Time{}, nil
	}
	// The deadlines come first on every tick: a worker busy with a long dirty
	// backlog must still heartbeat, or it is declared dead for doing its job.
	if !now.Before(s.nextHB) {
		s.beat()
		s.nextHB = now.Add(time.Duration(s.a.HeartbeatMS) * time.Millisecond)
	}
	if !s.started {
		return s.nextHB, nil
	}
	if !now.Before(s.nextWD) {
		s.shard.Retransmit()
		s.nextWD = now.Add(time.Duration(s.a.WatchdogMS) * time.Millisecond)
	}
	if idle {
		if s.shard.SolveDirty() {
			s.fresh = true
			return now, nil
		}
		s.tell()
	}
	if s.nextWD.Before(s.nextHB) {
		return s.nextWD, nil
	}
	return s.nextHB, nil
}

// apply does a build Handle left. Idle, it starts the session of an assign
// (answering ready) or of a reassign (a rejoin, solving at once from the
// carried snapshots); in a session, it installs a reassign's ownership map:
// newly owned parts adopted from their snapshots, handed-back parts dropped,
// and the shard advanced to the new epoch, which restarts the sequence
// numbering and makes every part re-announce its boundary.
func (s *workerState) apply(now time.Time, m *ctrlMsg) error {
	if s.shard != nil {
		re := m.Reassign
		if err := s.own(re.Assign.Owner, re.Snaps); err != nil {
			return err
		}
		s.shard.Advance(re.Epoch, re.Assign.Owner)
		s.silent = false // as the coordinator's reassign leaves it
		if len(s.shard.Owned()) > 0 {
			s.logf("worker %d (inc %d): epoch %d, owns parts %v", s.self, s.inc, s.shard.Epoch(), s.shard.Owned())
			s.beat()
		}
		return nil
	}
	a, snaps := m.Assign, []partSnap(nil)
	if m.Type == msgReassign {
		a, snaps = &m.Reassign.Assign, m.Reassign.Snaps
	}
	if err := s.build(a, snaps); err != nil {
		return err
	}
	s.nextHB = now.Add(time.Duration(a.HeartbeatMS) * time.Millisecond)
	s.nextWD = now.Add(time.Duration(a.WatchdogMS) * time.Millisecond)
	if m.Type == msgAssign {
		s.send(s.coord, &ctrlMsg{Type: msgReady, Ready: s.ready()}, true)
		return nil
	}
	s.started = true
	s.shard.Wake()
	s.beat()
	return nil
}

// build tears the spec and factorises the owned subdomains, seeding them from
// snaps, which a rejoin carries.
func (s *workerState) build(a *assignMsg, snaps []partSnap) error {
	ord, err := factor.ParseOrdering(a.Ordering)
	if err != nil {
		return err
	}
	p, err := a.Spec.Build()
	if err != nil {
		return err
	}
	if nParts := p.Partition.NumParts(); len(a.Owner) != nParts {
		return fmt.Errorf("dist: assignment maps %d parts, problem tears into %d", len(a.Owner), nParts)
	}
	if s.zs, err = p.Impedances(nil); err != nil {
		return err
	}
	s.a, s.p, s.fs = a, p, factor.Settings{Backend: a.Backend, Ordering: ord}
	s.shard = core.NewShard(s.self, a.Owner, a.Epoch, a.SendThreshold, func(to int, pkt *transport.Packet) {
		pkt.Inc = s.inc // receivers fence the waves of an overtaken life
		s.emit(to, *pkt)
	})
	if err := s.own(a.Owner, snaps); err != nil {
		return err
	}
	if len(s.shard.Owned()) == 0 {
		return fmt.Errorf("dist: worker %d owns no parts", s.self)
	}
	s.logf("worker %d (inc %d): owns parts %v (%d unknowns total)", s.self, s.inc, s.shard.Owned(), p.System.Dim())
	return nil
}

// own makes the shard hold exactly the parts the ownership map gives this
// worker: parts handed to someone else are dropped, newly owned ones torn,
// factorised — only the owned subdomains, the whole point of sharding — and
// adopted, seeded from their snapshot when snaps carries one.
func (s *workerState) own(owner []int, snaps []partSnap) error {
	for part, w := range owner {
		if w != s.self {
			s.shard.Drop(int32(part))
			continue
		}
		if s.shard.Sub(int32(part)) != nil {
			continue
		}
		sd, err := core.NewSubdomain(s.p.Partition.Subdomains[part], s.p.Partition.LinksOfPart(part), s.zs, s.fs)
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

// stop ends the session with its result: the owner fragments of X of the
// owned parts (core.Problem.Owns).
func (s *workerState) stop(to int) {
	n := 0
	for _, part := range s.shard.Owned() {
		n += s.p.NumOwned(int(part))
	}
	res := &resultMsg{Index: make([]int32, 0, n), Value: make([]float64, 0, n)}
	for _, part := range s.shard.Owned() {
		x := s.shard.Sub(part).X()
		for li, gv := range s.p.Partition.Subdomains[part].GlobalIdx {
			if s.p.Owns(int(part), li) {
				res.Index = append(res.Index, int32(gv))
				res.Value = append(res.Value, x[li])
			}
		}
	}
	// The result's status carries only the session's counters, the one part
	// of it the coordinator reads: it totals them over the final owners.
	st := s.shard.State()
	final := core.ShardState{Solves: st.Solves, Messages: st.Messages, Fenced: st.Fenced}
	s.send(to, &ctrlMsg{Type: msgResult, Result: res, Status: &statusMsg{ShardState: final}}, true)
	s.logf("worker %d: session done (%d solves, %d messages, %d fenced)", s.self, st.Solves, st.Messages, st.Fenced)
	s.end()
}

// tell sends the coordinator a quiet notice at an idle tick with nothing to
// solve. The shard is silent when no part is dirty or owed and it sent no
// news since the previous idle tick. The notice says true when the shard
// turns silent, or is silent again after fresh solves, and false when it
// stops being silent. It is sent once, like a poll: a lost one costs the
// coordinator one PollInterval.
func (s *workerState) tell() {
	news := s.shard.NewsSent()
	silent := s.shard.Backlog() == 0 && news == s.newsSeen
	s.newsSeen = news
	if silent == s.silent && !(silent && s.fresh) {
		return
	}
	s.silent, s.fresh = silent, false
	s.send(s.coord, &ctrlMsg{Type: msgQuiet, Quiet: silent}, false)
}

// ready reports the torn problem's shape: its dimension and twin links.
func (s *workerState) ready() *readyMsg {
	links := make([]int32, 0, 4*len(s.p.Partition.Links))
	for _, l := range s.p.Partition.Links {
		links = append(links, int32(l.PartA), int32(l.PortA), int32(l.PartB), int32(l.PortB))
	}
	return &readyMsg{Dim: s.p.System.Dim(), Links: links}
}

// status assembles the poll reply: the shard's state, stamped with the epoch
// that produced it.
func (s *workerState) status() *statusMsg {
	return &statusMsg{ShardState: s.shard.State(), Epoch: s.shard.Epoch()}
}

// diverged returns the first part whose last change or a port potential is
// not finite.
func diverged(parts []core.PartState) (int32, bool) {
	nonFinite := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	for _, p := range parts {
		if nonFinite(p.LastChange) || slices.ContainsFunc(p.Ports, nonFinite) {
			return p.Part, true
		}
	}
	return 0, false
}

// heartbeat assembles the periodic liveness beat: incarnation, epoch, and one
// boundary snapshot per owned part — the state the coordinator retains as
// last-known-good for failover.
func (s *workerState) heartbeat() *heartbeatMsg {
	hb := &heartbeatMsg{Inc: s.inc, Epoch: s.shard.Epoch()}
	for _, part := range s.shard.Owned() {
		hb.Snaps = append(hb.Snaps, partSnap{Part: part, Incoming: s.shard.Incoming(part)})
	}
	return hb
}

func (s *workerState) beat() {
	s.send(s.coord, &ctrlMsg{Type: msgHeartbeat, HB: s.heartbeat()}, false)
}

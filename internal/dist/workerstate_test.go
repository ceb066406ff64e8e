package dist

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/factor"
	"repro/internal/sparse"
	"repro/internal/transport"
)

// stepState is a worker state for member tr whose waves go out over tr: what
// Run drives, without the loop.
func stepState(tr transport.Transport, inc uint32) *workerState {
	return &workerState{self: tr.Self(), inc: inc, fleet: members(tr), logf: func(string, ...any) {},
		emit: func(to int, pkt transport.Packet) { _ = tr.Send(context.Background(), to, pkt) }}
}

// ctrlPacket is m as it arrives from member from.
func ctrlPacket(t testing.TB, from int, m *ctrlMsg) *transport.Packet {
	t.Helper()
	return &transport.Packet{Kind: transport.KindControl, From: int32(from), Ctrl: encodeCtrl(m)}
}

// stepMsg hands s the control message m from member from and runs the tick
// Run runs after it, returning what both sent.
func stepMsg(t testing.TB, s *workerState, from int, m *ctrlMsg) []out {
	t.Helper()
	outs, _ := s.Handle(ctrlPacket(t, from, m))
	_, more := s.Tick(time.Unix(1000, 0), false)
	return append(outs, more...)
}

// stepSession is a worker state on tr that coord assigned a: built and
// ready, not started.
func stepSession(t testing.TB, tr transport.Transport, inc uint32, coord int, a *assignMsg) *workerState {
	t.Helper()
	s := stepState(tr, inc)
	if outs := stepMsg(t, s, coord, &ctrlMsg{Type: msgAssign, Assign: a}); s.shard == nil {
		t.Fatalf("assign refused: %s", outs[len(outs)-1].m.Err)
	}
	return s
}

// TestWorkerRefusesNonPositiveIntervals: an assign or a rejoin whose watchdog
// or heartbeat interval is not positive is refused by a ready naming the
// field, before anything is torn. There is no fallback interval: the defaults
// live in CoordConfig.normalize alone.
func TestWorkerRefusesNonPositiveIntervals(t *testing.T) {
	members := chanFabric(t, 2)
	for _, tc := range []struct {
		typ, field string
		edit       func(*assignMsg)
	}{
		{msgAssign, "watchdogMS", func(a *assignMsg) { a.WatchdogMS = 0 }},
		{msgAssign, "heartbeatMS", func(a *assignMsg) { a.HeartbeatMS = -25 }},
		{msgReassign, "watchdogMS", func(a *assignMsg) { a.WatchdogMS = -1 }},
		{msgReassign, "heartbeatMS", func(a *assignMsg) { a.HeartbeatMS = 0 }},
	} {
		a := steppedAssign(make([]int, quickSpec.Parts()))
		tc.edit(a)
		m := &ctrlMsg{Type: msgAssign, Assign: a}
		if tc.typ == msgReassign {
			m = &ctrlMsg{Type: msgReassign, Reassign: &reassignMsg{Epoch: 2, Assign: *a}}
		}
		s := stepState(members[0], 1)
		outs := stepMsg(t, s, 1, m)
		if len(outs) != 1 || outs[0].m.Type != msgReady || !outs[0].retry || !strings.Contains(outs[0].m.Err, tc.field) {
			t.Fatalf("%s with a bad %s: sent %d messages, want one ready naming the field", tc.typ, tc.field, len(outs))
		}
		if s.shard != nil {
			t.Fatalf("%s with a bad %s started a session", tc.typ, tc.field)
		}
	}
}

// TestWorkerRefusesOwnersOutsideTheFleet: core.Shard sizes and indexes its
// per-member state by the ids an ownership map names, so a worker checks
// them against its transport's membership on receipt. A worker in session,
// started and solving, is sent a reassign that gives a part to member −1,
// then one that gives it to member 2⁴⁰: it drops both and stays in session
// at its epoch, without a panic or an allocation sized by the id. An idle
// worker refuses an assign or a rejoin naming such a member with a ready
// that says so, before anything is torn.
func TestWorkerRefusesOwnersOutsideTheFleet(t *testing.T) {
	members := chanFabric(t, 2) // member 1 plays the coordinator
	s := stepSession(t, members[0], 1, 1, steppedAssign(make([]int, quickSpec.Parts())))
	stepMsg(t, s, 1, &ctrlMsg{Type: msgStart})
	for _, stranger := range []int{-1, 1 << 40} {
		owner := make([]int, quickSpec.Parts())
		owner[len(owner)-1] = stranger
		re := &reassignMsg{Epoch: 2, Assign: *steppedAssign(owner)}
		stepMsg(t, s, 1, &ctrlMsg{Type: msgReassign, Reassign: re})
		for range 20 {
			s.Tick(time.Unix(1000, 0), true)
		}
		if s.shard == nil || s.shard.Epoch() != 1 || len(s.shard.Owned()) != quickSpec.Parts() {
			t.Fatalf("a reassign naming member %d moved the session", stranger)
		}
	}
	for _, typ := range []string{msgAssign, msgReassign} {
		a := steppedAssign(make([]int, quickSpec.Parts()))
		a.Owner[0] = -1
		m := &ctrlMsg{Type: msgAssign, Assign: a}
		if typ == msgReassign {
			m = &ctrlMsg{Type: msgReassign, Reassign: &reassignMsg{Epoch: 2, Assign: *a}}
		}
		idle := stepState(members[0], 1)
		outs := stepMsg(t, idle, 1, m)
		if len(outs) != 1 || outs[0].m.Type != msgReady || !strings.Contains(outs[0].m.Err, "outside the fleet") || idle.shard != nil {
			t.Fatalf("an idle worker took a %s naming member -1", typ)
		}
	}
}

// TestWorkerFactorsUnderAssignedSettings: the backend and ordering an assign
// names reach the factor of every subdomain the worker builds. Each part's
// first solve must have the bytes of a subdomain built here under
// {sparse-cholesky, nd}, and not those under rcm, which a worker that dropped
// the ordering and fell back to auto would compute on blocks this small. An
// ordering the worker does not know is refused by a ready naming it.
func TestWorkerFactorsUnderAssignedSettings(t *testing.T) {
	members := chanFabric(t, 2)
	a := steppedAssign(make([]int, quickSpec.Parts()))
	a.Backend, a.Ordering = factor.SparseCholesky, factor.OrderND.String()
	s := stepSession(t, members[0], 1, 1, a)

	p, err := quickSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	zs, err := p.Impedances(nil)
	if err != nil {
		t.Fatal(err)
	}
	firstSolve := func(part int, fs factor.Settings) sparse.Vec {
		sd, err := core.NewSubdomain(p.Partition.Subdomains[part], p.Partition.LinksOfPart(part), zs, fs)
		if err != nil {
			t.Fatal(err)
		}
		sd.Solve()
		return sd.X()
	}
	for _, part := range s.shard.Owned() {
		sub := s.shard.Sub(part)
		sub.Solve()
		got := sub.X()
		want := firstSolve(int(part), factor.Settings{Backend: factor.SparseCholesky, Ordering: factor.OrderND})
		other := firstSolve(int(part), factor.Settings{Backend: factor.SparseCholesky, Ordering: factor.OrderRCM})
		if !sameBits(got, want) || sameBits(got, other) {
			t.Errorf("part %d: same bytes as nd %v, as rcm %v; want nd only", part, sameBits(got, want), sameBits(got, other))
		}
	}

	a.Ordering = "metis"
	outs := stepMsg(t, stepState(members[0], 1), 1, &ctrlMsg{Type: msgAssign, Assign: a})
	if len(outs) != 1 || outs[0].m.Type != msgReady || !strings.Contains(outs[0].m.Err, `"metis"`) {
		t.Errorf("an assign under ordering metis sent %+v, want one ready naming it", outs)
	}
}

func sameBits(a, b sparse.Vec) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// propSpec is the problem TestWorkerStateProperties tears: four parts of a 9²
// grid, cheap enough to build at every assign.
var propSpec = SpecV2{V: 2, Source: "grid:rows=9,cols=9,seed=5", PartsX: 2, PartsY: 2}

const propHB, propWD = 10 * time.Millisecond, 20 * time.Millisecond

// workerChecker drives the state of worker 1 — member 0 coordinates, member 2
// is its one peer — and checks every call against its own model of the
// session: the ownership map and epoch it handed over, whether it started,
// when a heartbeat last left and when the watchdog is next due.
type workerChecker struct {
	t     *testing.T
	rng   *rand.Rand
	s     *workerState
	desc  func() string
	pairs [][][2]int // propSpec's OwnerPairs
	ends  []int      // the DTL ends of each of propSpec's parts
	now   time.Time
	waves int // waves the state has emitted
	seq   uint64
	round int

	owner           []int // nil while idle
	epoch           uint32
	started         bool
	next            *ctrlMsg // the message whose build the next tick does
	lastBeat, wdDue time.Time
	told            bool // the last quiet notice said silent, this epoch

	// What the schedules reached.
	sessions, adopts, handbacks, stale, results, busyBeats, retransmits, notices int
}

func (c *workerChecker) fail(format string, args ...any) {
	c.t.Helper()
	c.t.Fatalf("%s: %s", c.desc(), fmt.Sprintf(format, args...))
}

// handle hands the state one packet and checks its answer. It reports
// whether the state told the worker to exit.
func (c *workerChecker) handle(pkt *transport.Packet) bool {
	c.t.Helper()
	s := c.s
	idle, waves, dirty := s.shard == nil, c.waves, 0
	var before core.ShardState
	if !idle {
		before = s.shard.State()
		dirty = before.Dirty
	}
	outs, exit := s.Handle(pkt)
	m, err := decodeCtrl(pkt)
	if pkt.Kind == transport.KindWave || err != nil {
		if len(outs) > 0 || exit || idle != (s.shard == nil) || idle && c.waves != waves {
			c.fail("a wave or an undecodable frame was answered, or started or ended a session")
		}
		return false
	}
	re := m.Reassign
	switch {
	case m.Type == msgShutdown:
		if !exit {
			c.fail("shutdown did not exit")
		}
		return true
	case m.Type == msgStatusRq && idle:
		if len(outs) != 1 || outs[0].m.Type != msgHello || outs[0].m.HB.Inc != s.inc {
			c.fail("an idle worker did not answer status? with hello")
		}
	case m.Type == msgStatusRq:
		if len(outs) != 1 || outs[0].m.Type != msgStatus {
			c.fail("status? for round %d was not answered with one status", m.Round)
		}
		if o := outs[0].m; o.Round != m.Round || o.Status.Epoch != c.epoch {
			c.fail("status? for round %d at epoch %d answered for round %d at epoch %d", m.Round, c.epoch, o.Round, o.Status.Epoch)
		}
	case m.Type == msgStop && !idle:
		c.checkResult(outs, before)
		c.owner, c.started, c.told = nil, false, false
	case m.Type == msgStart && !idle:
		if len(outs) > 0 {
			c.fail("start was answered")
		}
		c.started = true
	case idle && (m.Type == msgAssign && m.Assign != nil || m.Type == msgReassign && re != nil):
		a := m.Assign
		if re != nil {
			a = &re.Assign
		}
		switch {
		case a.WatchdogMS <= 0 || a.HeartbeatMS <= 0:
			if len(outs) != 1 || outs[0].m.Type != msgReady || outs[0].m.Err == "" {
				c.fail("a %s with non-positive intervals was not refused", m.Type)
			}
		case re != nil:
			if len(outs) != 1 || outs[0].m.Type != msgHeartbeat || s.shard != nil {
				c.fail("a rejoin did not renew the lease before building")
			}
			c.next = m
		default:
			if len(outs) > 0 || s.shard != nil {
				c.fail("an assign was answered before its build")
			}
			c.next = m
		}
	case m.Type == msgReassign && re != nil && re.Epoch <= c.epoch:
		c.stale++
		if len(outs) > 0 || s.shard.Epoch() != c.epoch {
			c.fail("a reassign to epoch %d at epoch %d was acted on", re.Epoch, c.epoch)
		}
	case m.Type == msgReassign && re != nil && len(re.Assign.Owner) == len(c.owner):
		if len(outs) != 1 || outs[0].m.Type != msgHeartbeat || s.shard.Epoch() != c.epoch {
			c.fail("a reassign to epoch %d did not renew the lease before adopting", re.Epoch)
		}
		for part, w := range re.Assign.Owner {
			if w != s.self && c.owner[part] == s.self && dirty > 0 {
				c.handbacks++
				break
			}
		}
		c.next = m
	default:
		if len(outs) > 0 {
			c.fail("%s was answered with %s", m.Type, outs[0].m.Type)
		}
	}
	return false
}

// checkResult checks the answer to a stop: exactly one result, retried until
// it lands, covering every unknown the owned parts own and carrying the
// session's counters as they stood (st), and the worker idle.
func (c *workerChecker) checkResult(outs []out, st core.ShardState) {
	c.t.Helper()
	c.results++
	if len(outs) != 1 || outs[0].m.Type != msgResult || !outs[0].retry || c.s.shard != nil {
		c.fail("stop was answered by %d messages", len(outs))
	}
	var want []int32
	for part, w := range c.owner {
		if w == c.s.self {
			for _, pair := range c.pairs[part] {
				want = append(want, int32(pair[1]))
			}
		}
	}
	got := []int32(slices.Clone(outs[0].m.Result.Index))
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		c.fail("the result covers %d unknowns, the owned parts own %d", len(got), len(want))
	}
	if f := outs[0].m.Status; f == nil || f.Solves != st.Solves || f.Messages != st.Messages || f.Fenced != st.Fenced {
		c.fail("the result carries counters %+v, the session's were %d solves, %d messages, %d fenced", f, st.Solves, st.Messages, st.Fenced)
	}
}

// tick runs one Tick at c.now and checks that what was due was done, and
// nothing else.
func (c *workerChecker) tick(idle bool) {
	c.t.Helper()
	s := c.s
	was, waves, solves := s.shard != nil, c.waves, 0
	if was {
		solves = s.shard.State().Solves
	}
	_, outs := s.Tick(c.now, idle)
	if m := c.next; m != nil {
		c.next = nil
		switch {
		case s.shard == nil: // the build failed, and a ready says why
		case was:
			c.owner, c.epoch, c.told = m.Reassign.Assign.Owner, m.Reassign.Epoch, false
			c.adopts++
		default:
			a := m.Assign
			if m.Type == msgReassign {
				a = &m.Reassign.Assign
			}
			c.owner, c.epoch, c.started, c.told = a.Owner, a.Epoch, m.Type == msgReassign, false
			c.lastBeat, c.wdDue = c.now, c.now.Add(propWD)
			c.sessions++
		}
	}
	for _, o := range outs {
		if o.m.Type != msgQuiet {
			continue
		}
		switch {
		case s.shard == nil || !c.started:
			c.fail("a quiet notice from a worker idle or not started")
		case !idle:
			c.fail("a quiet notice on a tick that was not idle")
		case o.m.Quiet && s.shard.Backlog() > 0:
			c.fail("told silent with %d parts to solve", s.shard.Backlog())
		case !o.m.Quiet && !c.told:
			c.fail("told not silent without having told silent")
		}
		c.told = o.m.Quiet
		c.notices++
	}
	if s.shard == nil {
		c.owner, c.started, c.told = nil, false, false
		return
	}
	beat := slices.ContainsFunc(outs, func(o out) bool { return o.m.Type == msgHeartbeat })
	if was && !beat && c.now.Sub(c.lastBeat) >= propHB {
		c.fail("no heartbeat %v after the last one, on a %v interval", c.now.Sub(c.lastBeat), propHB)
	}
	if beat {
		c.lastBeat = c.now
		if idle && was && s.shard.State().Solves > solves {
			c.busyBeats++
		}
	}
	due := c.started && !c.now.Before(c.wdDue)
	if due {
		c.wdDue = c.now.Add(propWD)
		c.retransmits++
	}
	switch sent := c.waves - waves; {
	case !c.started && sent > 0:
		c.fail("%d waves sent before start", sent)
	case !idle && !due && sent > 0:
		c.fail("a tick with no watchdog due and nothing to solve sent %d waves", sent)
	case !idle && due && sent == 0 && c.remote():
		c.fail("the watchdog was due and nothing was retransmitted")
	}
	var want []int32
	for part, w := range c.owner {
		if w == s.self {
			want = append(want, int32(part))
		}
	}
	st := s.status()
	if !slices.Equal(s.shard.Owned(), want) || st.Epoch != c.epoch {
		c.fail("the shard owns %v at epoch %d, the session gave it %v at epoch %d", s.shard.Owned(), st.Epoch, want, c.epoch)
	}
	if st.Dirty > len(st.Parts) {
		c.fail("%d parts dirty of %d owned", st.Dirty, len(st.Parts))
	}
}

// remote reports whether an owned part borders a part the peer owns.
func (c *workerChecker) remote() bool {
	for _, q := range c.s.shard.Owned() {
		for _, r := range c.s.shard.Sub(q).AdjacentParts() {
			if c.owner[r] != c.s.self {
				return true
			}
		}
	}
	return false
}

// wave is a fresh wave from the peer to an owned part, on the links between
// them, under the current epoch or, when stale, the one before. With no owned
// part bordering the peer it is addressed to part 0 from part 1.
func (c *workerChecker) wave(stale bool) *transport.Packet {
	c.seq++
	pkt := &transport.Packet{Kind: transport.KindWave, From: 2, FromPart: 1, Seq: c.seq, Epoch: c.epoch, Inc: 1}
	if stale && c.epoch > 0 {
		pkt.Epoch--
	}
	if c.s.shard == nil {
		return pkt
	}
	owned := c.s.shard.Owned()
	for try := 0; try < 4 && len(owned) > 0; try++ {
		q := owned[c.rng.Intn(len(owned))]
		sub := c.s.shard.Sub(q)
		adj := sub.AdjacentParts()
		if ai := c.rng.Intn(len(adj)); c.owner[adj[ai]] != c.s.self {
			pkt.FromPart, pkt.ToPart = int32(adj[ai]), q
			for _, k := range sub.AdjacentEnds(ai) {
				pkt.Entries = append(pkt.Entries, transport.WaveEntry{LinkID: int32(sub.Ends()[k].LinkID), Wave: c.rng.NormFloat64()})
			}
			break
		}
	}
	return pkt
}

// msg is a random control message of every type a coordinator sends, and of
// shapes it does not send: reassigns at stale epochs, with a short owner map
// or with no body, and a non-positive interval. Nil stands for a wave.
func (c *workerChecker) msg() *ctrlMsg {
	rng := c.rng
	assign := func(epoch uint32) assignMsg {
		a := assignMsg{Spec: propSpec, Owner: make([]int, len(c.pairs)), SendThreshold: 1e-11,
			WatchdogMS: int(propWD / time.Millisecond), HeartbeatMS: int(propHB / time.Millisecond), Epoch: epoch, Ordering: "auto"}
		for part := range a.Owner {
			a.Owner[part] = 1 + rng.Intn(2)
		}
		if rng.Intn(16) == 0 {
			a.HeartbeatMS = 0
		}
		return a
	}
	switch r := rng.Intn(100); {
	case r < 8:
		a := assign(1)
		return &ctrlMsg{Type: msgAssign, Assign: &a}
	case r < 16:
		return &ctrlMsg{Type: msgStart}
	case r < 28:
		c.round++
		return &ctrlMsg{Type: msgStatusRq, Round: c.round}
	case r < 44:
		epoch := c.epoch + 1 + uint32(rng.Intn(2))
		if rng.Intn(3) == 0 {
			epoch = uint32(rng.Intn(int(c.epoch) + 1))
		}
		re := &reassignMsg{Epoch: epoch, Assign: assign(epoch)}
		if rng.Intn(8) == 0 {
			re.Assign.Owner = re.Assign.Owner[:1+rng.Intn(len(c.pairs)-1)]
		}
		for part, n := range c.ends {
			if rng.Intn(2) == 0 {
				in := make([]float64, n)
				for i := range in {
					in[i] = rng.NormFloat64()
				}
				re.Snaps = append(re.Snaps, partSnap{Part: int32(part), Incoming: in})
			}
		}
		return &ctrlMsg{Type: msgReassign, Reassign: re}
	case r < 48:
		return &ctrlMsg{Type: msgStop}
	case r < 49:
		return &ctrlMsg{Type: msgShutdown}
	case r < 51:
		return &ctrlMsg{Type: msgReassign}
	}
	return nil
}

// TestWorkerStateProperties drives the worker's state through seeded
// schedules of assign, start, status?, reassign (newer, stale, malformed,
// handing parts back, and to an idle worker), stop, shutdown, waves and
// frames that do not decode, with ticks at arbitrary fake times, idle or
// not. One schedule in three is busy: once started, nine steps in ten bring
// a wave, so nearly every tick has a part to solve. No transport, no
// goroutine. After every call it checks that
//   - a heartbeat leaves at least once per HeartbeatMS, busy or not;
//   - the watchdog's Retransmit runs only once started and due;
//   - each status echoes its round and the current epoch;
//   - a reassign at or below the current epoch changes nothing, and a newer
//     one renews the lease before its adoption's work;
//   - an idle worker answers status? with hello and drops waves;
//   - stop yields exactly one result covering the owned parts' OwnerPairs;
//   - the shard owns what the session gave it, and no more parts are dirty
//     than it owns;
//   - a quiet notice leaves only on an idle tick of a started session, says
//     silent only with nothing to solve, and says not silent only after
//     saying silent under the same epoch.
//
// A failure names its seed and step, and replays from them.
func TestWorkerStateProperties(t *testing.T) {
	p, err := propSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	ends := make([]int, p.Partition.NumParts())
	for part := range ends {
		ends[part] = len(p.Partition.LinksOfPart(part))
	}
	var sum workerChecker
	for seed := int64(1); seed <= 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		busy, step := seed%3 == 0, 0
		c := &workerChecker{t: t, rng: rng, pairs: p.OwnerPairs(), ends: ends, now: time.Unix(1000, 0),
			desc: func() string { return fmt.Sprintf("seed %d, step %d", seed, step) }}
		c.s = &workerState{self: 1, inc: 1, fleet: []int{0, 1, 2}, logf: func(string, ...any) {},
			emit: func(int, transport.Packet) { c.waves++ }}
		for ; step < 300; step++ {
			var pkt *transport.Packet
			if !busy || !c.started || rng.Intn(10) == 0 {
				if m := c.msg(); m != nil {
					pkt = ctrlPacket(t, 0, m)
				} else if rng.Intn(10) == 0 {
					pkt = &transport.Packet{Kind: transport.KindControl, Ctrl: []byte(`{"type":`)}
				}
			}
			if pkt == nil {
				pkt = c.wave(!busy && rng.Intn(8) == 0)
			}
			if c.handle(pkt) {
				break
			}
			// Run ticks after every packet; while nothing arrives, more ticks
			// come at later times.
			ticks := 1
			if !busy {
				ticks += rng.Intn(2)
			}
			for ; ticks > 0; ticks-- {
				c.tick(busy || rng.Intn(2) == 0)
				switch {
				case busy:
					c.now = c.now.Add(time.Duration(500+rng.Intn(1500)) * time.Microsecond)
				case rng.Intn(40) == 0:
					c.now = c.now.Add(3 * propWD)
				default:
					c.now = c.now.Add(time.Duration(rng.Intn(4000)) * time.Microsecond)
				}
			}
		}
		sum.sessions += c.sessions
		sum.adopts += c.adopts
		sum.handbacks += c.handbacks
		sum.stale += c.stale
		sum.results += c.results
		sum.busyBeats += c.busyBeats
		sum.retransmits += c.retransmits
		sum.notices += c.notices
	}
	t.Logf("120 schedules: %d sessions, %d adoptions (%d handing back a part while dirty), %d stale reassigns, %d results, %d heartbeats on solving ticks, %d watchdog rounds, %d quiet notices",
		sum.sessions, sum.adopts, sum.handbacks, sum.stale, sum.results, sum.busyBeats, sum.retransmits, sum.notices)
	if sum.sessions < 300 || sum.adopts < 300 || sum.handbacks < 50 || sum.stale < 100 ||
		sum.results < 100 || sum.busyBeats < 100 || sum.retransmits < 300 || sum.notices < 100 {
		t.Errorf("the schedules no longer reach what the invariants are about")
	}
}

// ring9Spec is the benchmark's ring9-grid13 system: 169 unknowns torn 3×3
// over a nine-processor ring.
var ring9Spec = SpecV2{V: 2, Source: "grid:rows=13,cols=13,seed=169", PartsX: 3, PartsY: 3, Topology: "ring"}

// notice is a quiet notice a stepFleet worker sent, with the fleet's news
// sent when it did.
type notice struct {
	worker int
	silent bool
	news   int
}

// stepFleet is two started worker states over ring9's system, member 0
// coordinating, stepped with instant delivery on a clock that stands still
// unless a test moves it (until then no heartbeat or watchdog falls due).
type stepFleet struct {
	t       *testing.T
	now     time.Time
	workers []*workerState
	inbox   [][]transport.Packet
	told    []notice
}

func newStepFleet(t *testing.T) *stepFleet {
	f := &stepFleet{t: t, now: time.Unix(1000, 0), workers: make([]*workerState, 2), inbox: make([][]transport.Packet, 3)}
	for i := range f.workers {
		w := i + 1
		f.workers[i] = &workerState{self: w, inc: 1, fleet: []int{0, 1, 2}, logf: func(string, ...any) {},
			emit: func(to int, pkt transport.Packet) { pkt.From = int32(w); f.inbox[to] = append(f.inbox[to], pkt) }}
	}
	a := &assignMsg{Spec: ring9Spec, Owner: ContiguousOwner(ring9Spec.Parts(), []int{1, 2}), Ordering: "auto",
		SendThreshold: core.DrainThreshold(1e-9), WatchdogMS: 50, HeartbeatMS: 25, Epoch: 1}
	for _, s := range f.workers {
		s.Handle(ctrlPacket(t, 0, &ctrlMsg{Type: msgAssign, Assign: a}))
		f.tick(s, false)
	}
	for _, s := range f.workers {
		s.Handle(ctrlPacket(t, 0, &ctrlMsg{Type: msgStart}))
	}
	return f
}

// news is the fleet's news sent so far.
func (f *stepFleet) news() (n int) {
	for _, s := range f.workers {
		n += s.shard.NewsSent()
	}
	return n
}

func (f *stepFleet) tick(s *workerState, idle bool) (solved bool) {
	next, outs := s.Tick(f.now, idle)
	for _, o := range outs {
		if o.m.Type == msgQuiet {
			f.told = append(f.told, notice{s.self, o.m.Quiet, f.news()})
		}
	}
	return next.Equal(f.now)
}

// turn hands worker s its inbox, a Handle and a busy tick per packet, then
// idle ticks until one solves nothing — Run's order. It reports whether s
// had anything to do.
func (f *stepFleet) turn(s *workerState) (worked bool) {
	in := f.inbox[s.self]
	f.inbox[s.self] = nil
	worked = len(in) > 0
	for i := range in {
		s.Handle(&in[i])
		f.tick(s, false)
	}
	for f.tick(s, true) {
		worked = true
	}
	return worked
}

// run takes turns, as TestShardRoundRobinCounts does, until a full round
// finds no worker with anything to do.
func (f *stepFleet) run() {
	for turn, idle := 0, 0; idle < len(f.workers); turn++ {
		if idle++; f.turn(f.workers[turn%len(f.workers)]) {
			idle = 0
		}
	}
}

// TestWorkerTellsSilentOnceAtTheEnd runs ring9's system on two worker states
// taking turns with instant delivery. Each worker must tell silent exactly
// once, when no worker sends news any more, and the fleet must then be
// quiescent: the poll the notices bring forward stops the session.
func TestWorkerTellsSilentOnceAtTheEnd(t *testing.T) {
	f := newStepFleet(t)
	f.run()
	total := f.news()
	for _, s := range f.workers {
		var mine []notice
		for _, n := range f.told {
			if n.worker == s.self {
				mine = append(mine, n)
			}
		}
		if len(mine) != 1 || !mine[0].silent || mine[0].news != total {
			t.Errorf("worker %d told %+v, want one silent notice after all %d news", s.self, mine, total)
		}
	}
	p, err := ring9Spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	states := []core.ShardState{f.workers[0].shard.State(), f.workers[1].shard.State()}
	if quiet, change, gap := core.Quiescent(p.Partition.Links, 1e-9, states); !quiet {
		t.Errorf("told silent but not quiescent: last change %g, twin gap %g", change, gap)
	}
	solves, messages, _ := core.Totals(states)
	t.Logf("%d solves, %d messages, %d news; told %+v", solves, messages, total, f.told)
}

// TestWorkerRetellsSilentAfterFreshSolves: a silent worker that solves again
// without sending news — here against a repeat of a wave it already applied —
// tells silent again, so the coordinator may poll a round that began before
// those solves once more; one whose solves send news tells not silent, then
// silent again once nothing is left to solve. An idle tick with nothing new
// tells nothing.
func TestWorkerRetellsSilentAfterFreshSolves(t *testing.T) {
	f := newStepFleet(t)
	f.run()
	w1, w2 := f.workers[0], f.workers[1]
	last := func() notice { return f.told[len(f.told)-1] }
	told := len(f.told)
	if f.tick(w1, true); len(f.told) != told {
		t.Fatalf("a silent worker with nothing new told %+v", last())
	}

	// A repeat: worker 2 re-announces its waves unchanged.
	w2.shard.Retransmit()
	f.turn(w1)
	if len(f.told) != told+1 || last() != (notice{1, true, f.news()}) {
		t.Fatalf("after solving against a repeat: told %+v, want one more silent notice", f.told[told:])
	}

	// News: a wave to worker 1 that moves by far more than the threshold.
	w2.shard.Retransmit()
	pkt := &f.inbox[1][0]
	pkt.Entries = slices.Clone(pkt.Entries)
	pkt.Entries[0].Wave += 1
	told = len(f.told)
	f.run() // the clock stays put: no watchdog ends a wait here
	var w1told []bool
	for _, n := range f.told[told:] {
		if n.worker == 1 {
			w1told = append(w1told, n.silent)
		}
	}
	if len(w1told) < 2 || w1told[0] || slices.Contains(w1told[1:], false) || w1.shard.Backlog() > 0 {
		t.Fatalf("worker 1, moved off its fixed point, told %v with %d parts left to solve; want not silent, then silent", w1told, w1.shard.Backlog())
	}
}

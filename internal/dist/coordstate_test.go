package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// simShape is the problem every simulated worker reports having torn: ten
// unknowns over quickSpec's four parts, two ports a part.
var simShape = readyMsg{Dim: 10, Links: transport.Packed[int32]{0, 0, 1, 0, 1, 1, 2, 0, 2, 1, 3, 0, 3, 1, 0, 1}}

// stateConfig is a normalised session of the given workers over quickSpec:
// a 40 ms base lease, a 5 ms poll, two quiet rounds to stop.
func stateConfig(t testing.TB, workers ...int) *CoordConfig {
	t.Helper()
	cfg := &CoordConfig{Spec: quickSpec, Workers: workers, Tol: 1e-9,
		HeartbeatMS: 10, LeaseBeats: 4, PollInterval: 5 * time.Millisecond, StablePolls: 2}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// readyState is a session that has sent its assigns and filed a ready from
// every worker but the ones in missing.
func readyState(t testing.TB, now time.Time, workers []int, missing ...int) *coordState {
	t.Helper()
	s := newCoordState(stateConfig(t, workers...))
	s.Tick(now, true)
	for _, w := range workers {
		if slices.Contains(missing, w) {
			continue
		}
		if _, err := s.Handle(now, w, &ctrlMsg{Type: msgReady, Ready: &simShape}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// pollingState is a session of the given workers that has sent its starts.
func pollingState(t testing.TB, now time.Time, workers ...int) *coordState {
	t.Helper()
	s := readyState(t, now, workers)
	if _, outs, _ := s.Tick(now, true); len(outs) != len(workers) || outs[0].m.Type != msgStart || s.phase != phasePoll {
		t.Fatalf("after every ready: phase %s, sent %v", s.phase, outs)
	}
	return s
}

// simWorker is one worker of simFleet: whether its process runs, whether it
// is in a session, its incarnation, and the epoch and ownership map it holds.
type simWorker struct {
	id            int
	up, inSession bool
	inc, epoch    uint32
	owner         []int
	nextBeat      time.Time
}

// simPacket is a control message on its way to the coordinator.
type simPacket struct {
	due  time.Time
	from int
	m    *ctrlMsg
}

// simFleet is what a coordState talks to in TestCoordStateProperties: workers
// that answer what the state sends over a network that delays, duplicates,
// reorders and loses what they send back, and that crash and restart. It
// starts no goroutine and reads no clock; rng decides everything.
type simFleet struct {
	rng     *rand.Rand
	now     time.Time
	settle  time.Time // statuses report quiet parts from here on
	workers map[int]*simWorker
	flight  []simPacket
	// badResult makes the next result name an unknown outside the problem.
	badResult bool
}

// emit puts a message from worker w on the network: a lossy one is lost one
// time in seven; any may arrive twice, each copy up to three polls late.
func (f *simFleet) emit(w int, m *ctrlMsg, lossy bool) {
	if lossy && f.rng.Intn(7) == 0 {
		return
	}
	for copies := 1 + f.rng.Intn(8)/7; copies > 0; copies-- {
		delay := time.Duration(f.rng.Intn(15000)) * time.Microsecond
		f.flight = append(f.flight, simPacket{f.now.Add(delay), w, m})
	}
}

// arrived removes a packet that is due, chosen at random, from the network.
func (f *simFleet) arrived() (simPacket, bool) {
	var due []int
	for i, p := range f.flight {
		if !p.due.After(f.now) {
			due = append(due, i)
		}
	}
	if len(due) == 0 {
		return simPacket{}, false
	}
	i := due[f.rng.Intn(len(due))]
	p := f.flight[i]
	f.flight = slices.Delete(f.flight, i, i+1)
	return p, true
}

// status is a worker's poll reply: every part it owns under the map it holds,
// converged once the fleet has settled.
func (f *simFleet) status(w *simWorker) *statusMsg {
	st := &statusMsg{Epoch: w.epoch}
	for part, o := range w.owner {
		if o != w.id {
			continue
		}
		ps := core.PartState{Part: int32(part), SolvedOnce: true, Ports: []float64{0, 0}}
		if f.now.Before(f.settle) {
			ps.LastChange = 1
		}
		st.Parts = append(st.Parts, ps)
	}
	return st
}

// deliver hands what the state sent to the workers. A message without retry
// and every reassign is lost one time in four; nothing reaches a worker
// whose process is down.
func (f *simFleet) deliver(outs []out) {
	for _, o := range outs {
		w := f.workers[o.to]
		if !w.up || ((!o.retry || o.m.Type == msgReassign) && f.rng.Intn(4) == 0) {
			continue
		}
		switch m := o.m; m.Type {
		case msgAssign:
			w.inSession, w.epoch, w.owner = true, m.Assign.Epoch, m.Assign.Owner
			f.emit(w.id, &ctrlMsg{Type: msgReady, Ready: &simShape}, false)
		case msgStart:
			w.nextBeat = f.now
		case msgStatusRq:
			if w.inSession {
				f.emit(w.id, &ctrlMsg{Type: msgStatus, Round: m.Round, Status: f.status(w)}, true)
			} else {
				f.emit(w.id, &ctrlMsg{Type: msgHello, HB: &heartbeatMsg{Inc: w.inc}}, true)
			}
		case msgReassign:
			if re := m.Reassign; !w.inSession || re.Epoch > w.epoch {
				w.inSession, w.epoch, w.owner, w.nextBeat = true, re.Epoch, re.Assign.Owner, f.now
			}
		case msgStop:
			if !w.inSession {
				continue
			}
			w.inSession = false
			r := &resultMsg{}
			for part, o := range w.owner {
				if o == w.id {
					r.Index = append(r.Index, int32(2*part), int32(2*part+1))
					r.Value = append(r.Value, float64(part), float64(part))
				}
			}
			if f.badResult {
				r.Index, r.Value = append(r.Index, int32(simShape.Dim)), append(r.Value, 1)
			}
			f.emit(w.id, &ctrlMsg{Type: msgResult, Result: r}, false)
		}
	}
}

// step moves the fleet's clock on: mostly by a millisecond or two, now and
// then by about a lease. Workers in a session heartbeat every 10 ms and now
// and then tell whether they are silent, which they are from 20 ms before
// they settle (silent, not yet quiet); now and then one crashes or a crashed
// one restarts under a higher incarnation.
func (f *simFleet) step(churn bool) {
	dt := time.Duration(f.rng.Intn(2500)) * time.Microsecond
	if f.rng.Intn(80) == 0 {
		dt = time.Duration(10+f.rng.Intn(50)) * time.Millisecond
	}
	f.now = f.now.Add(dt)
	for id := 1; id <= len(f.workers); id++ {
		w := f.workers[id]
		switch {
		case !w.up && churn && f.rng.Intn(150) == 0:
			w.up, w.inc = true, w.inc+1
		case w.up && churn && f.rng.Intn(300) == 0:
			w.up, w.inSession = false, false
		case w.up && w.inSession && !w.nextBeat.IsZero() && f.rng.Intn(8) == 0:
			f.emit(id, &ctrlMsg{Type: msgQuiet, Quiet: !f.now.Before(f.settle.Add(-20 * time.Millisecond))}, true)
		case w.up && w.inSession && !f.now.Before(w.nextBeat) && !w.nextBeat.IsZero():
			hb := &heartbeatMsg{Inc: w.inc, Epoch: w.epoch}
			for part, o := range w.owner {
				if o == w.id {
					hb.Snaps = append(hb.Snaps, partSnap{Part: int32(part), Incoming: []float64{1, 2}})
				}
			}
			f.emit(id, &ctrlMsg{Type: msgHeartbeat, HB: hb}, true)
			w.nextBeat = f.now.Add(10 * time.Millisecond)
		}
	}
}

// coordChecker wraps every call into a coordState and checks, against its
// own record of what was sent and received, the invariants
// TestCoordStateProperties states.
type coordChecker struct {
	t    *testing.T
	s    *coordState
	desc func() string
	// asked is the latest round a poll carried; askedPolls and askedEpoch are
	// the completed rounds and the epoch when it was first asked.
	asked, askedPolls int
	askedEpoch        uint32
	// silent is each live worker's latest quiet notice this epoch; told
	// counts the polls a silent fleet's notices brought forward.
	silent map[int]bool
	told   int
	// replied records, per round, the workers whose status for it reached
	// Handle under the epoch then current.
	replied map[int]map[int]bool
	// issued is the one reassign of each epoch; sentTo the last time a
	// reassign was sent to each worker.
	issued map[uint32]*reassignMsg
	sentTo map[int]time.Time
}

func (c *coordChecker) fail(format string, args ...any) {
	c.t.Helper()
	c.t.Fatalf("%s: %s", c.desc(), fmt.Sprintf(format, args...))
}

// call runs one Tick (m nil), Handle (m non-nil) or Expire (expire) at now
// and checks what it did.
func (c *coordChecker) call(now time.Time, idle, expire bool, from int, m *ctrlMsg) ([]out, error) {
	c.t.Helper()
	s := c.s
	epoch, stable, polls, round, phase, nextPoll := s.epoch, s.stable, s.res.Polls, s.round, s.phase, s.nextPoll
	alive := s.ms.alive()
	if m != nil && m.Type == msgQuiet && phase == phasePoll && slices.Contains(alive, from) {
		c.silent[from] = m.Quiet
	}
	lastBeat := make(map[int]time.Time, len(alive))
	for _, w := range alive {
		lastBeat[w] = s.ms.members[w].lastBeat
	}
	prevStatus := s.statuses[from]
	forRound := m != nil && m.Type == msgStatus && m.Status != nil && m.Status.Epoch == s.epoch && m.Round == s.round
	if forRound && phase == phasePoll {
		if c.replied[round] == nil {
			c.replied[round] = map[int]bool{}
		}
		c.replied[round][from] = true
	}

	var outs []out
	var err error
	switch {
	case expire:
		outs, err = s.Expire()
	case m != nil:
		outs, err = s.Handle(now, from, m)
	default:
		_, outs, err = s.Tick(now, idle)
	}

	if s.epoch < epoch {
		c.fail("epoch went back from %d to %d", epoch, s.epoch)
	}
	if s.epoch != epoch {
		clear(c.silent)
	}
	if m != nil && s.phase == phasePoll && s.stable == 0 && !nextPoll.IsZero() && s.nextPoll.IsZero() {
		c.told++
		for _, w := range s.ms.alive() {
			if !c.silent[w] {
				c.fail("a %s brought the poll forward while worker %d had not told silent", m.Type, w)
			}
		}
	}
	if m != nil && m.Type == msgStatus && phase == phasePoll && !forRound {
		if s.res.Polls != polls || (s.statuses != nil && s.statuses[from] != prevStatus) {
			c.fail("a status echoing round %d was filed in round %d", m.Round, round)
		}
	}
	if s.stable > stable {
		if s.res.Polls != polls+1 {
			c.fail("stable advanced %d → %d with no round completed", stable, s.stable)
		}
		for _, w := range s.ms.alive() {
			if !c.replied[round][w] {
				c.fail("stable advanced on round %d, which worker %d never answered", round, w)
			}
		}
	}
	for _, w := range alive {
		if slices.Contains(s.ms.alive(), w) {
			continue
		}
		if m != nil || expire || !idle {
			c.fail("worker %d expired on a call that was not an idle tick", w)
		}
		if now.Sub(lastBeat[w]) <= s.ms.leaseOf(w) {
			c.fail("worker %d expired %v after its last beat, inside its lease", w, now.Sub(lastBeat[w]))
		}
	}
	var lost *WorkerLostError
	if errors.As(err, &lost) && lost.Phase == msgResult && !expire {
		if m != nil || !idle || now.Sub(lastBeat[lost.Worker]) <= s.ms.leaseOf(lost.Worker) {
			c.fail("worker %d reported lost in the result phase inside its lease or off an idle tick", lost.Worker)
		}
	}
	for _, o := range outs {
		switch o.m.Type {
		case msgStatusRq:
			if r := o.m.Round; r != c.asked {
				if r != c.asked+1 || (c.asked > 0 && s.res.Polls == c.askedPolls && s.epoch == c.askedEpoch) {
					c.fail("round %d asked while round %d neither completed nor was abandoned", r, c.asked)
				}
				c.asked, c.askedPolls, c.askedEpoch = r, s.res.Polls, s.epoch
			}
		case msgReassign:
			re := o.m.Reassign
			if first := c.issued[re.Epoch]; first != nil && first != re {
				c.fail("two reassigns issued for epoch %d", re.Epoch)
			}
			if first := c.issued[re.Epoch]; first == nil && (re.Epoch <= epoch || re.Epoch > s.epoch) {
				c.fail("a reassign for epoch %d issued by a call that moved the epoch %d → %d", re.Epoch, epoch, s.epoch)
			}
			c.issued[re.Epoch], c.sentTo[o.to] = re, now
		}
	}
	if m == nil && !expire && err == nil && s.phase == phasePoll && s.epoch > 1 {
		for _, w := range s.ms.alive() {
			if s.ms.members[w].epoch < s.epoch && now.Sub(c.sentTo[w]) > s.cfg.lease() {
				c.fail("worker %d lags epoch %d and was last sent the reassign %v ago", w, s.epoch, now.Sub(c.sentTo[w]))
			}
		}
	}
	if s.res.X != nil && len(s.res.X) != s.dim {
		c.fail("X has %d entries for a %d-unknown problem", len(s.res.X), s.dim)
	}
	return outs, err
}

// TestCoordStateProperties drives the coordinator's state through seeded
// sessions against simFleet: ready, heartbeat, hello, status and result
// messages with arbitrary delay, duplication and loss, workers that crash
// and restart, and ticks at arbitrary times with arbitrary idle flags. No
// transport, no goroutine. After every call it checks that
//   - a status is filed only for its round;
//   - stable never advances on an incomplete round;
//   - a round advances only after it completed or an epoch change abandoned
//     it;
//   - epochs are monotone, with one reassign issued per epoch;
//   - a member is expired only on an idle tick with a lapsed lease, in the
//     poll phase and the result phase alike;
//   - a live member lagging the epoch is re-sent the reassign within a lease;
//   - a poll is brought forward, not confirming a quiet round, only when
//     every live worker's latest quiet notice this epoch said silent;
//   - the gather never writes outside Dim.
//
// A session ends converged, expired, or in a loss the state reports; a
// failure names its seed and step, and replays from them.
func TestCoordStateProperties(t *testing.T) {
	var done, failovers, rejoins, rounds, told int
	ended := map[string]int{}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := time.Unix(1000, 0)
		s := newCoordState(stateConfig(t, 1, 2, 3))
		f := &simFleet{rng: rng, now: now, workers: map[int]*simWorker{},
			settle: now.Add(time.Duration(20+rng.Intn(200)) * time.Millisecond), badResult: seed%25 == 0}
		for id := 1; id <= 3; id++ {
			f.workers[id] = &simWorker{id: id, up: true, inc: 1}
		}
		step := 0
		c := &coordChecker{t: t, s: s, replied: map[int]map[int]bool{}, silent: map[int]bool{},
			issued: map[uint32]*reassignMsg{}, sentTo: map[int]time.Time{},
			desc: func() string { return fmt.Sprintf("seed %d, step %d", seed, step) }}
		expireAt := -1
		if seed%10 == 0 {
			expireAt = 100 + rng.Intn(200)
		}
		var err error
		for ; step < 800 && s.phase != phaseDone && err == nil; step++ {
			// A run of arrivals, in random order, then one tick (or the
			// context's expiry), then the clock moves on.
			for err == nil && rng.Intn(4) > 0 {
				p, ok := f.arrived()
				if !ok {
					break
				}
				var outs []out
				outs, err = c.call(f.now, false, false, p.from, p.m)
				f.deliver(outs)
			}
			if err == nil {
				var outs []out
				outs, err = c.call(f.now, rng.Intn(2) == 0, s.phase == phasePoll && expireAt >= 0 && step >= expireAt, 0, nil)
				f.deliver(outs)
			}
			f.step(s.phase == phasePoll)
		}
		switch {
		case s.phase == phaseDone:
			done++
		case errors.As(err, new(*WorkerLostError)):
			ended["lost in "+err.(*WorkerLostError).Phase]++
		case err != nil:
			ended["refused"]++
		}
		failovers += s.res.Failovers
		rejoins += s.res.Rejoins
		rounds += s.res.Polls
		told += c.told
	}
	t.Logf("300 sessions: %d done, ended early %v; %d failovers, %d rejoins, %d rounds, %d polls brought forward by silent notices",
		done, ended, failovers, rejoins, rounds, told)
	if done < 150 || failovers < 100 || rejoins < 50 || ended["lost in result"] == 0 || told < 50 {
		t.Errorf("the schedules no longer reach what the invariants are about: %d done, ended early %v, %d failovers, %d rejoins",
			done, ended, failovers, rejoins)
	}
}

// TestHeartbeatNonFiniteSnapshot: a diverging part's incoming waves go NaN
// and infinite. Its worker's heartbeat must still encode, renew the lease in
// Handle and be retained bit for bit as the part's snapshot — a worker must
// not look dead, and the run end in a loss, because of what it holds.
func TestHeartbeatNonFiniteSnapshot(t *testing.T) {
	now := time.Unix(1000, 0)
	s := pollingState(t, now, 1, 2) // worker 1 owns parts 0 and 1
	net := transport.NewChanNetwork(2)
	defer net[0].Close()
	defer net[1].Close()
	incoming := []float64{math.NaN(), math.Inf(1), math.Float64frombits(0x7ff0000000000bad), -1.5}
	hb := &ctrlMsg{Type: msgHeartbeat, HB: &heartbeatMsg{Inc: 1, Epoch: 1, Snaps: []partSnap{{Part: 0, Incoming: incoming}}}}
	ctx := context.Background()
	if err := sendCtrl(ctx, net[1], 0, hb); err != nil {
		t.Fatalf("a heartbeat holding NaN and +Inf does not send: %v", err)
	}
	pkt, err := net[0].Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeCtrl(&pkt)
	if err != nil {
		t.Fatal(err)
	}
	later := now.Add(time.Millisecond)
	if _, err := s.Handle(later, 1, m); err != nil {
		t.Fatal(err)
	}
	if got := s.ms.members[1].lastBeat; !got.Equal(later) {
		t.Fatalf("lease last renewed at %v, want the heartbeat's %v", got, later)
	}
	snap := s.snaps[0]
	if len(snap) != len(incoming) {
		t.Fatalf("snapshot of part 0 has %d values, want %d", len(snap), len(incoming))
	}
	for i := range incoming {
		if math.Float64bits(snap[i]) != math.Float64bits(incoming[i]) {
			t.Fatalf("snapshot value %d is %x, want %x", i, math.Float64bits(snap[i]), math.Float64bits(incoming[i]))
		}
	}
}

// TestDeadlineResultCountsFinalWork: a deadline that ends the poll phase
// before any round completed still reports the work the workers did, as the
// final counters their results carry — a duplicate result counted once —
// and a round's replies, which come before the work they report is done,
// count for nothing.
func TestDeadlineResultCountsFinalWork(t *testing.T) {
	now := time.Unix(1000, 0)
	s := pollingState(t, now, 1, 2)
	s.Tick(now.Add(s.cfg.PollInterval), true)
	if _, err := s.Handle(now, 1, &ctrlMsg{Type: msgStatus, Round: s.round, Status: &statusMsg{ShardState: core.ShardState{Solves: 1, Messages: 1}, Epoch: s.epoch}}); err != nil {
		t.Fatal(err)
	}
	s.Expire()
	final := map[int]core.ShardState{1: {Solves: 7, Messages: 11, Fenced: 2}, 2: {Solves: 5, Messages: 3}}
	for _, w := range []int{1, 2, 1} {
		res := &resultMsg{Index: []int32{int32(w)}, Value: []float64{float64(w)}}
		if _, err := s.Handle(now, w, &ctrlMsg{Type: msgResult, Result: res, Status: &statusMsg{ShardState: final[w]}}); err != nil {
			t.Fatal(err)
		}
	}
	s.Tick(now, true)
	if s.phase != phaseDone || s.res.Converged {
		t.Fatalf("phase %s, converged %v: want a done, unconverged session", s.phase, s.res.Converged)
	}
	if s.res.Solves != 12 || s.res.Messages != 14 || s.res.Fenced != 2 {
		t.Errorf("counted %d solves, %d messages, %d fenced; want the results' 12, 14, 2", s.res.Solves, s.res.Messages, s.res.Fenced)
	}
}

// TestFuzzCoordHandleSeedsDecode: FuzzCoordHandle's seeds are frames of the
// current protocol — every one but those named binary-* or truncated-*
// decodes — so none turns silently into garbage when a field's encoding
// changes, and each still reaches the check it is named for.
func TestFuzzCoordHandleSeedsDecode(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzCoordHandle")
	seeds, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range seeds {
		b, err := os.ReadFile(filepath.Join(dir, seed.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		arg, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		if !ok || !strings.HasSuffix(arg, ")") {
			t.Fatalf("seed %s: last line is not a []byte value", seed.Name())
		}
		data, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
		if err != nil {
			t.Fatalf("seed %s: %v", seed.Name(), err)
		}
		_, err = decodeCtrl(&transport.Packet{Kind: transport.KindControl, Ctrl: []byte(data)})
		garbage := strings.HasPrefix(seed.Name(), "binary-") || strings.HasPrefix(seed.Name(), "truncated-")
		if garbage && err == nil {
			t.Errorf("seed %s decodes", seed.Name())
		}
		if !garbage && err != nil {
			t.Errorf("seed %s does not decode: %v", seed.Name(), err)
		}
	}
}

// FuzzCoordHandle throws arbitrary control bytes, from any member id, at the
// coordinator's state in each phase that receives: ready (workers 1 and 3 in,
// worker 2 pending), poll (round 1 in flight) and result (worker 1's result
// in). The sender is from%128 mod 5 — 1 to 3 are workers, 0 and 4 unknown —
// and a from of 128 or more first declares it dead, as an expired lease does
// (in the poll phase with the reassign that follows). The state must not
// panic, must not write outside Dim, must not move the epoch on a frame that
// does not decode (Coordinate drops it), and must not start after a refused
// ready: the refused worker stays pending. The seed corpus under
// testdata/fuzz/FuzzCoordHandle pins agreeing and refused readies, stale and
// current statuses, a restart's hello, foreign snapshots, results outside
// the problem, quiet notices (true, false, null) from a live, an unknown and
// a dead member in every phase, and frames that do not decode.
func FuzzCoordHandle(f *testing.F) {
	f.Fuzz(func(t *testing.T, phase, from uint8, data []byte) {
		now := time.Unix(1000, 0)
		s := readyState(t, now, []int{1, 2, 3}, 2)
		if phase%3 > 0 {
			s.Handle(now, 2, &ctrlMsg{Type: msgReady, Ready: &simShape})
			s.Tick(now, true)
			s.Tick(now.Add(s.cfg.PollInterval), true)
		}
		if phase%3 == 2 {
			s.Expire()
			s.Handle(now, 1, &ctrlMsg{Type: msgResult, Result: &resultMsg{Index: []int32{0}, Value: []float64{1}}})
		}
		w := int(from%128) % 5
		if from >= 128 {
			s.ms.markDead(w)
			if s.phase == phasePoll {
				_ = s.reassign(now, w, nil)
			}
		}
		epoch, refused := s.epoch, false
		m, err := decodeCtrl(&transport.Packet{Kind: transport.KindControl, From: int32(w), Ctrl: data})
		if err == nil {
			_, herr := s.Handle(now, w, m)
			refused = herr != nil
		}
		_, outs, _ := s.Tick(now, true)
		for _, o := range outs {
			if o.m.Type == msgStart && refused {
				t.Fatalf("start sent after a refused %s from %d", m.Type, w)
			}
		}
		if err != nil && s.epoch != epoch {
			t.Fatalf("a frame that does not decode moved the epoch %d → %d", epoch, s.epoch)
		}
		if s.epoch < epoch || s.epoch > epoch+1 {
			t.Fatalf("one frame moved the epoch %d → %d", epoch, s.epoch)
		}
		if s.res.X != nil && len(s.res.X) != s.dim {
			t.Fatalf("X has %d entries for a %d-unknown problem", len(s.res.X), s.dim)
		}
	})
}

// roundAsked is the round a status? among outs asks, 0 when none does.
func roundAsked(outs []out) int {
	for _, o := range outs {
		if o.m.Type == msgStatusRq {
			return o.m.Round
		}
	}
	return 0
}

// tellAt hands s worker w's quiet notice at now, before the poll timer is
// due, and runs the tick Coordinate runs after it. It returns the round a
// poll then asked, 0 when none went out.
func tellAt(t *testing.T, s *coordState, now time.Time, w int, silent bool) int {
	t.Helper()
	if !now.Before(s.nextPoll) {
		t.Fatalf("the poll timer is due at %v: a poll would not show the notice's effect", now)
	}
	if outs, err := s.Handle(now, w, &ctrlMsg{Type: msgQuiet, Quiet: silent}); err != nil || len(outs) > 0 {
		t.Fatalf("a quiet notice was answered with %v, %v", outs, err)
	}
	_, outs, err := s.Tick(now, false)
	if err != nil {
		t.Fatal(err)
	}
	return roundAsked(outs)
}

// answerRound files every live worker's status for the round in flight:
// converged parts when quiet, parts that still move otherwise.
func answerRound(t *testing.T, s *coordState, now time.Time, quiet bool) {
	t.Helper()
	if s.statuses == nil {
		t.Fatal("no round in flight")
	}
	for _, w := range s.ms.alive() {
		st := &statusMsg{Epoch: s.epoch}
		for part, o := range s.owner {
			if o == w {
				ps := core.PartState{Part: int32(part), SolvedOnce: true, Ports: []float64{0, 0}}
				if !quiet {
					ps.LastChange = 1
				}
				st.Parts = append(st.Parts, ps)
			}
		}
		if _, err := s.Handle(now, w, &ctrlMsg{Type: msgStatus, Round: s.round, Status: st}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSilentFleetIsPolledAtOnce: with no round in flight, the notice that
// makes every live worker silent brings the next poll forward to its own
// now; it does not wait for the PollInterval timer. The poll is the first
// round, numbered as the timer would have numbered it.
func TestSilentFleetIsPolledAtOnce(t *testing.T) {
	now := time.Unix(1000, 0)
	s := pollingState(t, now, 1, 2, 3)
	ms := time.Millisecond
	if r := tellAt(t, s, now.Add(ms), 1, true); r != 0 {
		t.Fatalf("one silent worker of three was polled (round %d)", r)
	}
	if r := tellAt(t, s, now.Add(2*ms), 2, true); r != 0 {
		t.Fatalf("two silent workers of three were polled (round %d)", r)
	}
	if r := tellAt(t, s, now.Add(3*ms), 3, true); r != 1 {
		t.Fatalf("the fleet told silent %v before the timer asked round %d, want round 1 at once", s.cfg.PollInterval-3*ms, r)
	}
	if want := now.Add(3 * ms).Add(s.cfg.PollInterval); !s.nextPoll.Equal(want) {
		t.Errorf("the timer restarts at %v, want the early poll's time plus PollInterval", s.nextPoll.Sub(now))
	}
}

// TestSilentPollWaitsForEveryLiveWorker: a worker told not silent, a worker
// never told, and a worker dead-declared and then revived each hold the poll
// until its own silent notice. A dead worker holds nothing.
func TestSilentPollWaitsForEveryLiveWorker(t *testing.T) {
	ms := time.Millisecond
	t.Run("told-not-silent", func(t *testing.T) {
		now := time.Unix(1000, 0)
		s := pollingState(t, now, 1, 2)
		tellAt(t, s, now.Add(ms), 2, true)
		tellAt(t, s, now.Add(ms), 2, false)
		if r := tellAt(t, s, now.Add(2*ms), 1, true); r != 0 {
			t.Fatalf("worker 2 told not silent, and round %d was asked", r)
		}
		if r := tellAt(t, s, now.Add(3*ms), 2, true); r != 1 {
			t.Fatalf("worker 2 told silent again: round %d asked, want 1", r)
		}
	})
	t.Run("never-told", func(t *testing.T) {
		now := time.Unix(1000, 0)
		s := pollingState(t, now, 1, 2)
		if r := tellAt(t, s, now.Add(ms), 1, true); r != 0 {
			t.Fatalf("worker 2 never told, and round %d was asked", r)
		}
		// The timer still polls the fleet.
		if _, outs, _ := s.Tick(s.nextPoll, true); roundAsked(outs) != 1 {
			t.Fatal("the timer did not ask round 1")
		}
	})
	t.Run("dead-then-revived", func(t *testing.T) {
		now := time.Unix(1000, 0)
		s := pollingState(t, now, 1, 2, 3)
		// Workers 1 and 2 beat; worker 3 falls silent past its lease.
		late := now.Add(s.ms.leaseOf(3) + ms)
		for _, w := range []int{1, 2} {
			s.Handle(late, w, &ctrlMsg{Type: msgHeartbeat, HB: &heartbeatMsg{Inc: 1, Epoch: 1}})
		}
		s.Tick(late, true)
		if s.res.Failovers != 1 || slices.Contains(s.ms.alive(), 3) {
			t.Fatalf("worker 3 not declared dead: %d failovers, alive %v", s.res.Failovers, s.ms.alive())
		}
		answerRound(t, s, late, false)
		if r := tellAt(t, s, late, 1, true); r != 0 {
			t.Fatalf("worker 2 not told silent at epoch 2, and round %d was asked", r)
		}
		if r := tellAt(t, s, late, 2, true); r == 0 {
			t.Fatal("every live worker told silent, dead worker 3 held the poll")
		}
		answerRound(t, s, late, false)
		// A dead worker's notice is no news of the live fleet.
		if r := tellAt(t, s, late, 3, true); r != 0 {
			t.Fatalf("dead worker 3 told silent, and round %d was asked", r)
		}
		// Worker 3 restarts and beats under a new incarnation: revived at epoch 3.
		s.Handle(late, 3, &ctrlMsg{Type: msgHeartbeat, HB: &heartbeatMsg{Inc: 2}})
		if _, outs, _ := s.Tick(late, false); s.res.Rejoins != 1 || roundAsked(outs) != 0 {
			t.Fatalf("the rejoin: %d rejoins, round %d asked", s.res.Rejoins, roundAsked(outs))
		}
		tellAt(t, s, late, 1, true)
		if r := tellAt(t, s, late, 2, true); r != 0 {
			t.Fatalf("revived worker 3 not told silent, and round %d was asked", r)
		}
		if r := tellAt(t, s, late, 3, true); r == 0 {
			t.Fatal("revived worker 3 told silent, and no round was asked")
		}
	})
}

// TestSilentNoticeTriggersOncePerRound: a silent notice told before the
// round in flight began does not trigger again when that round completes not
// quiet, so a fleet that is silent but not quiet (SendThreshold above Tol
// leaves it so) is polled on the timer alone — no poll storm. A notice told
// while the round is in flight does trigger the poll once it completes.
func TestSilentNoticeTriggersOncePerRound(t *testing.T) {
	now := time.Unix(1000, 0)
	s := pollingState(t, now, 1, 2)
	tellAt(t, s, now, 1, true)
	if r := tellAt(t, s, now, 2, true); r != 1 {
		t.Fatalf("round %d asked, want 1", r)
	}
	// Silent but not quiet, from here on: every round is answered at once.
	asked, end := 1, now.Add(100*s.cfg.PollInterval)
	for at := now; at.Before(end); at = at.Add(time.Millisecond / 4) {
		if s.statuses != nil {
			answerRound(t, s, at, false)
		}
		_, outs, _ := s.Tick(at, true)
		if r := roundAsked(outs); r > asked {
			asked = r
		}
	}
	if asked > 101 {
		t.Fatalf("a silent, not quiet fleet asked %d rounds in 100 poll intervals", asked)
	}
	if s.res.Polls != asked {
		t.Fatalf("%d rounds completed of %d asked", s.res.Polls, asked)
	}
	// A notice told while a round is in flight polls again once it completes.
	at := s.nextPoll
	if _, outs, _ := s.Tick(at, true); roundAsked(outs) != asked+1 {
		t.Fatalf("the timer did not ask round %d", asked+1)
	}
	s.Handle(at, 1, &ctrlMsg{Type: msgQuiet, Quiet: true})
	answerRound(t, s, at, false)
	if _, outs, _ := s.Tick(at, false); roundAsked(outs) != asked+2 {
		t.Fatalf("a silent notice told during round %d did not ask round %d when it completed", asked+1, asked+2)
	}
}

// TestReassignClearsSilentNotices: every worker wakes under a new ownership
// map, so a reassign forgets what the workers told; each must tell silent
// again.
func TestReassignClearsSilentNotices(t *testing.T) {
	now := time.Unix(1000, 0)
	s := pollingState(t, now, 1, 2)
	tellAt(t, s, now, 1, true)
	tellAt(t, s, now, 2, false)
	// Worker 2 says hello under a new incarnation: a rejoin, epoch 2.
	s.Handle(now, 2, &ctrlMsg{Type: msgHello, HB: &heartbeatMsg{Inc: 2}})
	s.Tick(now, false)
	if s.epoch != 2 || len(s.silent) > 0 || s.toldSilent {
		t.Fatalf("after the reassign to epoch %d: told %v, a silent notice pending %v", s.epoch, s.silent, s.toldSilent)
	}
	if r := tellAt(t, s, now, 2, true); r != 0 {
		t.Fatalf("worker 1's notice from epoch 1 still counts: round %d asked", r)
	}
	if r := tellAt(t, s, now, 1, true); r != 1 {
		t.Fatalf("both told silent at epoch 2: round %d asked, want 1", r)
	}
}

// TestSilentNoticeOutsidePollPhaseOnlyRenewsLease: in the assign, ready and
// result phases a quiet notice from a worker, silent or not, renews its lease
// and nothing else.
func TestSilentNoticeOutsidePollPhaseOnlyRenewsLease(t *testing.T) {
	now := time.Unix(1000, 0)
	assign := newCoordState(stateConfig(t, 1, 2))
	ready := readyState(t, now, []int{1, 2}, 2)
	result := pollingState(t, now, 1, 2)
	result.Expire()
	for _, s := range []*coordState{assign, ready, result} {
		phase, pending, round, next := s.phase, slices.Clone(s.pending), s.round, s.nextPoll
		res := *s.res
		later := now.Add(time.Millisecond)
		for _, silent := range []bool{true, false} {
			if outs, err := s.Handle(later, 1, &ctrlMsg{Type: msgQuiet, Quiet: silent}); err != nil || len(outs) > 0 {
				t.Fatalf("%s phase: a quiet notice was answered with %v, %v", phase, outs, err)
			}
		}
		if s.phase != phase || !slices.Equal(s.pending, pending) || s.round != round || !s.nextPoll.Equal(next) ||
			len(s.silent) > 0 || s.toldSilent || s.res.Polls != res.Polls || s.res.Converged != res.Converged {
			t.Errorf("%s phase: a quiet notice changed the session", phase)
		}
		if got := s.ms.members[1].lastBeat; !got.Equal(later) {
			t.Errorf("%s phase: lease last renewed at %v, want the notice's %v", phase, got, later)
		}
	}
}

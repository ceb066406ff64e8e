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
// then by about a lease. Workers in a session heartbeat every 10 ms; now and
// then one crashes or a crashed one restarts under a higher incarnation.
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
	epoch, stable, polls, round, phase := s.epoch, s.stable, s.res.Polls, s.round, s.phase
	alive := s.ms.alive()
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
//   - the gather never writes outside Dim.
//
// A session ends converged, expired, or in a loss the state reports; a
// failure names its seed and step, and replays from them.
func TestCoordStateProperties(t *testing.T) {
	var done, failovers, rejoins, rounds int
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
		c := &coordChecker{t: t, s: s, replied: map[int]map[int]bool{},
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
	}
	t.Logf("300 sessions: %d done, ended early %v; %d failovers, %d rejoins, %d rounds", done, ended, failovers, rejoins, rounds)
	if done < 150 || failovers < 100 || rejoins < 50 || ended["lost in result"] == 0 {
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
// in). The state must not panic, must not write outside Dim, must not move
// the epoch on a frame that does not decode (Coordinate drops it), and must
// not start after a refused ready: the refused worker stays pending. The seed
// corpus under testdata/fuzz/FuzzCoordHandle pins agreeing and refused
// readies, stale and current statuses, a restart's hello, foreign snapshots,
// results outside the problem, an unknown member and frames that do not
// decode.
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
		epoch, w, refused := s.epoch, int(from%5), false
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

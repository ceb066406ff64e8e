package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/factor"
	"repro/internal/transport"
)

// failoverOpts parameterises one kill-a-worker distributed run.
type failoverOpts struct {
	fab      fabricFn
	nWorkers int
	faults   string
	// restartAtPoll restarts the killed worker (Incarnation 2) at that poll
	// (0 = never).
	restartAtPoll int
	disable       bool
	stablePolls   int
	// coordWrap, when non-nil, decorates the coordinator's transport (fault
	// injection on the control plane).
	coordWrap func(transport.Transport) transport.Transport
}

// runFailoverKill runs a coordinated solve on a Fleet and kills the last
// worker at poll 1.
func runFailoverKill(t *testing.T, o failoverOpts) (*Result, error) {
	t.Helper()
	faults := faultWrap(t, o.faults, o.nWorkers+1)
	f := NewFleet(o.fab(t, o.nWorkers+1), func(member int, tr transport.Transport) transport.Transport {
		switch {
		case member == 0 && o.coordWrap != nil:
			return o.coordWrap(tr)
		case faults != nil:
			return faults(member, tr)
		}
		return tr
	})
	defer f.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	victim := o.nWorkers
	var killed, restarted bool
	return f.Coordinate(ctx, CoordConfig{
		Spec: quickSpec, Tol: 1e-9,
		WatchdogMS: 20, PollInterval: 5 * time.Millisecond,
		HeartbeatMS: 10, LeaseBeats: 4,
		StablePolls:     max(o.stablePolls, 4),
		DisableFailover: o.disable,
		OnPoll: func(p int) {
			if p >= 1 && !killed {
				killed = true
				f.Kill(victim)
			}
			if o.restartAtPoll > 0 && p >= o.restartAtPoll && !restarted {
				restarted = true
				f.Start(victim, 2)
			}
		},
	})
}

func TestFailoverChanMatchesOracle(t *testing.T) {
	res, err := runFailoverKill(t, failoverOpts{fab: chanFabric, nWorkers: 3})
	if err != nil {
		t.Fatalf("coordinate: %v", err)
	}
	if res.Failovers < 1 || res.Epoch < 2 {
		t.Fatalf("expected a failover epoch, got failovers=%d epoch=%d", res.Failovers, res.Epoch)
	}
	for part, w := range res.Owner {
		if w == 3 {
			t.Fatalf("part %d still owned by the dead worker", part)
		}
	}
	checkAgainstOracle(t, res, quickSpec)
}

func TestFailoverTCPMatchesOracle(t *testing.T) {
	res, err := runFailoverKill(t, failoverOpts{fab: tcpFabric, nWorkers: 2})
	if err != nil {
		t.Fatalf("coordinate: %v", err)
	}
	if res.Failovers < 1 {
		t.Fatalf("expected a failover, got %d", res.Failovers)
	}
	checkAgainstOracle(t, res, quickSpec)
}

func TestFailoverChaosDropDupConverges(t *testing.T) {
	// Failover under a lossy, duplicating fabric: the reassignment protocol
	// itself must tolerate the chaos the solve protocol is built for.
	res, err := runFailoverKill(t, failoverOpts{
		fab: chanFabric, nWorkers: 3, faults: "drop=0.05,dup=0.05,seed=13",
	})
	if err != nil {
		t.Fatalf("coordinate: %v", err)
	}
	if res.Failovers < 1 {
		t.Fatalf("expected a failover, got %d", res.Failovers)
	}
	checkAgainstOracle(t, res, quickSpec)
}

// ctrlDropTransport swallows the first max control messages of one type sent
// to one peer — a deterministic control-plane fault for exercising the
// coordinator's re-send paths.
type ctrlDropTransport struct {
	transport.Transport
	mu      sync.Mutex
	to      int
	typ     string
	max     int
	dropped int
}

func (d *ctrlDropTransport) Send(ctx context.Context, to int, pkt transport.Packet) error {
	if to == d.to && pkt.Kind == transport.KindControl {
		if m, err := decodeCtrl(&pkt); err == nil && m.Type == d.typ {
			d.mu.Lock()
			drop := d.dropped < d.max
			if drop {
				d.dropped++
			}
			d.mu.Unlock()
			if drop {
				return nil
			}
		}
	}
	return d.Transport.Send(ctx, to, pkt)
}

func (d *ctrlDropTransport) drops() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dropped
}

// TestReassignResentToLaggingWorker: the fenced reassign broadcast is
// best-effort. Here surviving worker 1 deterministically misses its copy, so
// it keeps heartbeating at the stale epoch — lease renewed, never declared
// dead — while every status it reports is discarded. The coordinator must
// notice the worker's acknowledged epoch lagging and re-send the current
// reassign (regression: the run used to spin unconverged to the deadline).
func TestReassignResentToLaggingWorker(t *testing.T) {
	var dt *ctrlDropTransport
	res, err := runFailoverKill(t, failoverOpts{
		fab: chanFabric, nWorkers: 3,
		coordWrap: func(tr transport.Transport) transport.Transport {
			dt = &ctrlDropTransport{Transport: tr, to: 1, typ: msgReassign, max: 1}
			return dt
		},
	})
	if err != nil {
		t.Fatalf("coordinate: %v", err)
	}
	if dt.drops() == 0 {
		t.Fatal("fault never fired: no reassign was dropped")
	}
	if res.Failovers < 1 {
		t.Fatalf("expected a failover, got %d", res.Failovers)
	}
	checkAgainstOracle(t, res, quickSpec)
}

// stallTransport freezes the coordinator once: the first Recv after arm
// sleeps for d before reading, the way a descheduled process would, while
// the workers keep beating into its inbox. Only the coordinator's goroutine
// touches it.
type stallTransport struct {
	transport.Transport
	d       time.Duration
	armed   bool
	stalled bool
}

func (s *stallTransport) Recv(ctx context.Context) (transport.Packet, error) {
	if s.armed && !s.stalled {
		s.stalled = true
		time.Sleep(s.d)
	}
	return s.Transport.Recv(ctx)
}

// TestCoordinatorStallDoesNotExpireLiveWorkers: a coordinator that was not
// scheduled for several leases must read the beats that queued behind the
// stall before it judges anybody's lease. Nobody dies here, so any failover,
// rejoin or epoch past the first is the coordinator mistaking its own
// stall for its workers' deaths (regression: one 300 ms stall burned three
// of the eight epochs).
func TestCoordinatorStallDoesNotExpireLiveWorkers(t *testing.T) {
	// 300 ms is six 40–50 ms leases.
	coord := &stallTransport{d: 300 * time.Millisecond}
	f := NewFleet(chanFabric(t, 4), func(member int, tr transport.Transport) transport.Transport {
		if member == 0 {
			coord.Transport = tr
			return coord
		}
		return tr
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := f.Coordinate(ctx, CoordConfig{
		Spec: quickSpec, Tol: 1e-9,
		WatchdogMS: 20, PollInterval: 5 * time.Millisecond,
		HeartbeatMS: 10, LeaseBeats: 4, StablePolls: 4,
		OnPoll: func(p int) { coord.armed = p >= 2 },
	})
	f.Close()
	if err != nil {
		t.Fatalf("coordinate: %v", err)
	}
	if !coord.stalled {
		t.Fatal("the run ended before the stall was injected")
	}
	if res.Failovers != 0 || res.Rejoins != 0 || res.Epoch != 1 {
		t.Fatalf("a coordinator stall cost failovers=%d rejoins=%d epoch=%d, want 0/0/1",
			res.Failovers, res.Rejoins, res.Epoch)
	}
	checkAgainstOracle(t, res, quickSpec)
}

// TestFleetCloseAfterKill: a fleet abandoned in the worst state — one worker
// killed mid-session, the coordinator gone (its context cancelled) with the
// survivors still solving — must still shut down: Close returns, and after it
// every member refuses sends with the fabric's closed error. The cancelled
// coordinator still stops and gathers, and reports the killed worker lost in
// the result phase as soon as its lease lapses, not at the end of the 5 s
// grace.
func TestFleetCloseAfterKill(t *testing.T) {
	for _, fab := range []struct {
		name string
		make fabricFn
	}{{"chan", chanFabric}, {"tcp", tcpFabric}} {
		t.Run(fab.name, func(t *testing.T) {
			t.Parallel()
			members := fab.make(t, 4)
			f := NewFleet(members, nil)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			start := time.Now()
			_, err := f.Coordinate(ctx, CoordConfig{
				Spec: quickSpec, Tol: 1e-9,
				HeartbeatMS: 10, LeaseBeats: 4, PollInterval: 5 * time.Millisecond,
				StablePolls: 1000, // keep polling: the kill must land mid-solve
				OnPoll: func(p int) {
					if p == 1 {
						f.Kill(3)
						cancel()
					}
				},
			})
			var wl *WorkerLostError
			if !errors.As(err, &wl) || wl.Worker != 3 || wl.Phase != "result" {
				t.Fatalf("coordinate: %v, want worker 3 reported lost in the result phase", err)
			}
			if d := time.Since(start); d >= time.Second {
				t.Fatalf("Coordinate took %v to report a lost result, want under 1 s", d)
			}
			closed := make(chan error, 1)
			go func() { closed <- f.Close() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Errorf("close: %v", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("Close hangs after a kill and an abandoned session")
			}
			for i, m := range members {
				err := m.Send(context.Background(), (i+1)%len(members), transport.Packet{Kind: transport.KindControl})
				if !errors.Is(err, transport.ErrClosed) {
					t.Errorf("member %d: send after Close: %v, want ErrClosed", i, err)
				}
			}
		})
	}
}

func TestFailoverDisabledSurfacesLoss(t *testing.T) {
	_, err := runFailoverKill(t, failoverOpts{fab: chanFabric, nWorkers: 3, disable: true})
	if !errors.Is(err, ErrWorkerLost) {
		t.Fatalf("expected ErrWorkerLost with failover disabled, got %v", err)
	}
	var wl *WorkerLostError
	if !errors.As(err, &wl) || wl.Worker != 3 || len(wl.Parts) == 0 {
		t.Fatalf("loss not attributed: %v", err)
	}
}

func TestRejoinRestartedWorker(t *testing.T) {
	res, err := runFailoverKill(t, failoverOpts{
		fab: chanFabric, nWorkers: 3, restartAtPoll: 8, stablePolls: 6,
	})
	if err != nil {
		t.Fatalf("coordinate: %v", err)
	}
	if res.Rejoins < 1 {
		t.Fatalf("expected the restarted worker to rejoin, got rejoins=%d (failovers=%d, epoch=%d)",
			res.Rejoins, res.Failovers, res.Epoch)
	}
	if res.Owner[3] != 3 {
		t.Fatalf("home part 3 not handed back to the rejoined worker: owner=%v", res.Owner)
	}
	checkAgainstOracle(t, res, quickSpec)
}

// TestWorkerLostAssign: the assign phase cannot reach a worker whose
// transport is gone — the error names the worker and its parts. (TCP: a
// closed member refuses connections deterministically; the chan fabric keeps
// accepting into the drainable inbox.)
func TestWorkerLostAssign(t *testing.T) {
	members := tcpFabric(t, 2)
	members[1].Close()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	_, err := Coordinate(ctx, members[0], CoordConfig{Spec: quickSpec, Workers: []int{1}, Tol: 1e-9})
	var wl *WorkerLostError
	if !errors.Is(err, ErrWorkerLost) || !errors.As(err, &wl) {
		t.Fatalf("expected *WorkerLostError, got %v", err)
	}
	if wl.Worker != 1 || wl.Phase != "assign" || len(wl.Parts) != quickSpec.Parts() {
		t.Fatalf("loss misattributed: %+v", wl)
	}
}

// TestWorkerLostReady: a worker that accepts the assignment but never
// answers ready is reported lost, not waited on forever.
func TestWorkerLostReady(t *testing.T) {
	members := chanFabric(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	_, err := Coordinate(ctx, members[0], CoordConfig{Spec: quickSpec, Workers: []int{1}, Tol: 1e-9})
	var wl *WorkerLostError
	if !errors.As(err, &wl) || wl.Worker != 1 || wl.Phase != "ready" {
		t.Fatalf("expected ready-phase WorkerLostError, got %v", err)
	}
}

// TestCoordinatorClosedDuringReady: the coordinator's own member closes
// while it waits for ready. That is not a worker's loss: the error wraps
// transport.ErrClosed.
func TestCoordinatorClosedDuringReady(t *testing.T) {
	members := chanFabric(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := Coordinate(ctx, closeOnRecv{members[0]}, CoordConfig{Spec: quickSpec, Workers: []int{1}, Tol: 1e-9})
	if !errors.Is(err, transport.ErrClosed) || errors.Is(err, ErrWorkerLost) {
		t.Fatalf("Coordinate: %v, want an error wrapping transport.ErrClosed", err)
	}
	if ctx.Err() != nil {
		t.Fatal("Coordinate ran into its deadline instead of returning on the closed member")
	}
}

// closeOnRecv closes its member before every receive (closing again is
// harmless). The coordinator first receives once its assigns are out, in the
// ready phase.
type closeOnRecv struct{ transport.Transport }

func (c closeOnRecv) Recv(ctx context.Context) (transport.Packet, error) {
	c.Close()
	return c.Transport.Recv(ctx)
}

// TestWorkerLostStatus: the sole worker goes silent mid-solve; with no
// survivors to fail over to, the poll loop surfaces a typed loss.
func TestWorkerLostStatus(t *testing.T) {
	f := NewFleet(chanFabric(t, 2), nil)
	defer f.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, err := f.Coordinate(ctx, CoordConfig{
		Spec: quickSpec, Tol: 1e-9,
		HeartbeatMS: 10, LeaseBeats: 3, PollInterval: 5 * time.Millisecond,
		StablePolls: 1000, // keep polling: the kill must land mid-solve
		OnPoll: func(p int) {
			if p >= 1 {
				f.Kill(1)
			}
		},
	})
	var wl *WorkerLostError
	if !errors.Is(err, ErrWorkerLost) || !errors.As(err, &wl) {
		t.Fatalf("expected *WorkerLostError, got %v", err)
	}
	if wl.Worker != 1 || wl.Phase != "poll" || len(wl.Parts) != quickSpec.Parts() {
		t.Fatalf("loss misattributed: %+v", wl)
	}
}

// steppedAssign builds the epoch-1 assignment used by the deterministic
// stepped harness (no coordinator, no goroutines).
func steppedAssign(owner []int) *assignMsg {
	return &assignMsg{
		Spec: quickSpec, Owner: append([]int(nil), owner...),
		SendThreshold: 1e-11, WatchdogMS: 50, HeartbeatMS: 25, Epoch: 1, Ordering: "auto",
	}
}

// runSteppedFailover runs a fully deterministic single-goroutine failover:
// worker states over a chan fabric are stepped round-robin, the victim is
// stopped at a fixed round, and the survivors adopt its parts from its last
// heartbeat snapshot under epoch 2. It returns the assembled solution as
// bytes (IEEE-754 bits), so two runs can be compared for byte identity.
func runSteppedFailover(t *testing.T, nWorkers, victim, killRound int) []byte {
	t.Helper()
	members := transport.NewChanNetwork(nWorkers + 1)
	defer func() {
		for _, m := range members {
			m.Close()
		}
	}()
	coord := nWorkers
	p, err := quickSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, nWorkers)
	for i := range ids {
		ids[i] = i
	}
	home := ContiguousOwner(p.Partition.NumParts(), ids)

	sessions := make([]*workerState, nWorkers)
	for i := range sessions {
		sessions[i] = stepSession(t, members[i], 1, coord, steppedAssign(home))
	}
	for _, s := range sessions {
		stepMsg(t, s, coord, &ctrlMsg{Type: msgStart})
	}

	// A cancelled context makes chan Recv a non-blocking drain.
	drainCtx, cancel := context.WithCancel(context.Background())
	cancel()

	dead := make(map[int]bool)
	for round := 0; round < 10000; round++ {
		if round == killRound {
			// The coordinator's view at the kill: the victim's last heartbeat
			// is the last-known-good snapshot of its parts.
			hb := sessions[victim].heartbeat()
			dead[victim] = true
			var alive []int
			for _, id := range ids {
				if !dead[id] {
					alive = append(alive, id)
				}
			}
			newOwner := DeriveOwner(quickSpec.Hash(), home, alive)
			re := &reassignMsg{Epoch: 2, Assign: *steppedAssign(newOwner)}
			re.Assign.Epoch = 2
			for _, sn := range hb.Snaps {
				if newOwner[sn.Part] != victim {
					re.Snaps = append(re.Snaps, sn)
				}
			}
			for _, id := range alive {
				if stepMsg(t, sessions[id], coord, &ctrlMsg{Type: msgReassign, Reassign: re}); sessions[id].shard.Epoch() != 2 {
					t.Fatalf("worker %d did not adopt epoch 2", id)
				}
			}
		}
		progress := false
		for i := 0; i < nWorkers; i++ {
			for {
				pkt, err := members[i].Recv(drainCtx)
				if err != nil {
					break
				}
				if dead[i] || pkt.Kind != transport.KindWave {
					continue
				}
				sessions[i].shard.Receive(&pkt)
				progress = true
			}
			if dead[i] {
				continue
			}
			for sessions[i].shard.SolveDirty() {
				progress = true
			}
		}
		if !progress && round > killRound {
			break
		}
	}

	x := make([]float64, p.System.Dim())
	ownerPairs := p.OwnerPairs()
	for i, s := range sessions {
		if dead[i] {
			continue
		}
		for _, part := range s.shard.Owned() {
			xl := s.shard.Sub(part).X()
			for _, pair := range ownerPairs[part] {
				x[pair[1]] = xl[pair[0]]
			}
		}
	}

	// The stepped run must still land on the true solution.
	oracle, err := quickSpec.Oracle(1e-9, factor.Settings{})
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := range x {
		worst = math.Max(worst, math.Abs(x[i]-oracle.X[i]))
	}
	if !(worst <= 1e-6) {
		t.Fatalf("stepped failover X differs from oracle by %g", worst)
	}

	buf := make([]byte, 0, 8*len(x))
	for _, v := range x {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// TestFailoverDeterministicStepped pins the acceptance bar: the same seed
// and kill point produce byte-identical failover results at GOMAXPROCS 1
// and 4 (the harness is single-goroutine; the solve path it drives must be
// free of map-iteration and scheduling nondeterminism).
func TestFailoverDeterministicStepped(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	one := runSteppedFailover(t, 3, 2, 5)
	oneAgain := runSteppedFailover(t, 3, 2, 5)
	runtime.GOMAXPROCS(4)
	four := runSteppedFailover(t, 3, 2, 5)
	runtime.GOMAXPROCS(prev)
	if !bytes.Equal(one, oneAgain) {
		t.Fatal("stepped failover not deterministic across runs at GOMAXPROCS=1")
	}
	if !bytes.Equal(one, four) {
		t.Fatal("stepped failover differs between GOMAXPROCS=1 and GOMAXPROCS=4")
	}
}

// TestFencingStaleEpochWaves proves zombie packets are dropped AND counted:
// waves from a stale epoch or an overtaken incarnation never reach the
// subdomain, and the fence counter surfaces through the worker's status.
func TestFencingStaleEpochWaves(t *testing.T) {
	members := transport.NewChanNetwork(2)
	defer func() {
		for _, m := range members {
			m.Close()
		}
	}()
	owner := make([]int, quickSpec.Parts()) // all parts on worker 0
	s := stepSession(t, members[0], 1, 1, steppedAssign(owner))
	s.started = true
	sub := s.shard.Sub(0)
	link := int32(sub.Ends()[0].LinkID)
	mk := func(epoch, inc uint32, seq uint64) *transport.Packet {
		return &transport.Packet{
			Kind: transport.KindWave, FromPart: 1, ToPart: 0,
			Seq: seq, Epoch: epoch, Inc: inc,
			Entries: []transport.WaveEntry{{LinkID: link, Wave: 1}},
		}
	}

	if s.shard.Receive(mk(0, 1, 1)) { // stale epoch (session is at 1)
		t.Fatal("stale-epoch wave applied")
	}
	if got := s.status().Fenced; got != 1 {
		t.Fatalf("stale-epoch wave not counted: fenced=%d", got)
	}
	if !s.shard.Receive(mk(1, 2, 1)) { // fresh: incarnation 2 registers
		t.Fatal("fresh wave refused")
	}
	if s.shard.Receive(mk(1, 1, 9)) { // zombie incarnation
		t.Fatal("zombie-incarnation wave applied")
	}
	if got := s.status().Fenced; got != 2 {
		t.Fatalf("zombie-incarnation wave not counted: fenced=%d", got)
	}
	if got := s.shard.Incoming(0)[0]; got != 1 {
		t.Fatalf("incoming wave = %g, want the one fresh packet's 1", got)
	}

	// Advance to epoch 2 via a reassign; yesterday's epoch is now fenced.
	re := &reassignMsg{Epoch: 2, Assign: *steppedAssign(owner)}
	re.Assign.Epoch = 2
	stepMsg(t, s, 1, &ctrlMsg{Type: msgReassign, Reassign: re})
	if s.shard.Receive(mk(1, 2, 10)) {
		t.Fatal("post-reassign stale wave applied")
	}
	if st := s.status(); st.Fenced != 3 || st.Epoch != 2 {
		t.Fatalf("status does not surface the fences: %+v", st)
	}
}

// TestHeartbeatCarriesSnapshots: a heartbeat identifies the life and epoch
// and carries one boundary snapshot per owned part, sized to the part's DTL
// ends.
func TestHeartbeatCarriesSnapshots(t *testing.T) {
	members := transport.NewChanNetwork(2)
	defer func() {
		for _, m := range members {
			m.Close()
		}
	}()
	owner := make([]int, quickSpec.Parts())
	s := stepSession(t, members[0], 7, 1, steppedAssign(owner))
	hb := s.heartbeat()
	if hb.Inc != 7 || hb.Epoch != 1 {
		t.Fatalf("heartbeat identity wrong: %+v", hb)
	}
	owned := s.shard.Owned()
	if len(hb.Snaps) != len(owned) {
		t.Fatalf("want %d snapshots, got %d", len(owned), len(hb.Snaps))
	}
	for i, sn := range hb.Snaps {
		if sn.Part != owned[i] {
			t.Fatalf("snapshot %d out of order: part %d", i, sn.Part)
		}
		if ends := s.shard.Sub(sn.Part).Ends(); len(sn.Incoming) != len(ends) {
			t.Fatalf("snapshot %d has %d entries for %d ends", i, len(sn.Incoming), len(ends))
		}
	}
}

// TestHeartbeatLeaseMembership drives the membership state machine through
// beat, expiry, zombie and rejoin transitions with a fake clock.
func TestHeartbeatLeaseMembership(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := newMembership([]int{1, 2}, 100*time.Millisecond, 42)
	ms.start(t0)

	// Jitter is deterministic and within +0..25%.
	l1, l2 := ms.leaseOf(1), ms.leaseOf(2)
	if l1 != ms.leaseOf(1) {
		t.Fatal("lease jitter not deterministic")
	}
	for _, l := range []time.Duration{l1, l2} {
		if l < 100*time.Millisecond || l >= 125*time.Millisecond {
			t.Fatalf("jittered lease %v out of [100ms, 125ms)", l)
		}
	}

	if exp := ms.expired(t0.Add(50 * time.Millisecond)); len(exp) != 0 {
		t.Fatalf("nothing should expire inside the lease: %v", exp)
	}
	// Both workers register incarnation 1; then worker 2 goes silent past
	// every jittered lease while worker 1 keeps beating.
	ms.beat(2, 1, 1, t0.Add(10*time.Millisecond))
	ms.beat(1, 1, 1, t0.Add(100*time.Millisecond))
	// Acknowledged-epoch tracking: both have only acknowledged epoch 1, so
	// both lag epoch 2 until a beat carries the newer epoch.
	if lag := ms.lagging(2); len(lag) != 2 {
		t.Fatalf("lagging(2) = %v, want both workers", lag)
	}
	ms.beat(1, 1, 2, t0.Add(110*time.Millisecond))
	if lag := ms.lagging(2); len(lag) != 1 || lag[0] != 2 {
		t.Fatalf("lagging(2) after worker 1 acked = %v, want [2]", lag)
	}
	exp := ms.expired(t0.Add(200 * time.Millisecond))
	if len(exp) != 1 || exp[0] != 2 {
		t.Fatalf("want worker 2 expired, got %v", exp)
	}
	ms.markDead(2)
	if a := ms.alive(); len(a) != 1 || a[0] != 1 {
		t.Fatalf("alive = %v", a)
	}

	// A dead-declared member beating with a real incarnation is a live
	// process: the same incarnation is a false expiry (a dead one is silent),
	// a higher one a restart — both must readmit. An incarnation-less beat
	// (status/ready-style, inc 0) must not.
	if ms.beat(2, 0, 0, t0.Add(205*time.Millisecond)) {
		t.Fatal("incarnation-less beat from a dead member must not rejoin")
	}
	if !ms.beat(2, 1, 0, t0.Add(210*time.Millisecond)) {
		t.Fatal("false-expiry beat (same incarnation) must readmit")
	}
	if !ms.beat(2, 2, 0, t0.Add(220*time.Millisecond)) {
		t.Fatal("higher-incarnation beat must rejoin")
	}
	ms.revive(2, 2, t0.Add(220*time.Millisecond))
	if a := ms.alive(); len(a) != 2 {
		t.Fatalf("alive after revive = %v", a)
	}
	// A straggler from the pre-restart life (inc 1 < recorded 2) is a true
	// zombie once the member is dead again: it must stay ignored.
	ms.markDead(2)
	if ms.beat(2, 1, 0, t0.Add(230*time.Millisecond)) {
		t.Fatal("stale-incarnation beat after an admitted restart must not rejoin")
	}
	ms.revive(2, 2, t0.Add(240*time.Millisecond))
	if exp := ms.expired(t0.Add(300 * time.Millisecond)); len(exp) != 1 || exp[0] != 1 {
		t.Fatalf("want worker 1 expired after revive, got %v", exp)
	}
}

// TestDeriveOwner pins the rendezvous re-assignment: history-free,
// deterministic, home-preserving, and survivors-only.
func TestDeriveOwner(t *testing.T) {
	spec := quickSpec.Hash()
	home := []int{1, 1, 2, 3}

	all := DeriveOwner(spec, home, []int{1, 2, 3})
	for part, w := range all {
		if w != home[part] {
			t.Fatalf("with everyone alive, owner must be home: got %v", all)
		}
	}

	no3 := DeriveOwner(spec, home, []int{1, 2})
	for part, w := range no3 {
		if w == 3 {
			t.Fatalf("dead worker still assigned: %v", no3)
		}
		if home[part] != 3 && w != home[part] {
			t.Fatalf("surviving home ownership disturbed: %v", no3)
		}
	}
	if again := DeriveOwner(spec, home, []int{1, 2}); !equalInts(no3, again) {
		t.Fatal("DeriveOwner is not deterministic")
	}

	// Rejoin: reviving worker 3 restores exactly the home map.
	back := DeriveOwner(spec, home, []int{1, 2, 3})
	if !equalInts(back, home) {
		t.Fatalf("rejoin does not restore home ownership: %v", back)
	}

	sole := DeriveOwner(spec, home, []int{2})
	for _, w := range sole {
		if w != 2 {
			t.Fatalf("sole survivor must own everything: %v", sole)
		}
	}
}

// TestReassignDropsDirtyPart: handing a part back while it sits in the dirty
// queue must purge it from the queue — a pending solve on a dropped part
// would dereference the deleted subdomain (regression: SIGSEGV under -race
// in the rejoin path).
func TestReassignDropsDirtyPart(t *testing.T) {
	members := transport.NewChanNetwork(3)
	defer func() {
		for _, m := range members {
			m.Close()
		}
	}()
	owner := make([]int, quickSpec.Parts()) // all parts on worker 0
	s := stepSession(t, members[0], 1, 2, steppedAssign(owner))
	stepMsg(t, s, 2, &ctrlMsg{Type: msgStart})
	if d := s.status().Dirty; d != quickSpec.Parts() {
		t.Fatalf("after boot %d parts are dirty, want all %d", d, quickSpec.Parts())
	}

	// Hand the last part to worker 1 while it is still dirty.
	handed := int32(quickSpec.Parts() - 1)
	newOwner := append([]int(nil), owner...)
	newOwner[handed] = 1
	re := &reassignMsg{Epoch: 2, Assign: *steppedAssign(newOwner)}
	re.Assign.Epoch = 2
	stepMsg(t, s, 2, &ctrlMsg{Type: msgReassign, Reassign: re})
	if d := s.status().Dirty; d != quickSpec.Parts()-1 {
		t.Fatalf("%d parts dirty after handback, want the %d kept ones", d, quickSpec.Parts()-1)
	}
	// Drain the whole dirty queue: no pop may name the handed part, and none
	// may panic on a nil subdomain.
	for s.shard.SolveDirty() {
	}
	if s.shard.Sub(handed) != nil {
		t.Fatalf("part %d still torn after handback", handed)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWorkerDropsCorruptCtrl: malformed control payloads are dropped,
// in-session and idle, without ever panicking or killing the loop.
func TestWorkerDropsCorruptCtrl(t *testing.T) {
	members := transport.NewChanNetwork(2)
	defer func() {
		for _, m := range members {
			m.Close()
		}
	}()
	owner := make([]int, quickSpec.Parts())
	s := stepSession(t, members[0], 1, 1, steppedAssign(owner))
	for _, ctrl := range [][]byte{nil, []byte(`{"type":`), []byte(`"start"`), []byte("\xff\xfe")} {
		outs, exit := s.Handle(&transport.Packet{Kind: transport.KindControl, From: 1, Ctrl: ctrl})
		if exit || s.shard == nil || len(outs) > 0 {
			t.Fatalf("corrupt ctrl %q was answered or ended the session: exit=%v, %d messages", ctrl, exit, len(outs))
		}
	}
	// A reassign with a malformed owner map is dropped, not applied.
	re := &reassignMsg{Epoch: 9, Assign: assignMsg{Owner: []int{0}, Epoch: 9}}
	stepMsg(t, s, 1, &ctrlMsg{Type: msgReassign, Reassign: re})
	if s.shard.Epoch() != 1 {
		t.Fatalf("malformed reassign applied: epoch=%d", s.shard.Epoch())
	}
}

// TestWorkerIdleSurvivesCorruptCtrl: an idle worker fed garbage frames keeps
// serving: it answers the next status poll with hello, and the session it is
// assigned next with a status.
func TestWorkerIdleSurvivesCorruptCtrl(t *testing.T) {
	members := chanFabric(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	w := NewWorker(members[1])
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w.Run(ctx)
	}()
	for i := 0; i < 3; i++ {
		_ = members[0].Send(ctx, 1, transport.Packet{Kind: transport.KindControl, Ctrl: []byte("garbage")})
	}
	_ = sendCtrl(ctx, members[0], 1, encodeCtrl(&ctrlMsg{Type: msgStatusRq}))
	pkt, err := members[0].Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeCtrl(&pkt)
	if err != nil || m.Type != msgHello || m.HB == nil || m.HB.Inc != 1 {
		t.Fatalf("idle worker did not hello after garbage: %v %+v", err, m)
	}
	_ = sendCtrl(ctx, members[0], 1, encodeCtrl(&ctrlMsg{Type: msgAssign, Assign: steppedAssign(ContiguousOwner(quickSpec.Parts(), []int{1}))}))
	_ = sendCtrl(ctx, members[0], 1, encodeCtrl(&ctrlMsg{Type: msgStatusRq, Round: 1}))
	var st *statusMsg
	for st == nil {
		pkt, err := members[0].Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if m, err := decodeCtrl(&pkt); err == nil && m.Type == msgStatus {
			st = m.Status
		}
	}
	_ = sendCtrl(ctx, members[0], 1, encodeCtrl(&ctrlMsg{Type: msgShutdown}))
	wg.Wait()
}

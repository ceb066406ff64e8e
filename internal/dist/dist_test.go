package dist

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/factor"
	"repro/internal/transport"
)

// quickSpec is a small torn grid that converges fast but still crosses
// member boundaries in both directions.
var quickSpec = SpecV2{V: 2, Source: "grid:rows=17,cols=17,seed=3", PartsX: 2, PartsY: 2}

// fabricFn builds an n-member network, closed again when the test ends.
type fabricFn func(t *testing.T, n int) []transport.Transport

func chanFabric(t *testing.T, n int) []transport.Transport {
	return closeAtCleanup(t, transport.NewChanNetwork(n))
}

func tcpFabric(t *testing.T, n int) []transport.Transport {
	t.Helper()
	members, err := transport.NewTCPLoopback(n)
	if err != nil {
		t.Fatal(err)
	}
	return closeAtCleanup(t, members)
}

func closeAtCleanup(t *testing.T, members []transport.Transport) []transport.Transport {
	t.Cleanup(func() {
		for _, m := range members {
			m.Close()
		}
	})
	return members
}

// faultWrap is the Fleet decorator that puts every worker member behind an
// enabled fault spec (nil for an empty one). Distinct seed per member:
// independent fate streams, like the engines' per-pair streams.
func faultWrap(t *testing.T, faults string, nMembers int) func(int, transport.Transport) transport.Transport {
	t.Helper()
	if faults == "" {
		return nil
	}
	fs, err := chaos.ParseSpec(faults)
	if err != nil {
		t.Fatalf("fault spec: %v", err)
	}
	return func(member int, tr transport.Transport) transport.Transport {
		if member == 0 {
			return tr
		}
		own := *fs
		own.Seed += int64(member)
		return transport.WithFaults(tr, &own, nMembers)
	}
}

// runDistributed runs one coordinated solve: member 0 coordinates, members
// 1..n-1 are workers, optionally behind an enabled fault spec.
func runDistributed(t *testing.T, fab fabricFn, nWorkers int, spec SpecV2, faults string) *Result {
	t.Helper()
	f := NewFleet(fab(t, nWorkers+1), faultWrap(t, faults, nWorkers+1))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := f.Coordinate(ctx, CoordConfig{
		Spec: spec, Tol: 1e-9,
		WatchdogMS: 20, PollInterval: 5 * time.Millisecond,
	})
	if werr := f.Close(); werr != nil {
		t.Errorf("worker: %v", werr)
	}
	if err != nil {
		t.Fatalf("coordinate: %v", err)
	}
	return res
}

// checkAgainstOracle asserts the acceptance bar: the distributed run
// converges and agrees with the in-process DES oracle to 1e-6.
func checkAgainstOracle(t *testing.T, res *Result, spec SpecV2) {
	t.Helper()
	if !res.Converged {
		t.Fatalf("distributed run did not converge (%d polls, maxChange=%g, gap=%g)",
			res.Polls, res.MaxLastChange, res.TwinGap)
	}
	oracle, err := spec.Oracle(1e-9, factor.Settings{})
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if d := res.X.MaxAbsDiff(oracle.X); !(d <= 1e-6) {
		t.Fatalf("distributed X differs from DES oracle by %g (> 1e-6)", d)
	}
	if res.Solves == 0 || res.Messages == 0 {
		t.Fatalf("counters not aggregated: solves=%d messages=%d", res.Solves, res.Messages)
	}
}

func TestDistributedChanMatchesOracle(t *testing.T) {
	res := runDistributed(t, chanFabric, 4, quickSpec, "")
	checkAgainstOracle(t, res, quickSpec)
}

func TestDistributedChanFewerWorkersThanParts(t *testing.T) {
	// 2 workers own 2 parts each: exercises the in-process local-delivery
	// short-circuit alongside cross-member traffic.
	res := runDistributed(t, chanFabric, 2, quickSpec, "")
	checkAgainstOracle(t, res, quickSpec)
}

func TestDistributedTCPMatchesOracle(t *testing.T) {
	res := runDistributed(t, tcpFabric, 2, quickSpec, "")
	checkAgainstOracle(t, res, quickSpec)
}

func TestDistributedChanWithDropConverges(t *testing.T) {
	// 5% wave drop: the watchdog retransmission must carry the run to the
	// same fixpoint regardless.
	res := runDistributed(t, chanFabric, 4, quickSpec, "drop=0.05,seed=11")
	checkAgainstOracle(t, res, quickSpec)
}

// recvGuard counts Recv calls that overlapped another one on the same member.
type recvGuard struct {
	transport.Transport
	active, overlaps atomic.Int32
}

func (g *recvGuard) Recv(ctx context.Context) (transport.Packet, error) {
	if g.active.Add(1) > 1 {
		g.overlaps.Add(1)
	}
	defer g.active.Add(-1)
	return g.Transport.Recv(ctx)
}

func TestWorkerServesMultipleSessions(t *testing.T) {
	// A dtmd-style long-lived worker: two solves over the same worker
	// processes, second session reuses the standing members. Each worker
	// must be its transport's only receiver throughout: a second one swallows
	// whatever it takes — the shutdown below, or the next assign.
	members := chanFabric(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	guards := make([]*recvGuard, 3)
	for i := 1; i <= 2; i++ {
		guards[i] = &recvGuard{Transport: members[i]}
		w := NewWorker(guards[i])
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	for round := 0; round < 2; round++ {
		spec := quickSpec
		spec.Source = fmt.Sprintf("grid:rows=17,cols=17,seed=%d", 3+round)
		res, err := Coordinate(ctx, members[0], CoordConfig{
			Spec: spec, Workers: []int{1, 2}, Tol: 1e-9,
			WatchdogMS: 20, PollInterval: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		checkAgainstOracle(t, res, spec)
	}
	for _, w := range []int{1, 2} {
		_ = sendCtrl(ctx, members[0], w, encodeCtrl(&ctrlMsg{Type: msgShutdown}))
	}
	wg.Wait()
	if ctx.Err() != nil {
		t.Fatal("a worker missed its shutdown and ran into the deadline")
	}
	for _, g := range guards[1:] {
		if n := g.overlaps.Load(); n != 0 {
			t.Errorf("worker %d: %d Recv calls overlapped another receiver", g.Self(), n)
		}
	}
}

func TestContiguousOwner(t *testing.T) {
	owner := ContiguousOwner(4, []int{7, 9})
	want := []int{7, 7, 9, 9}
	for i := range want {
		if owner[i] != want[i] {
			t.Fatalf("owner = %v, want %v", owner, want)
		}
	}
	owner = ContiguousOwner(3, []int{1, 2, 3})
	for i, w := range []int{1, 2, 3} {
		if owner[i] != w {
			t.Fatalf("1:1 owner = %v", owner)
		}
	}
}

func TestCoordinateRejectsBadConfig(t *testing.T) {
	ctx := context.Background()
	members := chanFabric(t, 1)
	cases := []CoordConfig{
		{Spec: quickSpec, Workers: nil, Tol: 1e-9},
		{Spec: quickSpec, Workers: []int{1, 2, 3, 4, 5}, Tol: 1e-9},
		{Spec: quickSpec, Workers: []int{1}, Tol: 0},
	}
	for i, cfg := range cases {
		if _, err := Coordinate(ctx, members[0], cfg); err == nil {
			t.Fatalf("case %d: expected config error", i)
		}
	}
}

// TestSendThresholdDefaultIsCoreRule: a dist session suppresses waves at the
// threshold every fault-injected solve defaults to, core's one
// DrainThreshold rule — no floor of its own, so at Tol 1e-11 it is 1e-13.
func TestSendThresholdDefaultIsCoreRule(t *testing.T) {
	for _, tol := range []float64{1e-6, 1e-9, 1e-11, 1e-14} {
		cfg := CoordConfig{Spec: quickSpec, Workers: []int{1}, Tol: tol}
		if err := cfg.normalize(); err != nil {
			t.Fatal(err)
		}
		if want := core.DrainThreshold(tol); cfg.SendThreshold != want {
			t.Errorf("Tol %g: session threshold %g, core's rule %g", tol, cfg.SendThreshold, want)
		}
	}
	if got := core.DrainThreshold(1e-11); !(got < 1e-12) {
		t.Errorf("DrainThreshold(1e-11) = %g, want Tol/100, below 1e-12", got)
	}
}

// TestSessionImpedancesMatchTheOracle: a worker session tears its spec with
// the impedances the spec's DES oracle reports, core's one default, so the
// two cannot drift apart when that default changes.
func TestSessionImpedancesMatchTheOracle(t *testing.T) {
	members := chanFabric(t, 2)
	s := stepSession(t, members[1], 1, 0, steppedAssign(ContiguousOwner(quickSpec.Parts(), []int{1})))
	oracle, err := quickSpec.Oracle(1e-9, factor.Settings{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.zs) == 0 || !slices.Equal(s.zs, oracle.Impedances) {
		t.Errorf("session impedances %v, oracle %v", s.zs, oracle.Impedances)
	}
}

// TestCoordinateRejectsUnknownBackend: a backend name no worker can build is
// refused with factor's own error before a single assign leaves the
// coordinator.
func TestCoordinateRejectsUnknownBackend(t *testing.T) {
	members := chanFabric(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := Coordinate(ctx, members[0], CoordConfig{
		Spec: quickSpec, Workers: []int{1}, Tol: 1e-9, Factor: factor.Settings{Backend: "no-such-backend"},
	})
	want := factor.Settings{Backend: "no-such-backend"}.Validate()
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("Coordinate: %v, want %v", err, want)
	}
	quiet, stop := context.WithTimeout(ctx, 50*time.Millisecond)
	defer stop()
	if pkt, err := members[1].Recv(quiet); err == nil {
		t.Fatalf("the worker received %q after a refused config", pkt.Ctrl)
	}
}

func TestSpecBuildDeterministic(t *testing.T) {
	p1, err := quickSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := quickSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p1.System.Dim() != p2.System.Dim() ||
		p1.Partition.NumParts() != p2.Partition.NumParts() ||
		len(p1.Partition.Links) != len(p2.Partition.Links) {
		t.Fatal("re-tearing is not deterministic")
	}
	for i, l := range p1.Partition.Links {
		if p2.Partition.Links[i] != l {
			t.Fatalf("link %d differs across builds: %+v vs %+v", i, l, p2.Partition.Links[i])
		}
	}
	// An out-of-range topology is rejected, not mis-built.
	bad := quickSpec
	bad.Topology = "nosuch"
	if _, err := bad.Build(); err == nil {
		t.Fatal("expected unknown-topology error")
	}
}

// TestQuiescentRules drives the stopping predicate directly through its edge
// cases: unsolved part, in-flight sequence numbers, a dirty shard, twin gap.
func TestQuiescentRules(t *testing.T) {
	p, err := quickSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	links := p.Partition.Links
	mk := func() []core.ShardState {
		sts := []core.ShardState{{}}
		for part := 0; part < p.Partition.NumParts(); part++ {
			sub := p.Partition.Subdomains[part]
			sts[0].Parts = append(sts[0].Parts, core.PartState{
				Part: int32(part), SolvedOnce: true, Ports: make([]float64, sub.NumPorts),
			})
		}
		return sts
	}
	quiescent := func(sts []core.ShardState) bool {
		ok, _, _ := core.Quiescent(links, 1e-9, sts)
		return ok
	}

	sts := mk()
	if !quiescent(sts) {
		t.Fatal("all-zero converged state should be quiescent")
	}
	sts[0].Parts[0].SolvedOnce = false
	if quiescent(sts) {
		t.Fatal("unsolved part must block quiescence")
	}

	sts = mk()
	sts[0].Parts[1].LastChange = 1e-3
	if ok, maxChange, _ := core.Quiescent(links, 1e-9, sts); ok || maxChange != 1e-3 {
		t.Fatalf("large boundary change must block quiescence and be reported: ok=%v maxChange=%g", ok, maxChange)
	}

	sts = mk()
	sts[0].Needed = []core.PairSeq{{From: 0, To: 1, Seq: 5}}
	sts[0].Applied = []core.PairSeq{{From: 0, To: 1, Seq: 4}}
	if quiescent(sts) {
		t.Fatal("in-flight sequence number must block quiescence")
	}
	sts[0].Applied[0].Seq = 5
	if !quiescent(sts) {
		t.Fatal("drained network should be quiescent")
	}
	sts[0].Dirty = 1
	if quiescent(sts) {
		t.Fatal("a shard that applied a wave it has not solved for must block quiescence")
	}

	sts = mk()
	sts[0].Parts[0].Ports[0] = 1e-3
	if ok, _, gap := core.Quiescent(links, 1e-9, sts); ok || gap != 1e-3 {
		t.Fatalf("twin gap must block quiescence and be reported: ok=%v gap=%g", ok, gap)
	}
	sts = mk()
	sts[0].Parts = sts[0].Parts[1:]
	if ok, _, gap := core.Quiescent(links, 1e-9, sts); ok || !math.IsInf(gap, 1) {
		t.Fatalf("a part nobody reports must make the gap infinite: ok=%v gap=%g", ok, gap)
	}
}

// TestClassifyFilesStatusOnlyForItsRound: a status counts only in the round
// that asked for it. One echoing round r−1 while round r is in flight was
// produced before r began, and is not filed; one echoing r is, and completes
// the round.
func TestClassifyFilesStatusOnlyForItsRound(t *testing.T) {
	now := time.Unix(1000, 0)
	s := pollingState(t, now, 1)
	s.round, s.statuses = 5, map[int]*statusMsg{}
	status := func(round int) *ctrlMsg {
		return &ctrlMsg{Type: msgStatus, Round: round, Status: &statusMsg{Epoch: 1}}
	}
	if _, err := s.Handle(now, 1, status(4)); err != nil {
		t.Fatal(err)
	}
	if s.statuses[1] != nil || s.res.Polls != 0 {
		t.Fatal("a reply to round 4 was filed in round 5")
	}
	if _, err := s.Handle(now, 1, status(5)); err != nil {
		t.Fatal(err)
	}
	if s.res.Polls != 1 {
		t.Fatal("the reply to round 5 was not filed")
	}
}

// statusDelay sits on the coordinator's member and holds every status reply
// for d before the coordinator sees it, letting the rest of the control
// traffic through. Only the coordinator's goroutine uses it.
type statusDelay struct {
	transport.Transport
	d    time.Duration
	held []heldPacket
}

type heldPacket struct {
	due time.Time
	pkt transport.Packet
}

func (s *statusDelay) Recv(ctx context.Context) (transport.Packet, error) {
	for {
		if len(s.held) > 0 && !time.Now().Before(s.held[0].due) {
			pkt := s.held[0].pkt
			s.held = s.held[1:]
			return pkt, nil
		}
		rctx, cancel := ctx, context.CancelFunc(func() {})
		if len(s.held) > 0 {
			rctx, cancel = context.WithDeadline(ctx, s.held[0].due)
		}
		pkt, err := s.Transport.Recv(rctx)
		cancel()
		if err != nil {
			if ctx.Err() == nil && rctx.Err() != nil {
				continue // a held reply fell due
			}
			return pkt, err
		}
		if m, err := decodeCtrl(&pkt); err == nil && m.Type == msgStatus {
			s.held = append(s.held, heldPacket{due: time.Now().Add(s.d), pkt: pkt})
			continue
		}
		return pkt, nil
	}
}

// TestDistributedSlowRoundMatchesOracle: every status reply takes three poll
// intervals to reach the coordinator. A round still incomplete when the
// interval passes must be asked again, not replaced by a new one whose number
// no reply in transit can echo, or no round ever completes.
func TestDistributedSlowRoundMatchesOracle(t *testing.T) {
	const poll = 5 * time.Millisecond
	f := NewFleet(chanFabric(t, 3), func(member int, tr transport.Transport) transport.Transport {
		if member == 0 {
			return &statusDelay{Transport: tr, d: 3 * poll}
		}
		return tr
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := f.Coordinate(ctx, CoordConfig{
		Spec: quickSpec, Tol: 1e-9,
		WatchdogMS: 20, PollInterval: poll,
	})
	if werr := f.Close(); werr != nil {
		t.Errorf("worker: %v", werr)
	}
	if err != nil {
		t.Fatalf("coordinate: %v", err)
	}
	checkAgainstOracle(t, res, quickSpec)
}

// readyTamper sits on the coordinator's member. It alters the victim's ready
// on its way in and holds it back until the other workers' readies have
// passed, so the altered tear is the one that disagrees with the first. It
// also counts the start messages the coordinator sends. Only the
// coordinator's goroutine uses it.
type readyTamper struct {
	transport.Transport
	victim int
	others int // readies from other workers still to pass before the victim's
	alter  func(*readyMsg)
	held   *transport.Packet
	starts int
}

func (r *readyTamper) Send(ctx context.Context, to int, pkt transport.Packet) error {
	if m, err := decodeCtrl(&pkt); err == nil && m.Type == msgStart {
		r.starts++
	}
	return r.Transport.Send(ctx, to, pkt)
}

func (r *readyTamper) Recv(ctx context.Context) (transport.Packet, error) {
	for {
		if r.held != nil && r.others == 0 {
			pkt := *r.held
			r.held = nil
			return pkt, nil
		}
		pkt, err := r.Transport.Recv(ctx)
		if err != nil {
			return pkt, err
		}
		m, err := decodeCtrl(&pkt)
		if err != nil || m.Type != msgReady || m.Ready == nil {
			return pkt, nil
		}
		if int(pkt.From) != r.victim {
			r.others--
			return pkt, nil
		}
		r.alter(m.Ready)
		pkt.Ctrl = encodeCtrl(m)
		r.held = &pkt
	}
}

// TestCoordinatorRefusesDisagreeingTears: every worker tears the spec on its
// own, and its ready says what it tore. A worker whose twin links or
// dimension differ from the first ready's, or whose dimension could not hold
// the parts, is refused by name, and no start leaves the coordinator.
func TestCoordinatorRefusesDisagreeingTears(t *testing.T) {
	const differs = "dist: worker 2 tore a different problem"
	for _, tc := range []struct {
		name  string
		alter func(*readyMsg)
		want  string
	}{
		{"links", func(r *readyMsg) { r.Links[len(r.Links)/8*4+3]++ }, differs}, // the middle link's PortB
		{"dim", func(r *readyMsg) { r.Dim++ }, differs},
		{"negative-dim", func(r *readyMsg) { r.Dim = -1 }, "dist: worker 2 sent a problem of -1 unknowns"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord := &readyTamper{victim: 2, others: 1, alter: tc.alter}
			f := NewFleet(chanFabric(t, 3), func(member int, tr transport.Transport) transport.Transport {
				if member == 0 {
					coord.Transport = tr
					return coord
				}
				return tr
			})
			defer f.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_, err := f.Coordinate(ctx, CoordConfig{Spec: quickSpec, Tol: 1e-9})
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("Coordinate: %v, want %q…", err, tc.want)
			}
			if coord.starts != 0 {
				t.Fatalf("%d start messages sent after a disagreeing ready", coord.starts)
			}
		})
	}
}

func ExampleSpecV2_Oracle() {
	spec := SpecV2{V: 2, Source: "grid:rows=9,cols=9,seed=1", PartsX: 2, PartsY: 1}
	res, err := spec.Oracle(1e-8, factor.Settings{})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Converged)
	// Output: true
}

// TestDivergingSessionFailsFast: DTM on an indefinite system diverges, and a
// non-finite port potential or last change never becomes finite again. The
// worker owning such a part answers the next poll with an error naming it,
// so the session fails within a poll or two instead of running to its
// deadline.
func TestDivergingSessionFailsFast(t *testing.T) {
	f := NewFleet(chanFabric(t, 3), nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	res, err := f.Coordinate(ctx, CoordConfig{
		Spec: SpecV2{V: 2, Source: "saddle:nx=8,ny=8", PartsX: 2, PartsY: 2}, Tol: 1e-8,
		WatchdogMS: 20, PollInterval: 5 * time.Millisecond,
	})
	elapsed := time.Since(start)
	f.Close()
	if err == nil || !strings.Contains(err.Error(), "failed: part ") || !strings.HasSuffix(err.Error(), " diverged") {
		t.Fatalf("Coordinate: res %+v, err %v; want a worker failure naming a diverged part", res, err)
	}
	if elapsed > time.Second {
		t.Errorf("the diverged session took %v to fail, want under 1 s", elapsed)
	}
}

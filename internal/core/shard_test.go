package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dtl"
	"repro/internal/factor"
	"repro/internal/iterative"
	"repro/internal/sparse"
	"repro/internal/topology"
	"repro/internal/transport"
)

// The Shard property suite: N shards stepped on one goroutine by a seeded
// scheduler that drops, duplicates, reorders and delays their packets and
// interleaves Receive / SolveDirty / Retransmit / State in random order — no
// clock, no goroutine, no transport, so every failure replays from its seed.
// It is the deterministic generalisation of dist's stepped failover test:
// midway one member dies and the survivors adopt its parts from its last
// boundary snapshot under a new epoch, each learning of it at a different
// step.

const (
	shardTol       = 1e-9
	shardFaultEnd  = 4000  // step after which the network only delays
	shardKillStep  = 1500  // step at which the victim dies (failover runs)
	shardStepLimit = 60000 // liveness bound: quiescent by then, or fail
)

// shardHarness is the simulated network and scheduler around the shards.
type shardHarness struct {
	t      *testing.T
	rng    *rand.Rand
	p      *Problem
	zs     []float64
	exact  sparse.Vec
	shards []*Shard // nil once dead
	step   int
	// Until faultEnd the network loses a drop share of the packets and
	// duplicates a dup share; after it, it only delays. deafWatchdog loses
	// every packet a Retransmit emits, whenever it runs.
	faultEnd       int
	drop, dup      float64
	deafWatchdog   bool
	retransmitting bool
	// inflight are the emitted packets not yet delivered.
	inflight []flight
	// reassignAt[i] is the step at which member i learns of the failover.
	reassignAt []int
	newOwner   []int
	snaps      map[int32][]float64
	// newest[(from,to,epoch)] is the newest sequence number applied on the
	// pair — the harness's own last-writer-wins oracle.
	newest map[[3]int64]uint64
	trail  []byte // hash chain of every State() the scheduler sampled
}

type flight struct {
	to  int
	due int
	pkt transport.Packet
}

func newShardHarness(t *testing.T, seed int64, nMembers int) *shardHarness {
	t.Helper()
	sys := sparse.RandomGridSPD(9, 6, 5)
	p, err := GridProblem(sys, 9, 6, 3, 2, topology.Uniform(6, 10, "uniform"))
	if err != nil {
		t.Fatal(err)
	}
	exact, st, err := iterative.CG(sys.A, sys.B, iterative.Config{MaxIterations: 5000, Tol: 1e-13})
	if err != nil || !st.Converged {
		t.Fatalf("reference CG failed: %v", err)
	}
	zs, err := dtl.Assign(p.Partition, dtl.DiagScaled{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := &shardHarness{
		t: t, rng: rand.New(rand.NewSource(seed)), p: p, zs: zs, exact: exact,
		shards: make([]*Shard, nMembers), reassignAt: make([]int, nMembers),
		faultEnd: shardFaultEnd, drop: 0.2, dup: 0.1,
		newest: make(map[[3]int64]uint64),
	}
	nParts := p.Partition.NumParts()
	owner := make([]int, nParts)
	for part := range owner {
		owner[part] = part * nMembers / nParts
	}
	for m := range h.shards {
		h.shards[m] = NewShard(m, owner, 1, shardTol/100, h.emit)
		for part, o := range owner {
			if o == m {
				h.shards[m].Adopt(h.subdomain(part), nil)
			}
		}
		h.shards[m].Wake()
	}
	return h
}

func (h *shardHarness) subdomain(part int) *Subdomain {
	sd, err := NewSubdomain(h.p.Partition.Subdomains[part], h.p.Partition.LinksOfPart(part), h.zs, factor.Settings{})
	if err != nil {
		h.t.Fatal(err)
	}
	return sd
}

// emit is every shard's network: while faults last a packet may be dropped or
// duplicated, and each copy is delayed by its own random number of steps, so
// packets overtake each other.
func (h *shardHarness) emit(to int, p *transport.Packet) {
	pkt := *p
	if h.deafWatchdog && h.retransmitting {
		return
	}
	copies := 1
	if h.step < h.faultEnd {
		switch r := h.rng.Float64(); {
		case r < h.drop:
			copies = 0
		case r < h.drop+h.dup:
			copies = 2
		}
	}
	for range copies {
		h.inflight = append(h.inflight, flight{to: to, due: h.step + 1 + h.rng.Intn(40), pkt: pkt})
	}
}

// deliver hands every due packet to its member and checks the receive-side
// rules against the harness's own bookkeeping: a packet of another epoch is
// never applied; within an epoch a packet is applied exactly when its
// sequence number is the newest seen on its pair.
func (h *shardHarness) deliver() {
	keep := h.inflight[:0]
	var due []flight
	for _, f := range h.inflight {
		if f.due <= h.step {
			due = append(due, f)
		} else {
			keep = append(keep, f)
		}
	}
	h.inflight = keep
	h.rng.Shuffle(len(due), func(i, j int) { due[i], due[j] = due[j], due[i] })
	for _, f := range due {
		sh := h.shards[f.to]
		if sh == nil {
			continue // addressed to the dead member
		}
		pkt := f.pkt
		key := [3]int64{int64(pkt.FromPart), int64(pkt.ToPart), int64(pkt.Epoch)}
		want := pkt.Epoch == sh.Epoch() && sh.Sub(pkt.ToPart) != nil && pkt.Seq > h.newest[key]
		before := incoming(sh, pkt.ToPart)
		got := sh.Receive(&pkt)
		if got != want {
			h.t.Fatalf("step %d: Receive(%d→%d seq %d epoch %d) = %v at epoch %d with newest %d",
				h.step, pkt.FromPart, pkt.ToPart, pkt.Seq, pkt.Epoch, got, sh.Epoch(), h.newest[key])
		}
		if got {
			h.newest[key] = pkt.Seq
		} else if after := incoming(sh, pkt.ToPart); !reflect.DeepEqual(before, after) {
			h.t.Fatalf("step %d: a refused packet changed part %d's boundary state", h.step, pkt.ToPart)
		}
	}
}

// incoming is Shard.Incoming, nil for a part the shard does not own.
func incoming(sh *Shard, part int32) []float64 {
	if sh.Sub(part) == nil {
		return nil
	}
	return sh.Incoming(part)
}

// kill removes the victim and schedules the survivors' reassignment: each
// adopts its share of the orphaned parts, seeded from the victim's boundary
// state at the moment of death, at its own random later step.
func (h *shardHarness) kill(victim int) {
	dead := h.shards[victim]
	h.shards[victim] = nil
	h.snaps = make(map[int32][]float64)
	var alive []int
	for m, sh := range h.shards {
		if sh != nil {
			alive = append(alive, m)
			h.reassignAt[m] = h.step + 1 + h.rng.Intn(200)
		}
	}
	h.newOwner = append([]int(nil), dead.owner...)
	for _, part := range dead.Owned() {
		h.snaps[part] = dead.Incoming(part)
		h.newOwner[part] = alive[int(part)%len(alive)]
	}
}

func (h *shardHarness) reassign(m int) {
	sh := h.shards[m]
	for part, o := range h.newOwner {
		if o == m && sh.Sub(int32(part)) == nil {
			sh.Adopt(h.subdomain(part), h.snaps[int32(part)])
		}
	}
	sh.Advance(2, h.newOwner)
	h.reassignAt[m] = 0
}

func (h *shardHarness) states() []ShardState {
	var sts []ShardState
	for _, sh := range h.shards {
		if sh != nil {
			sts = append(sts, sh.State())
		}
	}
	return sts
}

// x assembles the owner values of every live member's parts.
func (h *shardHarness) x() sparse.Vec {
	x := sparse.NewVec(h.p.System.Dim())
	pairs := h.p.OwnerPairs()
	for _, sh := range h.shards {
		if sh == nil {
			continue
		}
		for _, part := range sh.Owned() {
			for _, pair := range pairs[part] {
				x[pair[1]] = sh.Sub(part).X()[pair[0]]
			}
		}
	}
	return x
}

// run steps the scheduler until the fleet is quiescent after the faults have
// stopped, and returns the assembled solution and the State() trail as bytes.
func (h *shardHarness) run(failover bool) []byte {
	for h.step = 1; h.step <= shardStepLimit; h.step++ {
		if failover && h.step == shardKillStep {
			h.kill(len(h.shards) - 1)
		}
		for m, at := range h.reassignAt {
			if at > 0 && at <= h.step {
				h.reassign(m)
			}
		}
		h.deliver()

		m := h.rng.Intn(len(h.shards))
		if sh := h.shards[m]; sh != nil {
			switch r := h.rng.Float64(); {
			case r < 0.6:
				sh.SolveDirty()
			case r < 0.7:
				// (d) a retransmission never raises a needed mark.
				before := sh.State().Needed
				h.retransmitting = true
				sh.Retransmit()
				h.retransmitting = false
				if after := sh.State().Needed; !reflect.DeepEqual(before, after) {
					h.t.Fatalf("step %d: Retransmit moved the needed marks %v → %v", h.step, before, after)
				}
			default:
				sum := fnv.New64a()
				sum.Write(h.trail)
				fmt.Fprintf(sum, "%d %+v", m, sh.State())
				h.trail = sum.Sum(h.trail[:0])
			}
		}

		// (a) the stopping rule never holds over a wrong answer or unsolved
		// work, whatever the interleaving.
		sts := h.states()
		quiet, _, _ := Quiescent(h.p.Partition.Links, shardTol, sts)
		if !quiet {
			continue
		}
		for _, sh := range h.shards {
			if sh != nil && len(sh.dirty)+len(sh.owed) > 0 {
				h.t.Fatalf("step %d: quiescent with parts %v applied but unsolved, %v owed a sweep", h.step, sh.dirty, sh.owed)
			}
		}
		x := h.x()
		if d := x.MaxAbsDiff(h.exact); d > 1e-6 {
			h.t.Fatalf("step %d: quiescent %g away from the solution", h.step, d)
		}
		if h.step > h.faultEnd {
			h.t.Logf("quiescent at step %d", h.step)
			out := append([]byte(nil), h.trail...)
			for _, v := range x {
				out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
			}
			return out
		}
	}
	// (b) once faults stop and retransmissions continue, quiescence is reached.
	h.t.Fatalf("not quiescent %d steps after the faults stopped", shardStepLimit-h.faultEnd)
	return nil
}

// TestShardPropertiesUnderFaults runs the suite over several seeds, with and
// without a mid-run failover, and the silent-start leg.
//
// The silent-start leg is where only the watchdog can end a wait. Every
// packet of the first steps is lost, so each member leaves its start-up pass
// awaiting the member it wrote to, with owed parts and nothing in flight; and
// every packet a Retransmit emits is lost throughout, so no peer's
// re-announcement can end the wait either (without that, one would: any fresh
// packet clears its sender's mark). Only Retransmit's clearing of its own
// awaited marks lets a member sweep again, and the run must still become
// quiescent at the right answer.
func TestShardPropertiesUnderFaults(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, failover := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/failover=%v", seed, failover), func(t *testing.T) {
				newShardHarness(t, seed, 3).run(failover)
			})
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d/silent-start", seed), func(t *testing.T) {
			h := newShardHarness(t, seed, 2)
			h.faultEnd, h.drop, h.dup, h.deafWatchdog = 200, 1, 0, true
			h.step = 1
			for m, sh := range h.shards {
				for sh.SolveDirty() {
				}
				if sh.State().Dirty == 0 || !slices.Contains(sh.awaited, true) {
					t.Fatalf("member %d left its start-up pass with nothing owed or nobody awaited", m)
				}
			}
			if len(h.inflight) > 0 {
				t.Fatalf("%d packets survived a network that drops everything", len(h.inflight))
			}
			h.run(false)
		})
	}
}

// TestShardDropLeavesOwedQueue: a part handed away while it waits for a
// sibling sweep leaves the owed queue, as it leaves the dirty one — a sweep
// must never reach a part that is gone.
func TestShardDropLeavesOwedQueue(t *testing.T) {
	h := newShardHarness(t, 1, 1)
	sh := h.shards[0]
	for range sh.Owned() {
		sh.SolveDirty() // the woken parts; the sibling waves leave them owed
	}
	if len(sh.dirty) > 0 || len(sh.owed) == 0 {
		t.Fatalf("after the start-up pass: dirty %v, owed %v", sh.dirty, sh.owed)
	}
	// Hand the part to member 1 as a reassign does: drop, then advance.
	gone := sh.owed[0]
	owner := slices.Clone(sh.owner)
	owner[gone] = 1
	sh.Drop(gone)
	sh.Advance(2, owner)
	if slices.Contains(sh.owed, gone) || sh.State().Dirty != len(owner)-1 {
		t.Fatalf("part %d dropped but still owed: %v", gone, sh.owed)
	}
	for sh.SolveDirty() {
	}
}

// roundRobin is the benchmark's one-P dist fleet in miniature: members take
// turns, each draining its inbox into its shard and then solving until
// SolveDirty reports false, over a network that delivers every packet by the
// receiver's next turn. It stops after a full round in which no member had
// anything to do, and returns the final states and the number of turns in
// which one had.
func roundRobin(t *testing.T, p *Problem, threshold float64, nMembers int) (sts []ShardState, x sparse.Vec, turns int) {
	t.Helper()
	f := newRoundRobinFleet(t, p, threshold, nMembers)
	turns = f.run()
	x = sparse.NewVec(p.System.Dim())
	pairs := p.OwnerPairs()
	for _, sh := range f.shards {
		sts = append(sts, sh.State())
		for _, part := range sh.Owned() {
			for _, pair := range pairs[part] {
				x[pair[1]] = sh.Sub(part).X()[pair[0]]
			}
		}
	}
	return sts, x, turns
}

// roundRobinFleet is roundRobin's fleet: one woken shard per member, owning
// a contiguous range of parts, and each member's inbox.
type roundRobinFleet struct {
	shards []*Shard
	inbox  [][]transport.Packet
}

func newRoundRobinFleet(t *testing.T, p *Problem, threshold float64, nMembers int) *roundRobinFleet {
	t.Helper()
	zs, err := dtl.Assign(p.Partition, dtl.DiagScaled{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	nParts := p.Partition.NumParts()
	owner := make([]int, nParts)
	for part := range owner {
		owner[part] = part * nMembers / nParts
	}
	f := &roundRobinFleet{shards: make([]*Shard, nMembers), inbox: make([][]transport.Packet, nMembers)}
	for m := range f.shards {
		f.shards[m] = NewShard(m, owner, 1, threshold, func(to int, pkt *transport.Packet) {
			f.inbox[to] = append(f.inbox[to], *pkt)
		})
		for part, o := range owner {
			if o == m {
				sd, err := NewSubdomain(p.Partition.Subdomains[part], p.Partition.LinksOfPart(part), zs, factor.Settings{})
				if err != nil {
					t.Fatal(err)
				}
				f.shards[m].Adopt(sd, nil)
			}
		}
		f.shards[m].Wake()
	}
	return f
}

// run takes turns until a full round finds no member with anything to do,
// and returns the number of turns in which one had.
func (f *roundRobinFleet) run() (turns int) {
	n := len(f.shards)
	for turn, idle := 0, 0; idle < n; turn++ {
		sh := f.shards[turn%n]
		in := f.inbox[turn%n]
		f.inbox[turn%n] = nil
		worked := len(in) > 0
		for i := range in {
			sh.Receive(&in[i])
		}
		for sh.SolveDirty() {
			worked = true
		}
		if worked {
			idle = 0
			turns++
		} else {
			idle++
		}
	}
	return turns
}

// TestShardRoundRobinCounts pins the sibling schedule's work exactly: a
// member sweeps its owed parts once per batch of remote news instead of
// iterating them against remote waves that cannot change before its next
// turn. Before the schedule (5ff290a) the same runs took 1 480 solves, 4 527
// messages and 40 turns; 1 313 solves on 3 members; 610 solves on 9×6.
func TestShardRoundRobinCounts(t *testing.T) {
	for _, c := range []struct {
		nx, ny, px, py, members int
		solves, messages, turns int
	}{
		{13, 13, 3, 3, 2, 330, 1099, 63},
		{13, 13, 3, 3, 3, 340, 1110, 80},
		{9, 6, 3, 2, 2, 219, 621, 49},
	} {
		t.Run(fmt.Sprintf("%dx%d/%dx%d/members=%d", c.nx, c.ny, c.px, c.py, c.members), func(t *testing.T) {
			sys := sparse.RandomGridSPD(c.nx, c.ny, 5)
			p, err := GridProblem(sys, c.nx, c.ny, c.px, c.py, topology.Uniform(c.px*c.py, 10, "uniform"))
			if err != nil {
				t.Fatal(err)
			}
			sts, x, turns := roundRobin(t, p, 1e-11, c.members)
			solves, messages, _ := Totals(sts)
			t.Logf("%d solves, %d messages, %d turns", solves, messages, turns)
			// Pinned where the golden counters are: arm64 fuses multiply-adds,
			// which moves the last bits and with them the counts.
			if runtime.GOARCH == "amd64" && (solves != c.solves || messages != c.messages || turns != c.turns) {
				t.Errorf("%d solves, %d messages, %d turns; want %d, %d, %d", solves, messages, turns, c.solves, c.messages, c.turns)
			}
			if quiet, change, gap := Quiescent(p.Partition.Links, 1e-9, sts); !quiet {
				t.Errorf("not quiescent at the end: last change %g, twin gap %g", change, gap)
			}
			exact, st, err := iterative.CG(sys.A, sys.B, iterative.Config{MaxIterations: 5000, Tol: 1e-13})
			if err != nil || !st.Converged {
				t.Fatalf("reference CG failed: %v", err)
			}
			if d := x.MaxAbsDiff(exact); d > 1e-6 {
				t.Errorf("%g away from the solution", d)
			}
		})
	}
}

// TestShardDeterministicAcrossGOMAXPROCS: (c) the same seed gives a
// byte-identical solution and State() sequence at GOMAXPROCS 1 and 4 — the
// protocol has no map-iteration or scheduling dependence.
func TestShardDeterministicAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	one := newShardHarness(t, 42, 3).run(true)
	again := newShardHarness(t, 42, 3).run(true)
	runtime.GOMAXPROCS(4)
	four := newShardHarness(t, 42, 3).run(true)
	if !bytes.Equal(one, again) {
		t.Fatal("the same seed gave different runs at GOMAXPROCS=1")
	}
	if !bytes.Equal(one, four) {
		t.Fatal("the same seed gave different runs at GOMAXPROCS=1 and GOMAXPROCS=4")
	}
}

// TestShardAdvanceFencesOlderEpochs: (d) after Advance every packet stamped
// with an older epoch is refused and counted, and the sequence numbering
// restarts, so the new epoch's first packet is applied.
func TestShardAdvanceFencesOlderEpochs(t *testing.T) {
	h := newShardHarness(t, 7, 2)
	h.step = shardFaultEnd // a clean network: nothing is dropped
	a, b := h.shards[0], h.shards[1]
	for a.SolveDirty() {
	}
	if len(h.inflight) == 0 {
		t.Fatal("member 0 announced nothing to member 1")
	}
	old := h.inflight[0].pkt
	if old.Epoch != 1 || old.Seq != 1 {
		t.Fatalf("first packet is epoch %d seq %d, want 1/1", old.Epoch, old.Seq)
	}
	owner := append([]int(nil), a.owner...)
	b.Advance(2, owner)
	if b.Receive(&old) {
		t.Fatal("an epoch-1 packet was applied at epoch 2")
	}
	if got := b.State().Fenced; got != 1 {
		t.Fatalf("fenced = %d, want 1", got)
	}
	b.Advance(1, owner) // an older epoch is ignored
	if b.Epoch() != 2 {
		t.Fatalf("Advance moved the epoch backwards to %d", b.Epoch())
	}
	h.inflight = nil
	a.Advance(2, owner)
	for a.SolveDirty() {
	}
	fresh := h.inflight[0].pkt
	if fresh.Epoch != 2 || fresh.Seq != 1 {
		t.Fatalf("after Advance the first packet is epoch %d seq %d, want 2/1", fresh.Epoch, fresh.Seq)
	}
	if !b.Receive(&fresh) {
		t.Fatal("the new epoch's first packet was refused")
	}
}

// TestShardNewsSent: NewsSent counts the sends that raise a needed mark and
// nothing else, and Backlog says when a part still waits for a solve. On a
// drained round-robin fleet a watchdog Retransmit is not news, nor is what it
// makes the receiver solve, nor an answer whose waves moved less than the
// threshold; Wake and Advance leave every part waiting, and what the woken
// parts then send is news.
func TestShardNewsSent(t *testing.T) {
	sys := sparse.RandomGridSPD(13, 13, 5)
	p, err := GridProblem(sys, 13, 13, 3, 3, topology.Uniform(9, 10, "uniform"))
	if err != nil {
		t.Fatal(err)
	}
	f := newRoundRobinFleet(t, p, 1e-11, 2)
	a, b := f.shards[0], f.shards[1]
	if a.Backlog() != len(a.Owned()) || a.NewsSent() != 0 {
		t.Fatalf("a woken shard: backlog %d of %d parts, %d news sent", a.Backlog(), len(a.Owned()), a.NewsSent())
	}
	f.run()
	newsA, newsB := a.NewsSent(), b.NewsSent()
	needed := 0
	for _, nd := range append(a.State().Needed, b.State().Needed...) {
		needed += int(nd.Seq)
	}
	if newsA == 0 || newsB == 0 || newsA+newsB > needed || a.Backlog()+b.Backlog() > 0 {
		t.Fatalf("drained: %d and %d news sent (needed marks sum to %d), backlogs %d and %d", newsA, newsB, needed, a.Backlog(), b.Backlog())
	}
	same := func(what string) {
		t.Helper()
		if a.NewsSent() != newsA || b.NewsSent() != newsB {
			t.Fatalf("%s: news sent %d → %d and %d → %d", what, newsA, a.NewsSent(), newsB, b.NewsSent())
		}
	}

	a.Retransmit()
	if len(f.inbox[1]) == 0 {
		t.Fatal("the watchdog sent nothing")
	}
	retransmitted := slices.Clone(f.inbox[1])
	same("a Retransmit")
	f.run()
	same("the solves a Retransmit causes")

	// An answer below the threshold: a wave moved well past it and moved
	// back before the receiver solves leaves the receiver owing an answer
	// whose own waves have not moved at all.
	pkt := retransmitted[0]
	moved := pkt
	moved.Entries = slices.Clone(pkt.Entries)
	moved.Entries[0].Wave++
	moved.Seq, pkt.Seq = pkt.Seq+1, pkt.Seq+2
	if !b.Receive(&moved) || !b.Receive(&pkt) {
		t.Fatal("fresh packets refused")
	}
	messages := b.State().Messages
	for b.SolveDirty() {
	}
	answered := slices.ContainsFunc(f.inbox[0], func(q transport.Packet) bool { return q.ToPart == pkt.FromPart && q.FromPart == pkt.ToPart })
	if !answered || b.State().Messages == messages {
		t.Fatalf("part %d did not answer part %d", pkt.ToPart, pkt.FromPart)
	}
	same("an answer below the threshold")
	f.run()
	same("the answer's receipt")

	a.Wake()
	if a.Backlog() != len(a.Owned()) {
		t.Fatalf("after Wake: backlog %d of %d parts", a.Backlog(), len(a.Owned()))
	}
	f.run()
	if a.NewsSent() == newsA {
		t.Fatal("a woken shard sent no news")
	}
	newsA, newsB = a.NewsSent(), b.NewsSent()
	b.Advance(2, b.owner)
	if b.Backlog() != len(b.Owned()) {
		t.Fatalf("after Advance: backlog %d of %d parts", b.Backlog(), len(b.Owned()))
	}
	for b.SolveDirty() {
	}
	if b.NewsSent() == newsB {
		t.Fatal("an advanced shard sent no news")
	}
}

// TestShardAnswersOnlyMembersWithSiblings: a news wave is owed an answer only
// when the sender's member owns siblings, because only owed parts wait for
// answers and a one-part member never has any. Member A owns part 0 and
// member B parts 1 and 2 of a 3×1 tear: a moved wave from A to part 1 leaves
// part 1 owing A nothing, one from B's part 1 to part 0 leaves part 0 owing
// part 1 an answer.
func TestShardAnswersOnlyMembersWithSiblings(t *testing.T) {
	p, err := GridProblem(sparse.RandomGridSPD(9, 6, 5), 9, 6, 3, 1, topology.Uniform(3, 10, "uniform"))
	if err != nil {
		t.Fatal(err)
	}
	zs, err := dtl.Assign(p.Partition, dtl.DiagScaled{Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	owner := []int{0, 1, 1}
	shards := []*Shard{
		NewShard(0, owner, 0, 1e-11, func(int, *transport.Packet) {}),
		NewShard(1, owner, 0, 1e-11, func(int, *transport.Packet) {}),
	}
	for part, m := range owner {
		sd, err := NewSubdomain(p.Partition.Subdomains[part], p.Partition.LinksOfPart(part), zs, factor.Settings{})
		if err != nil {
			t.Fatal(err)
		}
		shards[m].Adopt(sd, nil)
	}
	// moved sends a wave of 1 on every link from part from to part to, and
	// reports whether part to now owes from an answer.
	moved := func(from, to int32) bool {
		t.Helper()
		dst := shards[owner[to]]
		var entries []transport.WaveEntry
		for _, end := range dst.Sub(to).Ends() {
			if end.Remote == int(from) {
				entries = append(entries, transport.WaveEntry{LinkID: int32(end.LinkID), Wave: 1})
			}
		}
		if len(entries) == 0 {
			t.Fatalf("parts %d and %d share no link", from, to)
		}
		if !dst.Receive(&transport.Packet{FromPart: from, ToPart: to, Seq: 1, Entries: entries}) {
			t.Fatalf("the wave from part %d to part %d was refused", from, to)
		}
		ai, _ := slices.BinarySearch(dst.Sub(to).AdjacentParts(), int(from))
		return dst.parts[to].pairs[ai].answer
	}
	if moved(0, 1) {
		t.Error("part 1 owes an answer to part 0, whose member owns no siblings")
	}
	if !moved(1, 0) {
		t.Error("part 0 owes no answer to part 1, whose member owns siblings")
	}
}

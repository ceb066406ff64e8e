package netsim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// orderEntry is one line of an order check's log: an activation (its batch
// follows as deliveries) or a timer firing.
type orderEntry struct {
	kind      byte // 'a' activation, 'd' delivery, 't' timer
	node      int
	now       float64
	from, val int // delivery: sender and payload; timer: id
}

// orderNode draws its compute times, sends and timers from its own seeded
// stream, in coarse binary fractions so that equal times are common, and logs
// every activation, delivery and timer firing. Two sets built from one seed
// log the same lines under any simulator that delivers and activates in the
// same order. Its timers are set from OnMessages' now, which is ahead of the
// clock by the compute time, and from OnTimer's.
type orderNode struct {
	id, n         int
	rng           *rand.Rand
	after         func(node int, now, delay float64, id int)
	log           *[]orderEntry
	sends, timers int
	outs          []Outgoing[int]
}

var orderSteps = []float64{0.25, 0.5, 1, 1.5, 2}

func (o *orderNode) send(k int) []Outgoing[int] {
	o.outs = o.outs[:0]
	for ; k > 0 && o.sends < 40; k-- {
		o.sends++
		to := (o.id + 1 + o.rng.Intn(o.n-1)) % o.n
		o.outs = append(o.outs, Outgoing[int]{To: to, Payload: o.id<<16 | o.sends})
	}
	return o.outs
}

func (o *orderNode) arm(now float64) {
	if o.timers < 8 && o.rng.Intn(3) == 0 {
		o.timers++
		o.after(o.id, now, orderSteps[o.rng.Intn(len(orderSteps))], o.timers)
	}
}

func (o *orderNode) Init(now float64) []Outgoing[int] {
	o.arm(now)
	return o.send(1 + o.rng.Intn(2))
}

func (o *orderNode) OnMessages(now float64, msgs []Message[int]) []Outgoing[int] {
	*o.log = append(*o.log, orderEntry{kind: 'a', node: o.id, now: now})
	for _, m := range msgs {
		*o.log = append(*o.log, orderEntry{kind: 'd', node: o.id, now: now, from: m.From, val: m.Payload})
	}
	o.arm(now)
	return o.send(o.rng.Intn(3))
}

func (o *orderNode) OnTimer(now float64, id int) []Outgoing[int] {
	*o.log = append(*o.log, orderEntry{kind: 't', node: o.id, now: now, val: id})
	o.arm(now)
	return o.send(o.rng.Intn(2))
}

// ComputeTime is zero one time in four, so a node frees up at the very time
// it started, which is the clock.
func (o *orderNode) ComputeTime(int) float64 {
	if o.rng.Intn(4) == 0 {
		return 0
	}
	return orderSteps[o.rng.Intn(len(orderSteps))] / 2
}

// orderFaults is a fault policy from its own seeded stream: it drops, sends
// two copies at one time, two copies half a unit apart, or one copy jittered
// by a quarter unit or more.
func orderFaults(seed int64) FaultFunc {
	rng := rand.New(rand.NewSource(seed))
	var buf []float64
	return func(from, to int, now, d float64) []float64 {
		buf = buf[:0]
		switch rng.Intn(8) {
		case 0:
		case 1:
			buf = append(buf, d, d)
		case 2:
			buf = append(buf, d, d+0.5)
		case 3:
			buf = append(buf, d+0.25*float64(1+rng.Intn(3)))
		default:
			buf = append(buf, d)
		}
		return buf
	}
}

// replayEvent is the body of one event of the Simulator's loop in the order
// check's reference, which files it by (time, push order) on refQueue.
type replayEvent struct {
	kind, node, arg int // arg: sender of an arrival, id of a timer
	payload         int
}

// replay runs Simulator.Run's rules — Init at zero, batches consumed by idle
// nodes, timers beside the compute loop, the fault policy on every send, a
// cut at maxTime — over a refQueue.
type replay struct {
	nodes []Node[int]
	delay DelayFunc
	fault FaultFunc
	q     refQueue
	body  []replayEvent // body[seq-1] is the event pushed seq-th
	inbox [][]Message[int]
	busy  []bool
	stats Stats
}

func (r *replay) push(time float64, e replayEvent) {
	r.body = append(r.body, e)
	heap.Push(&r.q, refEvent{time: time, seq: int64(len(r.body))})
}

func (r *replay) after(node int, now, delay float64, id int) {
	r.push(now+delay, replayEvent{kind: evTimer, node: node, arg: id})
}

func (r *replay) send(from int, now float64, outs []Outgoing[int]) {
	for _, o := range outs {
		for _, d := range r.fault(from, o.To, now, r.delay(from, o.To)) {
			r.push(now+d, replayEvent{kind: evArrival, node: o.To, arg: from, payload: o.Payload})
		}
	}
}

func (r *replay) start(node int, at float64) {
	batch := r.inbox[node]
	r.inbox[node], r.busy[node] = nil, true
	done := at + r.nodes[node].ComputeTime(len(batch))
	outs := r.nodes[node].OnMessages(done, batch)
	r.stats.Activations++
	r.send(node, done, outs)
	r.push(done, replayEvent{kind: evFree, node: node})
}

func (r *replay) run(maxTime float64) Stats {
	r.inbox, r.busy = make([][]Message[int], len(r.nodes)), make([]bool, len(r.nodes))
	for i, n := range r.nodes {
		r.send(i, 0, n.Init(0))
	}
	now := 0.0
	for r.q.Len() > 0 {
		top := heap.Pop(&r.q).(refEvent)
		if top.time > maxTime {
			now = maxTime
			break
		}
		now = top.time
		e := r.body[top.seq-1]
		switch e.kind {
		case evArrival:
			r.stats.Messages++
			r.inbox[e.node] = append(r.inbox[e.node], Message[int]{From: e.arg, Payload: e.payload})
			if !r.busy[e.node] {
				r.start(e.node, now)
			}
		case evFree:
			r.busy[e.node] = false
			if len(r.inbox[e.node]) > 0 {
				r.start(e.node, now)
			}
		case evTimer:
			r.send(e.node, now, r.nodes[e.node].(TimerNode[int]).OnTimer(now, e.arg))
		}
	}
	r.stats.Time = now
	return r.stats
}

// FuzzSimulatorOrder drives a Simulator with random per-link delays, compute
// times (zero among them), timers set from activations ahead of the clock,
// and a fault policy that drops, duplicates and jitters, and demands that
// every activation, delivery and timer firing, and the run's Stats, match a
// replay of the same nodes on container/heap in (time, push order). The
// inputs pick the seed, the node count (2–8) and the horizon (4–35 units;
// some runs drain before it, the rest are cut).
func FuzzSimulatorOrder(f *testing.F) {
	for s := range 24 {
		f.Add(int64(s), uint8(s), uint8(5*s))
	}
	f.Fuzz(func(t *testing.T, seed int64, nodes, horizon uint8) {
		n, maxTime := 2+int(nodes%7), 4+float64(horizon%32)
		rng := rand.New(rand.NewSource(seed))
		delays := make([]float64, n*n)
		for i := range delays {
			delays[i] = orderSteps[rng.Intn(len(orderSteps))]
		}
		delay := func(from, to int) float64 { return delays[from*n+to] }
		build := func(after func(int, float64, float64, int), log *[]orderEntry) []Node[int] {
			out := make([]Node[int], n)
			for i := range out {
				out[i] = &orderNode{id: i, n: n, rng: rand.New(rand.NewSource(seed*31 + int64(i))), after: after, log: log}
			}
			return out
		}

		var got, want []orderEntry
		sim := New(build(nil, &got), delay)
		for _, nd := range sim.nodes {
			nd.(*orderNode).after = sim.After
		}
		sim.SetFaultPolicy(orderFaults(seed))
		gotStats := sim.Run(maxTime)

		ref := &replay{delay: delay, fault: orderFaults(seed)}
		ref.nodes = build(ref.after, &want)
		wantStats := ref.run(maxTime)

		if gotStats != wantStats {
			t.Errorf("stats %+v, replay %+v", gotStats, wantStats)
		}
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("log line %d: %+v, replay %+v", i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%d log lines, replay %d", len(got), len(want))
		}
	})
}

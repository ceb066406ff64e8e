// Package netsim is a deterministic discrete-event simulator of a
// message-passing parallel machine. It plays the role of the MATLAB/SIMULINK
// "DTM toolbox" the paper's experiments ran on: every processor is a Node with
// its own compute time, every directed link has its own delay, and the
// simulator advances a virtual continuous-time clock, delivering messages and
// activating nodes in exact timestamp order. Because events of equal time are
// taken in the order they were scheduled, two runs with the same inputs
// produce exactly the same trajectories — which is what makes the paper's
// figures reproducible.
//
// The asynchrony semantics match the DTM algorithm of Table 1: a node sleeps
// until at least one message has been delivered to it, then wakes up, consumes
// everything in its inbox at once, computes for ComputeTime virtual seconds,
// and hands the simulator the messages to send; each message arrives at its
// destination after the directed link delay. There is no synchronisation and
// no broadcast — only neighbour-to-neighbour messages.
//
// The simulator is generic over the message payload type P, so a run over a
// concrete payload (e.g. a wave packet) never boxes payloads into interfaces.
// The event queue is a monotone radix queue over a free-listed slab that holds
// the event bodies still: nothing is ever scheduled before the clock (an
// arrival is d > 0 after its send, a node frees up at its start plus its
// compute time, and a timer is set from an activation's now, which is never
// behind the clock), so the queue files each event in one of 64 FIFO buckets
// by the highest bit in which its time differs from the last popped one, and
// a pop relinks at most one bucket instead of sifting a heap. Together with
// per-node inbox recycling the steady-state event loop performs no heap
// allocations at all.
package netsim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Message is a payload delivered to a node, with the node that sent it.
type Message[P any] struct {
	From    int
	Payload P
}

// Outgoing is a message a node wants to send; the simulator delivers it after
// the link's delay.
type Outgoing[P any] struct {
	To      int
	Payload P
}

// Node is a processor participating in the simulation.
//
// The slices passed to OnMessages and returned from Init/OnMessages are only
// valid for the duration of the call: the simulator recycles its batch buffers
// and copies the returned outgoing messages into the event queue before the
// node runs again, so nodes may (and, on hot paths, should) reuse one
// persistent Outgoing buffer across activations.
type Node[P any] interface {
	// Init is called once at virtual time 0 and returns the node's initial
	// messages (DTM's "guess the initial boundary conditions and send them").
	Init(now float64) []Outgoing[P]
	// OnMessages is called when the node, being idle, has at least one
	// delivered message. now is the virtual time at which the node finishes
	// processing the batch (its wake-up time plus its compute time); msgs is
	// the batch, in delivery order. The returned messages are sent at now.
	OnMessages(now float64, msgs []Message[P]) []Outgoing[P]
	// ComputeTime returns how long (in virtual time) processing a batch of the
	// given size takes.
	ComputeTime(batchSize int) float64
}

// DelayFunc returns the delay of the directed link from one node to another.
// It must be strictly positive for distinct nodes.
type DelayFunc func(from, to int) float64

// FaultFunc is the per-link fault-injection hook: given a send on the
// directed link from→to at virtual time now with nominal delay d, it returns
// the delivery delay of every copy to schedule. An empty result drops the
// message; two entries duplicate it; delays larger than d model jitter and
// burst windows (internal/chaos implements the standard policies). The
// returned slice is only read before the next send, so implementations may
// reuse one buffer.
type FaultFunc func(from, to int, now, d float64) []float64

// TimerNode is implemented by nodes that schedule timers through
// Simulator.After — DTM's retransmission watchdogs, snapshot ticks and
// crash-restart schedules. OnTimer is called when a timer fires; the returned
// messages are sent at now, exactly like OnMessages' (and the same buffer
// reuse contract applies).
type TimerNode[P any] interface {
	OnTimer(now float64, id int) []Outgoing[P]
}

// Observer is called after every node activation with the completion time and
// the node that just computed; the DTM convergence monitor hooks in here.
type Observer func(now float64, node int)

// Stats summarises a simulation run.
type Stats struct {
	// Time is the virtual time at which the simulation stopped.
	Time float64
	// Messages is the number of messages delivered.
	Messages int
	// Activations is the number of node batch activations.
	Activations int
}

// event kinds.
const (
	evArrival = iota
	evFree
	evTimer
)

// event is the body of a queue entry: the destination is node, so an arrival
// carries only its sender and payload. Timer events reuse the from field for
// the caller-chosen timer id, so they cost nothing extra. The time is not in
// the body: the queue keeps it beside the slab, and pop returns it.
type event[P any] struct {
	kind    int32
	node    int32
	from    int32 // sender for arrivals; timer id for timers
	payload P
}

// infBits is the largest admissible time pattern: Float64bits is monotone on
// [+0, +Inf], and everything above +Inf's pattern is a NaN or carries the
// sign bit (a -0.0 would sort after +Inf).
var infBits = math.Float64bits(math.Inf(1))

// eventQueue is a monotone radix queue (Ahuja, Mehlhorn, Orlin and Tarjan's
// radix heap) over a free-listed slab of event bodies. It pops in (time, push
// order) and accepts a push only at or after the last popped time, which is
// all a DES needs: nothing is scheduled before the clock. Times are ordered
// as math.Float64bits patterns; an event whose pattern first differs from
// last's in bit i-1 waits in bucket i, an intrusive FIFO linked through
// next. Bucket 0 holds the events at last itself. When it runs dry, pop
// moves last to the minimum of the lowest non-empty bucket and relinks that
// bucket's events, in order, into lower ones. Events of one time always
// share a bucket, and both the pushes and the relinks append, so equal times
// leave in push order. A body is written once into its slot on push and read
// once on pop, never moved in between.
type eventQueue[P any] struct {
	slab  []event[P]
	tbits []uint64 // Float64bits of each slot's time
	next  []int32  // the slot after each slot in its bucket, -1 at the tail
	free  []int32  // vacant slab slots, most recently vacated last

	// Bucket b is the FIFO head[b] … tail[b] of minimum pattern low[b]; bit b
	// of full is set while bucket b is non-empty, and the three are stale
	// while it is clear. The sign bit is never set, so 64 buckets cover every
	// admissible pattern.
	head, tail [64]int32
	low        [64]uint64
	full       uint64
	last       uint64 // the pattern of the last popped time
}

func (q *eventQueue[P]) len() int { return len(q.slab) - len(q.free) }

// push takes a slab slot for an event at time and links it at the tail of
// its bucket. It returns the body zeroed, for the caller to fill before the
// next push: a body written field by field in its slot, where a 64-byte event
// passed in would be built on the stack and copied out of it, a
// store-forwarding stall per event.
func (q *eventQueue[P]) push(time float64) *event[P] {
	t := math.Float64bits(time)
	if t > infBits {
		panic(fmt.Sprintf("netsim: event time %g is negative or NaN", time))
	}
	if t < q.last {
		panic(fmt.Sprintf("netsim: event time %g is before the last popped time %g", time, math.Float64frombits(q.last)))
	}
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.tbits[slot] = t
	} else {
		slot = slotIndex(len(q.slab))
		q.slab = append(q.slab, event[P]{})
		q.tbits = append(q.tbits, t)
		q.next = append(q.next, 0)
	}
	q.link(slot, bits.Len64(t^q.last))
	return &q.slab[slot]
}

// slotIndex is the slot a new slab entry takes: the links are int32s, with
// -1 for none.
func slotIndex(n int) int32 {
	if n > math.MaxInt32 {
		panic("netsim: more than 2^31 events in flight")
	}
	return int32(n)
}

// link appends slot to bucket b.
func (q *eventQueue[P]) link(slot int32, b int) {
	q.next[slot] = -1
	if q.full&(1<<b) == 0 {
		q.head[b], q.low[b] = slot, q.tbits[slot]
		q.full |= 1 << b
	} else {
		q.next[q.tail[b]] = slot
		q.low[b] = min(q.low[b], q.tbits[slot])
	}
	q.tail[b] = slot
}

// pop removes the first event into *top, vacating its slab slot, and returns
// its time. The body is copied to the caller's variable, not returned: a
// returned event is spilled field by field and reloaded whole, another stall.
func (q *eventQueue[P]) pop(top *event[P]) float64 {
	if q.full&1 == 0 {
		q.refill()
	}
	slot := q.head[0]
	if q.head[0] = q.next[slot]; q.head[0] < 0 {
		q.full &^= 1
	}
	*top = q.slab[slot]
	var zero event[P]
	q.slab[slot] = zero // drop payload references so the GC can reclaim them
	q.free = append(q.free, slot)
	return math.Float64frombits(q.last)
}

// refill advances last to the minimum of the lowest non-empty bucket and
// relinks that bucket's events, in order, into the buckets below it; its
// minimum lands in bucket 0. Every event of the bucket shares last's bits
// above the bucket's, so none moves up.
func (q *eventQueue[P]) refill() {
	b := bits.TrailingZeros64(q.full)
	q.last = q.low[b]
	q.full &^= 1 << b
	for s := q.head[b]; s >= 0; {
		n := q.next[s]
		q.link(s, bits.Len64(q.tbits[s]^q.last))
		s = n
	}
}

// Simulator is a deterministic discrete-event simulator over a fixed set of
// nodes and a delay function.
type Simulator[P any] struct {
	nodes []Node[P]
	delay DelayFunc
	fault FaultFunc

	queue eventQueue[P]

	inbox [][]Message[P]
	// spare[n] is the batch buffer node n consumed last; it is swapped back in
	// as the next inbox so the steady state ping-pongs between two buffers per
	// node and never reallocates.
	spare [][]Message[P]
	busy  []bool

	now float64
	ran bool // Run has been called

	observer Observer
	// stop is checked after every node activation.
	stop func(now float64) bool

	stats Stats
}

// New returns a simulator over the given nodes with the given link delays.
func New[P any](nodes []Node[P], delay DelayFunc) *Simulator[P] {
	if len(nodes) == 0 {
		panic("netsim: New requires at least one node")
	}
	if delay == nil {
		panic("netsim: New requires a delay function")
	}
	s := &Simulator[P]{
		nodes: nodes,
		delay: delay,
		inbox: make([][]Message[P], len(nodes)),
		spare: make([][]Message[P], len(nodes)),
		busy:  make([]bool, len(nodes)),
	}
	s.queue.slab = make([]event[P], 0, 4*len(nodes))
	s.queue.tbits = make([]uint64, 0, 4*len(nodes))
	s.queue.next = make([]int32, 0, 4*len(nodes))
	return s
}

// SetObserver registers a callback invoked after every node activation.
func (s *Simulator[P]) SetObserver(o Observer) { s.observer = o }

// SetStopCondition registers a predicate checked after every node activation;
// when it returns true the run ends early.
func (s *Simulator[P]) SetStopCondition(stop func(now float64) bool) { s.stop = stop }

// SetFaultPolicy registers the per-link fault-injection hook applied to every
// send. A nil policy (the default) delivers every message exactly once after
// its nominal delay.
func (s *Simulator[P]) SetFaultPolicy(f FaultFunc) { s.fault = f }

// After schedules a timer for the given node at virtual time now+delay; the
// node must implement TimerNode or the firing panics. now is the caller's
// activation time (the now handed to Init/OnMessages/OnTimer), which may be
// ahead of the simulator clock by the node's compute time but never behind
// it: a timer before the last popped event panics. The id is handed
// back to OnTimer verbatim so nodes can multiplex watchdogs, snapshot ticks
// and crash schedules over one queue; it must fit an int32. Timers cannot be
// cancelled — nodes ignore stale firings instead (cheaper than tombstoning
// inside the queue).
func (s *Simulator[P]) After(node int, now, delay float64, id int) {
	if node < 0 || node >= len(s.nodes) {
		panic(fmt.Sprintf("netsim: After on unknown node %d", node))
	}
	if delay <= 0 || math.IsNaN(delay) || math.IsInf(delay, 0) {
		panic(fmt.Sprintf("netsim: After delay must be positive and finite, got %g", delay))
	}
	if int(int32(id)) != id {
		panic(fmt.Sprintf("netsim: timer id %d does not fit int32", id))
	}
	e := s.queue.push(now + delay)
	e.kind, e.node, e.from = evTimer, int32(node), int32(id)
}

func (s *Simulator[P]) send(from int, now float64, outs []Outgoing[P]) {
	for i := range outs {
		o := &outs[i]
		if o.To < 0 || o.To >= len(s.nodes) {
			panic(fmt.Sprintf("netsim: node %d sent a message to unknown node %d", from, o.To))
		}
		d := s.delay(from, o.To)
		if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			panic(fmt.Sprintf("netsim: delay from %d to %d must be positive and finite, got %g", from, o.To, d))
		}
		if s.fault == nil {
			s.pushArrival(from, o.To, now, d, o.Payload)
			continue
		}
		// Fault-injection path: the policy decides how many copies arrive and
		// after what (possibly jittered or burst-stretched) delays; an empty
		// fate list drops the message on the floor.
		for _, fd := range s.fault(from, o.To, now, d) {
			if fd <= 0 || math.IsNaN(fd) || math.IsInf(fd, 0) {
				panic(fmt.Sprintf("netsim: fault policy produced invalid delay %g on link %d→%d", fd, from, o.To))
			}
			s.pushArrival(from, o.To, now, fd, o.Payload)
		}
	}
}

// pushArrival schedules one delivery of a payload.
func (s *Simulator[P]) pushArrival(from, to int, now, d float64, payload P) {
	e := s.queue.push(now + d)
	e.kind, e.node, e.from, e.payload = evArrival, int32(to), int32(from), payload
}

// startNode lets an idle node with a non-empty inbox consume its batch.
func (s *Simulator[P]) startNode(node int, start float64) {
	batch := s.inbox[node]
	if len(batch) == 0 || s.busy[node] {
		return
	}
	// Swap in the spare buffer for arrivals that land while this node computes;
	// the consumed batch becomes the next spare once OnMessages returns.
	s.inbox[node] = s.spare[node][:0]
	s.spare[node] = nil
	s.busy[node] = true
	d := s.nodes[node].ComputeTime(len(batch))
	if d < 0 || math.IsNaN(d) {
		panic(fmt.Sprintf("netsim: node %d returned negative compute time %g", node, d))
	}
	done := start + d
	outs := s.nodes[node].OnMessages(done, batch)
	s.stats.Activations++
	s.send(node, done, outs)
	// The node becomes free at `done`; schedule the event so queued arrivals
	// received meanwhile get processed then.
	e := s.queue.push(done)
	e.kind, e.node = evFree, int32(node)
	// Recycle the batch buffer (zeroing payload references first).
	clear(batch)
	s.spare[node] = batch[:0]
	if s.observer != nil {
		s.observer(done, node)
	}
}

// Run executes the simulation until the event queue drains, the virtual clock
// exceeds maxTime, or the stop condition fires. It returns the run statistics.
// Run may be called once per simulator: a second call would re-Init the nodes
// over whatever the first left in the queue, so it panics.
func (s *Simulator[P]) Run(maxTime float64) Stats {
	if s.ran {
		panic("netsim: Run called twice on one Simulator")
	}
	s.ran = true
	// Initial messages at time 0.
	for i, n := range s.nodes {
		s.send(i, 0, n.Init(0))
	}
	var e event[P]
	for s.queue.len() > 0 {
		now := s.queue.pop(&e)
		if now > maxTime {
			s.now = maxTime
			break
		}
		s.now = now
		node := int(e.node)
		switch e.kind {
		case evArrival:
			s.stats.Messages++
			// In place, like the queue's bodies: no Message built and copied.
			in := slices.Grow(s.inbox[node], 1)
			in = in[:len(in)+1]
			m := &in[len(in)-1]
			m.From, m.Payload = int(e.from), e.payload
			s.inbox[node] = in
			if s.busy[node] {
				continue
			}
			s.startNode(node, now)
		case evFree:
			s.busy[node] = false
			if len(s.inbox[node]) == 0 {
				continue
			}
			s.startNode(node, now)
		case evTimer:
			// Timers fire regardless of the node's busy state: they model
			// NIC-level machinery (retransmission watchdogs, crash schedules)
			// that runs beside the compute loop, not inside it.
			tn, ok := s.nodes[node].(TimerNode[P])
			if !ok {
				panic(fmt.Sprintf("netsim: node %d received a timer but does not implement TimerNode", node))
			}
			s.send(node, now, tn.OnTimer(now, int(e.from)))
		}
		if s.stop != nil && s.stop(s.now) {
			break
		}
	}
	s.stats.Time = s.now
	return s.stats
}

// Pool is a tiny free list for payload buffers travelling through a
// single-threaded simulation: senders Get a buffer, fill it, and ship it as a
// message payload; the receiver Puts it back once the batch is consumed. It is
// deliberately not safe for concurrent use — concurrent engines (which cannot
// prove single ownership of in-flight buffers) should allocate instead, and a
// nil *Pool does: its Get allocates and its Put drops the buffer.
type Pool[T any] struct {
	free [][]T
}

// Get hands out an empty buffer of capacity at least capHint: the recycled
// one on top of the free list when it is large enough, else a fresh one. A
// recycled buffer too small is dropped rather than kept, so the pooled
// buffers grow to the largest hint once, not by appends that reallocate.
func (p *Pool[T]) Get(capHint int) []T {
	if p != nil && len(p.free) > 0 {
		n := len(p.free)
		b := p.free[n-1]
		p.free = p.free[:n-1]
		if cap(b) >= capHint {
			return b[:0]
		}
	}
	return make([]T, 0, capHint)
}

// Put returns a consumed buffer to the free list.
func (p *Pool[T]) Put(b []T) {
	if p == nil || cap(b) == 0 {
		return
	}
	p.free = append(p.free, b)
}

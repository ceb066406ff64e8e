package netsim

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"unsafe"
)

// refEvent / refQueue is a container/heap reference implementation with the
// (time, seq) ordering on floats that the key heap reproduces on integers; the
// equivalence test below drives both with identical random event streams and
// demands identical pop order.
type refEvent struct {
	time float64
	seq  int64
}

type refQueue []refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// edgeTimes are the event times whose bit patterns sit at the ends of what
// the integer key has to order like a float: zero, the smallest subnormal, a
// subnormal/normal neighbour pair, adjacent doubles, and magnitudes whose
// exponents differ in the top bits.
var edgeTimes = []float64{
	0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
	1, math.Nextafter(1, 2), 1e300, math.MaxFloat64, math.Inf(1),
}

func TestFourAryHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		// A slice payload, so a slab slot that kept its body after the pop
		// would show as a retained reference.
		var fast eventQueue[[]int64]
		ref := &refQueue{}
		heap.Init(ref)
		var seq int64
		maxLive := 0
		popBoth := func(when string) {
			var got event[[]int64]
			fast.pop(&got)
			want := heap.Pop(ref).(refEvent)
			if got.time != want.time || got.seq != want.seq {
				t.Fatalf("trial %d: %s mismatch: got (%g,%d), want (%g,%d)",
					trial, when, got.time, got.seq, want.time, want.seq)
			}
			if len(got.payload) != 1 || got.payload[0] != got.seq || got.node != int32(got.seq%7) {
				t.Fatalf("trial %d: %s returned the body of another event: %+v", trial, when, got)
			}
		}
		n := 1 + rng.Intn(400)
		// Interleave pushes and pops the way a simulation does: bursts of
		// schedules separated by pops, with many duplicate timestamps so the
		// seq tie-break is exercised constantly and vacated slots are reused.
		for op := 0; op < n; op++ {
			if fast.len() > 0 && rng.Intn(3) == 0 {
				pops := 1 + rng.Intn(fast.len())
				for p := 0; p < pops; p++ {
					popBoth("pop")
				}
				continue
			}
			pushes := 1 + rng.Intn(8)
			for p := 0; p < pushes; p++ {
				// Coarse times produce plenty of exact collisions; one push in
				// four takes an edge time instead.
				tm := float64(rng.Intn(20))
				if rng.Intn(4) == 0 {
					tm = edgeTimes[rng.Intn(len(edgeTimes))]
				}
				seq++
				e := fast.push(tm, seq)
				e.node, e.payload = int32(seq%7), []int64{seq}
				heap.Push(ref, refEvent{time: tm, seq: seq})
			}
			maxLive = max(maxLive, fast.len())
		}
		// Drain completely; the full pop sequence must agree.
		for fast.len() > 0 {
			popBoth("drain")
		}
		if ref.Len() != 0 {
			t.Fatalf("trial %d: reference heap retained %d events", trial, ref.Len())
		}
		// The slab grew to the high-water mark and no further (slots were
		// recycled), every slot is vacant, and no vacant slot holds a body.
		if len(fast.slab) != maxLive || len(fast.free) != maxLive {
			t.Fatalf("trial %d: slab %d, free list %d after a drain; at most %d events were ever live",
				trial, len(fast.slab), len(fast.free), maxLive)
		}
		for slot, e := range fast.slab {
			if !reflect.ValueOf(e).IsZero() {
				t.Fatalf("trial %d: slab slot %d retains %+v after the drain", trial, slot, e)
			}
		}
	}
}

// TestQueueLimitsPanic pins that the queue and the simulator refuse what they
// cannot order instead of misordering it. The in-flight row drives makeKey,
// the function push builds every key with: 2²⁴ live events would need a
// gigabyte of slab.
func TestQueueLimitsPanic(t *testing.T) {
	push := func(time float64, seq int64) func() {
		return func() {
			var q eventQueue[int]
			q.push(time, seq)
		}
	}
	for _, tc := range []struct {
		name string
		f    func()
		want string // empty: must not panic
	}{
		{"zero time, largest seq", push(0, maxSeq-1), ""},
		{"infinite time", push(math.Inf(1), 1), ""},
		{"last slot", func() { makeKey(1, 1, maxSlots-1) }, ""},
		{"negative time", push(-1, 1), "netsim: event time -1 is negative or NaN"},
		{"negative zero", push(math.Copysign(0, -1), 1), "netsim: event time -0 is negative or NaN"},
		{"NaN time", push(math.NaN(), 1), "netsim: event time NaN is negative or NaN"},
		{"seq 2^40", push(1, maxSeq), "netsim: event sequence number 1099511627776 is outside [0, 2^40)"},
		{"negative seq", push(1, -1), "netsim: event sequence number -1 is outside [0, 2^40)"},
		{"2^24 events in flight", func() { makeKey(1, 1, maxSlots) }, "netsim: more than 2^24 events in flight"},
		{"second Run", func() {
			sim := New([]Node[int]{&chatterNode{n: 1, maxSends: 2}}, func(from, to int) float64 { return 1 })
			sim.Run(10)
			sim.Run(20)
		}, "netsim: Run called twice on one Simulator"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				got, _ := recover().(string)
				if got != tc.want {
					t.Errorf("panic %q, want %q", got, tc.want)
				}
			}()
			tc.f()
		})
	}
}

// TestEventBodySizes pins the bytes one delivery moves for a 32-byte payload
// (a slice header and a word, the size of the DES engine's wave packet): the
// queued event body fills one 64-byte cache line and the inbox message is the
// sender and the payload.
func TestEventBodySizes(t *testing.T) {
	type payload struct {
		seq     uint64
		entries []float64
	}
	if got := unsafe.Sizeof(payload{}); got != 32 {
		t.Fatalf("payload is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(event[payload]{}); got != 64 {
		t.Errorf("queued event body is %d bytes, want 64", got)
	}
	if got := unsafe.Sizeof(Message[payload]{}); got != 40 {
		t.Errorf("delivered message is %d bytes, want 40", got)
	}
}

// FuzzEventQueueOrder turns a byte stream into pushes and pops and checks
// every pop against the plainest oracle there is: sort the live (time, seq)
// pairs as floats and take the first. A byte with its two low bits clear
// pops; any other pushes at a time drawn from the rest of the byte — a few
// coarse values, so ties on time are the common case, or one of edgeTimes.
func FuzzEventQueueOrder(f *testing.F) {
	// The seeds are testdata/fuzz/FuzzEventQueueOrder: an equal-time burst,
	// every edge time in both orders, a push/pop interleaving that recycles
	// slots, and a 190-push stream four levels deep.
	f.Add([]byte{1, 2, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q eventQueue[int]
		var live []refEvent
		var seq int64
		pop := func() {
			sort.Slice(live, func(i, j int) bool {
				if live[i].time != live[j].time {
					return live[i].time < live[j].time
				}
				return live[i].seq < live[j].seq
			})
			var got event[int]
			q.pop(&got)
			want := live[0]
			live = live[1:]
			if got.time != want.time || got.seq != want.seq || got.payload != int(want.seq) {
				t.Fatalf("pop (%g,%d) payload %d, want (%g,%d)", got.time, got.seq, got.payload, want.time, want.seq)
			}
		}
		for _, b := range ops {
			if b&3 == 0 {
				if q.len() > 0 {
					pop()
				}
				continue
			}
			tm := float64(b >> 2 & 7)
			if b&0x80 != 0 {
				tm = edgeTimes[int(b>>2&31)%len(edgeTimes)]
			}
			seq++
			q.push(tm, seq).payload = int(seq)
			live = append(live, refEvent{time: tm, seq: seq})
			if q.len() != len(live) {
				t.Fatalf("len %d with %d live events", q.len(), len(live))
			}
		}
		for q.len() > 0 {
			pop()
		}
		if len(live) != 0 || len(q.free) != len(q.slab) {
			t.Fatalf("after the drain: %d live in the oracle, %d of %d slab slots vacant", len(live), len(q.free), len(q.slab))
		}
	})
}

// chatterNode exchanges messages over randomised (but deterministic per seed)
// link delays for the determinism regression test.
type chatterNode struct {
	id, n       int
	maxSends    int
	sends       int
	activations []float64
}

func (c *chatterNode) Init(now float64) []Outgoing[int] {
	c.sends++
	return []Outgoing[int]{{To: (c.id + 1) % c.n, Payload: c.id}}
}

func (c *chatterNode) OnMessages(now float64, msgs []Message[int]) []Outgoing[int] {
	c.activations = append(c.activations, now)
	if c.sends >= c.maxSends {
		return nil
	}
	c.sends++
	return []Outgoing[int]{
		{To: (c.id + 1) % c.n, Payload: c.id},
		{To: (c.id + c.n - 1) % c.n, Payload: c.id},
	}
}

func (c *chatterNode) ComputeTime(batch int) float64 { return 0.3 + 0.1*float64(c.id%3) }

func TestRunsAreDeterministicStatsAndTrace(t *testing.T) {
	run := func() (Stats, [][]float64) {
		const n = 7
		nodes := make([]Node[int], n)
		chatters := make([]*chatterNode, n)
		for i := range nodes {
			c := &chatterNode{id: i, n: n, maxSends: 40}
			chatters[i] = c
			nodes[i] = c
		}
		delay := func(from, to int) float64 { return 1 + 0.7*float64((from*31+to*17)%11) }
		sim := New(nodes, delay)
		stats := sim.Run(1e6)
		traces := make([][]float64, n)
		for i, c := range chatters {
			traces[i] = c.activations
		}
		return stats, traces
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ between identical runs:\n  %+v\n  %+v", s1, s2)
	}
	for i := range t1 {
		if len(t1[i]) != len(t2[i]) {
			t.Fatalf("node %d: activation counts differ: %d vs %d", i, len(t1[i]), len(t2[i]))
		}
		for j := range t1[i] {
			if t1[i][j] != t2[i][j] {
				t.Fatalf("node %d activation %d differs: %g vs %g", i, j, t1[i][j], t2[i][j])
			}
		}
	}
	if s1.Activations == 0 || s1.Messages == 0 {
		t.Fatalf("degenerate run: %+v", s1)
	}
}

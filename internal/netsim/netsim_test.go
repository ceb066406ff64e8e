package netsim

import (
	"math"
	"testing"
)

// pingNode sends one message to a fixed peer at start-up and echoes back every
// message it receives, up to a bounded number of echoes; it records the times
// at which it was activated.
type pingNode struct {
	id, peer    int
	compute     float64
	maxSends    int
	sends       int
	activations []float64
	received    []Message[int]
}

func (n *pingNode) Init(now float64) []Outgoing[int] {
	if n.maxSends == 0 {
		return nil
	}
	n.sends++
	return []Outgoing[int]{{To: n.peer, Payload: n.id}}
}

func (n *pingNode) OnMessages(now float64, msgs []Message[int]) []Outgoing[int] {
	n.activations = append(n.activations, now)
	n.received = append(n.received, msgs...)
	if n.sends >= n.maxSends {
		return nil
	}
	n.sends++
	return []Outgoing[int]{{To: n.peer, Payload: n.id}}
}

func (n *pingNode) ComputeTime(batch int) float64 { return n.compute }

func TestPingPongDeliveryTimes(t *testing.T) {
	// Node 0 -> node 1 takes 3, node 1 -> node 0 takes 5; compute takes 1.
	a := &pingNode{id: 0, peer: 1, compute: 1, maxSends: 2}
	b := &pingNode{id: 1, peer: 0, compute: 1, maxSends: 2}
	delay := func(from, to int) float64 {
		if from == 0 {
			return 3
		}
		return 5
	}
	sim := New([]Node[int]{a, b}, delay)
	stats := sim.Run(1000)

	// Both initial messages are sent at t=0: a's arrives at b at t=3, b's at a
	// at t=5. b finishes computing at 4, a at 6. b's second message arrives at
	// a at 4+5=9, a's second at b at 6+3=9. So b activates at 4 and 10, a at 6
	// and 10 (9+1 compute).
	if len(b.activations) != 2 || math.Abs(b.activations[0]-4) > 1e-12 || math.Abs(b.activations[1]-10) > 1e-12 {
		t.Errorf("b activations = %v, want [4 10]", b.activations)
	}
	if len(a.activations) != 2 || math.Abs(a.activations[0]-6) > 1e-12 || math.Abs(a.activations[1]-10) > 1e-12 {
		t.Errorf("a activations = %v, want [6 10]", a.activations)
	}
	if stats.Messages != 4 {
		t.Errorf("delivered messages = %d, want 4", stats.Messages)
	}
	if stats.Activations != 4 {
		t.Errorf("activations = %d, want 4", stats.Activations)
	}
	if stats.Time != 10 {
		t.Errorf("the run drained naturally at t=10, stopped at %g", stats.Time)
	}
	for _, m := range b.received {
		if m.From != 0 {
			t.Errorf("b received a message from %d, want 0: %+v", m.From, m)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []float64 {
		a := &pingNode{id: 0, peer: 1, compute: 0.5, maxSends: 6}
		b := &pingNode{id: 1, peer: 0, compute: 0.25, maxSends: 6}
		sim := New([]Node[int]{a, b}, func(from, to int) float64 { return 1.5 + float64(from) })
		sim.Run(1e6)
		return append(append([]float64{}, a.activations...), b.activations...)
	}
	first := run()
	second := run()
	if len(first) != len(second) {
		t.Fatalf("different numbers of activations: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("activation %d differs: %g vs %g", i, first[i], second[i])
		}
	}
}

func TestMaxTimeCutsTheRunOff(t *testing.T) {
	a := &pingNode{id: 0, peer: 1, compute: 1, maxSends: 1 << 30}
	b := &pingNode{id: 1, peer: 0, compute: 1, maxSends: 1 << 30}
	sim := New([]Node[int]{a, b}, func(from, to int) float64 { return 2 })
	stats := sim.Run(50)
	if stats.Time != 50 {
		t.Errorf("final time = %g, want the 50 cut-off", stats.Time)
	}
	// An activation may start at the horizon and finish one compute time later,
	// but nothing may be scheduled beyond that.
	for _, act := range append(a.activations, b.activations...) {
		if act > 50+1+1e-9 {
			t.Errorf("activation at %g is past the horizon", act)
		}
	}
	if stats.Activations == 0 || stats.Messages == 0 {
		t.Errorf("the run should have made progress before the cut-off: %+v", stats)
	}
}

func TestStopConditionEndsEarly(t *testing.T) {
	a := &pingNode{id: 0, peer: 1, compute: 1, maxSends: 1 << 30}
	b := &pingNode{id: 1, peer: 0, compute: 1, maxSends: 1 << 30}
	sim := New([]Node[int]{a, b}, func(from, to int) float64 { return 2 })
	count := 0
	sim.SetStopCondition(func(now float64) bool {
		count++
		return count >= 5
	})
	stats := sim.Run(1e9)
	if stats.Time >= 1e9 || sim.queue.len() == 0 {
		t.Errorf("the stop condition must end the run before the horizon with events queued: t=%g, %d queued", stats.Time, sim.queue.len())
	}
	if stats.Activations < 5 || stats.Activations > 6 {
		t.Errorf("activations = %d, want about 5", stats.Activations)
	}
}

func TestObserverSeesEveryActivation(t *testing.T) {
	a := &pingNode{id: 0, peer: 1, compute: 1, maxSends: 3}
	b := &pingNode{id: 1, peer: 0, compute: 1, maxSends: 3}
	sim := New([]Node[int]{a, b}, func(from, to int) float64 { return 1 })
	var times []float64
	var nodes []int
	sim.SetObserver(func(now float64, node int) {
		times = append(times, now)
		nodes = append(nodes, node)
	})
	stats := sim.Run(1e6)
	if len(times) != stats.Activations {
		t.Errorf("observer saw %d activations, stats counted %d", len(times), stats.Activations)
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Errorf("observer times are not monotonically non-decreasing: %v", times)
		}
	}
	for _, n := range nodes {
		if n != 0 && n != 1 {
			t.Errorf("observer saw an unknown node %d", n)
		}
	}
}

// batchNode never replies; it just records how many messages each activation
// delivered, to test batching of simultaneous arrivals.
type batchNode struct {
	batches []int
}

func (n *batchNode) Init(now float64) []Outgoing[int] { return nil }
func (n *batchNode) OnMessages(now float64, msgs []Message[int]) []Outgoing[int] {
	n.batches = append(n.batches, len(msgs))
	return nil
}
func (n *batchNode) ComputeTime(batch int) float64 { return 10 }

// burstNode sends k messages to node 1 at start-up and is silent afterwards.
type burstNode struct{ k int }

func (n *burstNode) Init(now float64) []Outgoing[int] {
	outs := make([]Outgoing[int], n.k)
	for i := range outs {
		outs[i] = Outgoing[int]{To: 1, Payload: i}
	}
	return outs
}
func (n *burstNode) OnMessages(now float64, msgs []Message[int]) []Outgoing[int] { return nil }
func (n *burstNode) ComputeTime(batch int) float64                               { return 1 }

func TestSimultaneousArrivalsAreBatched(t *testing.T) {
	sender := &burstNode{k: 4}
	receiver := &batchNode{}
	sim := New([]Node[int]{sender, receiver}, func(from, to int) float64 { return 2 })
	stats := sim.Run(1e6)
	// All four messages arrive at t=2; the first arrival activates the node and
	// the remaining three are already in the inbox... depending on heap pop
	// order the batch may be 1+3 or 4. Either way every message must be
	// consumed and the number of activations must be far below the message
	// count (batching happened).
	total := 0
	for _, b := range receiver.batches {
		total += b
	}
	if total != 4 {
		t.Errorf("receiver consumed %d messages, want 4", total)
	}
	if stats.Messages != 4 {
		t.Errorf("delivered %d messages, want 4", stats.Messages)
	}
	if len(receiver.batches) > 2 {
		t.Errorf("4 simultaneous messages caused %d activations, want at most 2", len(receiver.batches))
	}
}

func TestBusyNodeDefersNextBatch(t *testing.T) {
	// Three senders deliver to node 3 at t = 1, 2 and 3; the receiver computes
	// for 10 time units, so the first arrival starts a computation and the two
	// later arrivals must queue and be consumed together when it frees up.
	s0 := &burstToNode{to: 3}
	s1 := &burstToNode{to: 3}
	s2 := &burstToNode{to: 3}
	receiver := &batchNode{}
	delay := func(from, to int) float64 { return float64(from + 1) }
	sim := New([]Node[int]{s0, s1, s2, receiver}, delay)
	sim.Run(1e6)
	if len(receiver.batches) != 2 {
		t.Fatalf("batches = %v, want 2 activations", receiver.batches)
	}
	if receiver.batches[0] != 1 || receiver.batches[1] != 2 {
		t.Errorf("batch sizes = %v, want [1 2]", receiver.batches)
	}
}

// burstToNode sends exactly one message to a configurable destination at
// start-up and is silent afterwards.
type burstToNode struct{ to int }

func (n *burstToNode) Init(now float64) []Outgoing[int] {
	return []Outgoing[int]{{To: n.to, Payload: 7}}
}
func (n *burstToNode) OnMessages(now float64, msgs []Message[int]) []Outgoing[int] { return nil }
func (n *burstToNode) ComputeTime(batch int) float64                               { return 1 }

func TestInvalidConstructionPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"no nodes", func() { New[int](nil, func(a, b int) float64 { return 1 }) }},
		{"nil delay", func() { New([]Node[int]{&batchNode{}}, nil) }},
		{"unknown destination", func() {
			sim := New([]Node[int]{&burstNode{k: 1}}, func(a, b int) float64 { return 1 })
			sim.Run(10)
		}},
		{"non-positive delay", func() {
			sim := New([]Node[int]{&burstNode{k: 1}, &batchNode{}}, func(a, b int) float64 { return 0 })
			sim.Run(10)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

// TestPoolGetHonoursItsHint pins Pool.Get's rule: the buffer it hands out is
// empty and holds at least the hinted capacity, so a sender's appends never
// reallocate it. A recycled buffer that large is reused; a smaller one is
// dropped for a fresh one, and a nil pool always allocates.
func TestPoolGetHonoursItsHint(t *testing.T) {
	var p Pool[int]
	p.Put(make([]int, 3, 4))
	big := p.Get(8)
	if len(big) != 0 || cap(big) < 8 {
		t.Fatalf("Get(8) over a pooled cap-4 buffer gave len %d cap %d, want len 0 cap >= 8", len(big), cap(big))
	}
	if len(p.free) != 0 {
		t.Fatalf("the cap-4 buffer stayed pooled after Get(8): %d free", len(p.free))
	}
	p.Put(append(big, 1, 2))
	if got := p.Get(2); len(got) != 0 || cap(got) != cap(big) || &got[:1][0] != &big[:1][0] {
		t.Fatalf("Get(2) over a pooled cap-%d buffer gave len %d cap %d, not that buffer", cap(big), len(got), cap(got))
	}
	p.Put(nil)
	if len(p.free) != 0 {
		t.Fatalf("a zero-capacity buffer was pooled")
	}
	var none *Pool[int]
	if got := none.Get(5); len(got) != 0 || cap(got) != 5 {
		t.Fatalf("nil pool Get(5) gave len %d cap %d", len(got), cap(got))
	}
	none.Put(make([]int, 1))
}

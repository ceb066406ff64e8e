package netsim

import (
	"math"
	"testing"
)

// sinkNode records what it receives, and when, and never replies. It computes
// in zero time, so the now of each activation is its messages' delivery time.
type sinkNode struct {
	received []Message[int]
	at       []float64
}

func (n *sinkNode) Init(now float64) []Outgoing[int] { return nil }
func (n *sinkNode) OnMessages(now float64, msgs []Message[int]) []Outgoing[int] {
	n.received = append(n.received, msgs...)
	for range msgs {
		n.at = append(n.at, now)
	}
	return nil
}
func (n *sinkNode) ComputeTime(batch int) float64 { return 0 }

// burstSource sends a fixed number of messages to node 1 at start-up.
type burstSource struct{ count int }

func (n *burstSource) Init(now float64) []Outgoing[int] {
	outs := make([]Outgoing[int], n.count)
	for i := range outs {
		outs[i] = Outgoing[int]{To: 1, Payload: i}
	}
	return outs
}
func (n *burstSource) OnMessages(now float64, msgs []Message[int]) []Outgoing[int] { return nil }
func (n *burstSource) ComputeTime(batch int) float64                               { return 0.5 }

func TestFaultPolicyDropsDuplicatesAndDelays(t *testing.T) {
	src := &burstSource{count: 4}
	dst := &sinkNode{}
	sim := New([]Node[int]{src, dst}, func(from, to int) float64 { return 10 })
	// Payload 0 is dropped, payload 1 delivered twice, payload 2 delivered
	// with a stretched delay, payload 3 delivered nominally; the sends happen
	// in slice order at t=0, so a counter identifies them.
	k := -1
	sim.SetFaultPolicy(func(from, to int, now, d float64) []float64 {
		k++
		switch k {
		case 0:
			return nil
		case 1:
			return []float64{d, d + 1}
		case 2:
			return []float64{3 * d}
		default:
			return []float64{d}
		}
	})
	stats := sim.Run(1000)

	if stats.Messages != 4 {
		t.Errorf("delivered %d messages, want 4 (1 dropped, 1 duplicated)", stats.Messages)
	}
	var got []int
	times := dst.at
	for _, m := range dst.received {
		got = append(got, m.Payload)
	}
	want := []int{1, 3, 1, 2}
	wantT := []float64{10, 10, 11, 30}
	if len(got) != len(want) {
		t.Fatalf("received %v at %v, want payloads %v", got, times, want)
	}
	for i := range want {
		if got[i] != want[i] || math.Abs(times[i]-wantT[i]) > 1e-12 {
			t.Errorf("delivery %d: payload %d at t=%g, want %d at t=%g", i, got[i], times[i], want[i], wantT[i])
		}
	}
}

func TestFaultPolicyInvalidDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("a fault policy returning a non-positive delay must panic")
		}
	}()
	sim := New([]Node[int]{&burstSource{count: 1}, &sinkNode{}}, func(from, to int) float64 { return 10 })
	sim.SetFaultPolicy(func(from, to int, now, d float64) []float64 { return []float64{0} })
	sim.Run(100)
}

// timerNode schedules a chain of timers and records when they fire; it also
// sends a message from inside OnTimer to prove timer output goes through the
// normal (fault-injected) send path.
type timerNode struct {
	sim     *Simulator[int]
	firings []float64
	ids     []int
	chain   int
}

func (n *timerNode) Init(now float64) []Outgoing[int] {
	n.sim.After(0, now, 5, 7)
	return nil
}
func (n *timerNode) OnMessages(now float64, msgs []Message[int]) []Outgoing[int] { return nil }
func (n *timerNode) ComputeTime(batch int) float64                               { return 1 }
func (n *timerNode) OnTimer(now float64, id int) []Outgoing[int] {
	n.firings = append(n.firings, now)
	n.ids = append(n.ids, id)
	if n.chain > 0 {
		n.chain--
		n.sim.After(0, now, 5, id+1)
	}
	return []Outgoing[int]{{To: 1, Payload: id}}
}

func TestTimersFireAtScheduledTimes(t *testing.T) {
	tn := &timerNode{chain: 2}
	dst := &sinkNode{}
	sim := New([]Node[int]{tn, dst}, func(from, to int) float64 { return 2 })
	tn.sim = sim
	stats := sim.Run(1000)

	if len(tn.firings) != 3 {
		t.Fatalf("fired %d timers, want 3", len(tn.firings))
	}
	for i, wantT := range []float64{5, 10, 15} {
		if math.Abs(tn.firings[i]-wantT) > 1e-12 || tn.ids[i] != 7+i {
			t.Errorf("firing %d: t=%g id=%d, want t=%g id=%d", i, tn.firings[i], tn.ids[i], wantT, 7+i)
		}
	}
	// Each firing sent one message to the sink through the normal send path.
	if stats.Messages != 3 || len(dst.received) != 3 {
		t.Errorf("timer sends delivered %d/%d messages, want 3", stats.Messages, len(dst.received))
	}
}

func TestTimerOnNonTimerNodePanics(t *testing.T) {
	sim := New([]Node[int]{&sinkNode{}, &sinkNode{}}, func(from, to int) float64 { return 2 })
	sim.After(0, 0, 5, 1)
	defer func() {
		if recover() == nil {
			t.Errorf("a timer on a node without OnTimer must panic when it fires")
		}
	}()
	// The queue is non-empty (the timer), so Run processes it and panics.
	sim.Run(100)
}

func TestAfterValidation(t *testing.T) {
	sim := New([]Node[int]{&sinkNode{}}, func(from, to int) float64 { return 2 })
	for _, bad := range []struct {
		node  int
		delay float64
		id    int
	}{
		{node: 5, delay: 1, id: 0},
		{node: 0, delay: 0, id: 0},
		{node: 0, delay: math.NaN(), id: 0},
		{node: 0, delay: 1, id: 1 << 40},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("After(%d, 0, %g, %d) must panic", bad.node, bad.delay, bad.id)
				}
			}()
			sim.After(bad.node, 0, bad.delay, bad.id)
		}()
	}
}

package transport

import (
	"context"
	"errors"
	"runtime"
	"testing"
)

// len is how many packets q holds.
func (q *inbox) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// FuzzInbox checks the inbox against a plain-slice model. Each input byte is
// one operation: its low two bits pick put (0 or 1), take (2) or close (3),
// and its high six bits c a count. A put offers 1 << (c % 13) packets, so one
// byte can fill the inbox to its bound; a take asks c+1 times under a done
// context, so it never blocks. After every operation the ring must hold the
// model's packets in FIFO order from its head, every other slot must be zero
// (a taken packet's Entries are not kept alive), and the ring must be no
// longer than max(inboxStart, 2 × the most packets ever held) or the bound.
func FuzzInbox(f *testing.F) {
	const opPut, opTake, opClose = 0, 2, 3
	op := func(kind, c byte) byte { return kind | c<<2 }
	f.Add([]byte{op(opPut, 0), op(opTake, 1)})
	// Fill to the bound; the 4097th is refused; drain part, close, drain.
	f.Add([]byte{op(opPut, 12), op(opPut, 0), op(opTake, 63), op(opClose, 0), op(opPut, 0), op(opTake, 63)})
	// Grow while the head is mid-ring.
	f.Add([]byte{op(opPut, 3), op(opTake, 3), op(opPut, 4), op(opPut, 5), op(opTake, 63)})
	// Queued packets drain after close, then ErrClosed.
	f.Add([]byte{op(opPut, 3), op(opClose, 0), op(opTake, 15), op(opClose, 0)})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		done, cancel := context.WithCancel(context.Background())
		cancel()
		q := newInbox()
		var model []uint64
		closed := false
		var next uint64
		most := 0
		for i, b := range ops {
			c := int(b >> 2)
			switch b & 3 {
			case opPut, opPut + 1:
				for k := 1 << (c % 13); k > 0; k-- {
					next++
					err := q.put(Packet{Seq: next, Entries: []WaveEntry{{Wave: float64(next)}}})
					var want error
					switch {
					case closed:
						want = ErrClosed
					case len(model) == inboxBound:
						want = errInboxFull
					default:
						model = append(model, next)
					}
					if err != want {
						t.Fatalf("op %d: put seq %d with %d held (closed %v): %v, want %v", i, next, len(model), closed, err, want)
					}
				}
			case opTake:
				for k := c + 1; k > 0; k-- {
					pkt, err := q.take(done)
					switch {
					case len(model) > 0:
						if err != nil || pkt.Seq != model[0] || len(pkt.Entries) != 1 || pkt.Entries[0].Wave != float64(model[0]) {
							t.Fatalf("op %d: take = seq %d %v, %v; want seq %d", i, pkt.Seq, pkt.Entries, err, model[0])
						}
						model = model[1:]
					case closed:
						if !errors.Is(err, ErrClosed) {
							t.Fatalf("op %d: take from a drained closed inbox: %v, want ErrClosed", i, err)
						}
					default:
						if !errors.Is(err, context.Canceled) {
							t.Fatalf("op %d: take from an empty inbox under a done ctx: %v, want context.Canceled", i, err)
						}
					}
				}
			case opClose:
				q.close()
				closed = true
			}
			most = max(most, len(model))
			if q.len() != len(model) {
				t.Fatalf("op %d: %d held, want %d", i, q.len(), len(model))
			}
			if limit := min(inboxBound, max(inboxStart, 2*most)); len(q.ring) > limit {
				t.Fatalf("op %d: ring of %d slots, at most %d held: want at most %d", i, len(q.ring), most, limit)
			}
			for j, pkt := range q.ring {
				slot := (j - q.head + len(q.ring)) % len(q.ring)
				if slot < len(model) {
					if pkt.Seq != model[slot] {
						t.Fatalf("op %d: slot %d holds seq %d, want %d (FIFO)", i, slot, pkt.Seq, model[slot])
					}
				} else if pkt.Seq != 0 || pkt.Entries != nil {
					t.Fatalf("op %d: free ring index %d still holds seq %d", i, j, pkt.Seq)
				}
			}
		}
	})
}

// TestFabricAllocatesByTraffic: an inbox's storage follows what it holds, so
// bringing a fabric up and closing it with no traffic allocates a few kB per
// member. An inbox allocated at its bound costs 4096 × 80 B ≈ 320 kB.
func TestFabricAllocatesByTraffic(t *testing.T) {
	const perMember = 16 << 10
	allocated := func(build func() []Transport) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		closeAll(build())
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, f := range []struct {
		name string
		n    int
		make func(n int) []Transport
	}{
		{"chan", 65, NewChanNetwork},
		{"tcp", 3, func(n int) []Transport {
			ts, err := NewTCPLoopback(n)
			if err != nil {
				t.Fatal(err)
			}
			return ts
		}},
	} {
		closeAll(f.make(f.n)) // the first listener of a process reads system settings once
		got := allocated(func() []Transport { return f.make(f.n) })
		t.Logf("%s: %d members, %d B allocated, %d B each", f.name, f.n, got, got/uint64(f.n))
		if got > perMember*uint64(f.n) {
			t.Errorf("%s: %d members allocated %d B, over %d B each", f.name, f.n, got, perMember)
		}
	}
}

package transport

import (
	"context"
	"errors"
	"fmt"
)

// chanTransport is the in-process Transport: a send is a non-blocking put
// onto the destination member's inbox. Delivery is FIFO per sender-receiver
// pair and lossless until the inbox fills (then packets are dropped, like any
// congested datagram fabric), so single-threaded protocol tests on top of it
// are deterministic.
type chanTransport struct {
	self    int
	peers   []int
	inboxes []inbox // every member's, indexed by id
}

// NewChanNetwork builds an n-member in-process fabric and returns one
// Transport per member. An inbox holds at most 4096 packets, a cap rather
// than an allocation: its storage grows with what it holds. A send to a full
// inbox drops the packet (best-effort semantics, matching real datagram
// loss) rather than blocking the sender.
func NewChanNetwork(n int) []Transport {
	inboxes := make([]inbox, n)
	for i := range inboxes {
		inboxes[i] = newInbox()
	}
	ts := make([]Transport, n)
	for i := range ts {
		peers := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				peers = append(peers, j)
			}
		}
		ts[i] = &chanTransport{self: i, peers: peers, inboxes: inboxes}
	}
	return ts
}

func (t *chanTransport) Self() int    { return t.self }
func (t *chanTransport) Peers() []int { return t.peers }

func (t *chanTransport) Send(ctx context.Context, to int, pkt Packet) error {
	if to < 0 || to >= len(t.inboxes) || to == t.self {
		return fmt.Errorf("transport: invalid destination %d", to)
	}
	if t.inboxes[t.self].isClosed() {
		return ErrClosed
	}
	pkt.From = int32(t.self)
	if err := t.inboxes[to].put(pkt); errors.Is(err, ErrClosed) {
		return ErrPeerUnavailable
	}
	// Queued, or lost at a full inbox: the protocol's retransmission
	// recovers, and not blocking here keeps in-process tests deadlock-free.
	return nil
}

func (t *chanTransport) Recv(ctx context.Context) (Packet, error) {
	return t.inboxes[t.self].take(ctx)
}

func (t *chanTransport) Close() error {
	t.inboxes[t.self].close()
	return nil
}

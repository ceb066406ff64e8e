package transport

import (
	"context"
	"errors"
	"sync"
)

// inboxBound is how many packets a member's inbox holds; a packet that
// arrives at a full inbox is dropped, like any congested datagram fabric,
// and the protocol's retransmission recovers it.
const inboxBound = 4096

// inboxStart is the ring's first size, taken at the first packet. Each growth
// doubles it, so it reaches inboxBound exactly.
const inboxStart = 16

// errInboxFull is put's answer for a packet dropped at a full inbox.
var errInboxFull = errors.New("transport: inbox full")

// inbox is a member's receive queue, shared by both fabrics: a FIFO ring
// behind a mutex, holding at most inboxBound packets, and a one-token wake
// channel for its single consumer. The ring starts empty and doubles when
// full, so it never holds more than max(inboxStart, 2 × the most packets
// queued at once) slots, rather than the bound. After close no packet is
// accepted, and the ones queued before it stay readable.
type inbox struct {
	mu     sync.Mutex
	ring   []Packet
	head   int // ring index of the oldest packet
	n      int // packets queued
	closed bool
	wake   chan struct{} // one token: the queue changed since take last looked
}

func newInbox() inbox { return inbox{wake: make(chan struct{}, 1)} }

// put queues pkt. It returns ErrClosed after close and errInboxFull when the
// bound is reached; either way pkt is not queued.
func (q *inbox) put(pkt Packet) error {
	q.mu.Lock()
	switch {
	case q.closed:
		q.mu.Unlock()
		return ErrClosed
	case q.n == inboxBound:
		q.mu.Unlock()
		return errInboxFull
	case q.n == len(q.ring):
		ring := make([]Packet, max(inboxStart, 2*len(q.ring)))
		k := copy(ring, q.ring[q.head:])
		copy(ring[k:], q.ring[:q.head])
		q.ring, q.head = ring, 0
	}
	q.ring[(q.head+q.n)%len(q.ring)] = pkt
	q.n++
	q.mu.Unlock()
	q.signal()
	return nil
}

// take returns the oldest queued packet, even when ctx is already done. With
// none queued it returns ErrClosed after close, and otherwise blocks until a
// packet arrives, the inbox closes or ctx is done.
func (q *inbox) take(ctx context.Context) (Packet, error) {
	for {
		q.mu.Lock()
		if q.n > 0 {
			pkt := q.ring[q.head]
			q.ring[q.head] = Packet{} // the ring must not keep pkt's slices alive
			q.head = (q.head + 1) % len(q.ring)
			q.n--
			q.mu.Unlock()
			return pkt, nil
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			return Packet{}, ErrClosed
		}
		select {
		case <-q.wake:
		case <-ctx.Done():
			return Packet{}, ctx.Err()
		}
	}
}

// close refuses every later put and wakes a blocked take.
func (q *inbox) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.signal()
}

// isClosed reports whether close has been called.
func (q *inbox) isClosed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

func (q *inbox) signal() {
	select {
	case q.wake <- struct{}{}:
	default: // a token is already waiting
	}
}

// Package transport abstracts the network a distributed DTM run exchanges
// waves over. The paper's algorithm needs only unreliable, unordered,
// neighbour-to-neighbour datagrams — no barrier, no broadcast, no delivery
// guarantee — so the Transport interface is deliberately minimal: a member
// can send a Packet to a peer, receive whatever has arrived, and close.
// Reliability is the job of the protocol layered on top (per-directed-pair
// sequence numbers with last-writer-wins deduplication, epoch and
// incarnation fences, watchdog retransmission): core.Shard, which keeps all
// of its state, the receiver's applied marks included, and which package
// dist drives over any Transport. This package stamps nothing and
// deduplicates nothing.
//
// Two implementations ship: an in-process fabric (NewChanNetwork) for
// deterministic tests, and a TCP fabric (NewTCP) framing packets as
// length-prefixed binary messages with lazy per-peer dialing and
// exponential-backoff reconnection. Its Send queues the frame for the peer
// connection's writer, which writes everything queued in one syscall; a
// failed write is lost datagrams, seen as ErrPeerUnavailable on a later Send
// while the redial backs off, and Close flushes what was queued. Both deliver
// into one kind of inbox: a FIFO queue of at most 4096 packets that drops
// what arrives when it is full or closed, and whose storage grows with what it
// holds rather than being allocated at the bound. A FaultClock decorates any
// Transport with the seeded chaos fault model so lossy-network behaviour is
// testable on loopback: WithFaults drops and duplicates, NewFaultClock adds
// per-link delays, jitter and down or slow windows on a wall clock. The
// interface carries no topology assumptions — members are opaque integer ids
// — so non-mesh fabrics (geometric spanners, Yao graphs) need no changes
// here.
package transport

import (
	"context"
	"errors"
)

// Kind discriminates what a Packet carries.
type Kind uint8

const (
	// KindWave is a DTM wave packet: the outgoing waves of every DTL from
	// FromPart toward ToPart, sequence-numbered for LWW deduplication.
	KindWave Kind = iota
	// KindControl is a control-plane message (assignment, status, stop …);
	// the payload is in Ctrl and the protocol above defines its encoding.
	KindControl
)

// WaveEntry is one wave: the DTL it travels on (global link id) and its
// value u − Z·ω.
type WaveEntry struct {
	LinkID int32
	Wave   float64
}

// Packet is the unit of exchange: either a wave packet between two parts or
// a control message between two members.
type Packet struct {
	// Kind selects wave vs control.
	Kind Kind
	// From is the sending member's transport id (not a part id).
	From int32
	// FromPart and ToPart are the communicating subdomains of a wave packet
	// (a member may own several parts). Unused for control packets.
	FromPart, ToPart int32
	// Seq numbers the waves of the directed pair FromPart→ToPart; receivers
	// apply last-writer-wins per pair. Zero on control packets.
	Seq uint64
	// Epoch is the ownership epoch the wave was announced under. Receivers
	// fence wave packets whose epoch differs from their own — after a
	// failover reassignment a dead worker's lingering (zombie) traffic must
	// not corrupt the adopters' state. Zero on control packets and on
	// single-epoch runs (the pre-failover protocol), where 0 == 0 passes.
	Epoch uint32
	// Inc is the sending member's incarnation number. A restarted member
	// registers with a higher incarnation; receivers fence wave packets from
	// an older incarnation of the same sending part.
	Inc uint32
	// Entries are the waves (nil for control packets).
	Entries []WaveEntry
	// Ctrl is the opaque control payload (nil for wave packets).
	Ctrl []byte
}

// Transport moves Packets between the members of one distributed run.
// Implementations must allow concurrent Send calls; Recv is single-consumer.
type Transport interface {
	// Self is this member's id.
	Self() int
	// Peers lists the other members' ids, ascending.
	Peers() []int
	// Send delivers (or loses — delivery is best-effort) one packet to a
	// peer. It blocks at most until ctx is done, and may return before the
	// packet has left: the TCP fabric only queues it for the connection's
	// writer. A nil error is therefore no receipt; a write that fails later
	// loses the packet like a dropped datagram, and a Send during the redial
	// backoff that follows returns ErrPeerUnavailable. A send to an
	// unreachable peer, or to one whose queue is full, may return
	// ErrPeerUnavailable immediately; the caller's retransmission machinery is
	// expected to recover. Packets queued before Close are still sent.
	Send(ctx context.Context, to int, pkt Packet) error
	// Recv returns the next received packet, blocking until one arrives,
	// ctx is done, or the transport is closed (ErrClosed). A packet already
	// queued is returned even when ctx is already done, so a receive under a
	// done ctx takes one without waiting; after Close the packets queued
	// before it come back first, then ErrClosed. Nothing sent to a closed
	// member is ever returned.
	Recv(ctx context.Context) (Packet, error)
	// Close releases the member's resources once the packets Send queued
	// before it have been written, and ends its inbound side: a packet that
	// arrives after Close is dropped, and the TCP fabric closes its listener
	// and every connection. Packets received before Close stay readable until
	// drained; then Recv returns ErrClosed.
	Close() error
}

// ErrClosed is returned by Recv after Close once the inbox is drained, and
// by Send on a closed transport.
var ErrClosed = errors.New("transport: closed")

// ErrPeerUnavailable is returned by Send when the peer cannot be reached
// right now (connection refused, reconnect backoff in progress after a failed
// dial or write, send queue full). The packet
// is lost — exactly like a dropped datagram — and the protocol's watchdog
// retransmission recovers.
var ErrPeerUnavailable = errors.New("transport: peer unavailable")

// ErrFrameTooLarge is returned by the TCP Send for a packet whose frame would
// exceed the 16 MiB cap every reader enforces. Written, such a frame would
// make the receiver drop the connection and would be lost again on every
// retry; refused, it costs nothing, and the connection stays as it was.
var ErrFrameTooLarge = errors.New("transport: frame too large")

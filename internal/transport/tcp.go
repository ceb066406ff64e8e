package transport

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"
)

// Reconnect backoff: a failed dial locks the peer out for dialBackoffBase,
// doubling per consecutive failure up to dialBackoffCap — the same
// exponential-backoff shape the fault layer's watchdogs use, so a down peer
// costs O(1) failed dials per backoff window instead of one per wave. A write
// of one batch gives up after writeTimeout, which also bounds Close's flush.
const (
	dialBackoffBase = 50 * time.Millisecond
	dialBackoffCap  = 2 * time.Second
	dialTimeout     = 2 * time.Second
	writeTimeout    = 5 * time.Second
)

// tcpTransport carries Packets as length-prefixed binary frames over TCP:
// one listener per member, one lazily dialed outbound connection per peer
// (re-dialed with exponential backoff after failures), and one inbox fed by
// per-connection reader goroutines. The inbox holds at most 4096 packets, a
// cap rather than an allocation: its storage grows with what it holds. Send
// only queues the frame on its peer connection, whose one writer goroutine
// writes everything queued since its last write in one Write: a burst leaves
// in one syscall, and no frame waits on a timer. A failed write loses what it
// carried, exactly like dropped datagrams, and the protocol's retransmission
// machinery recovers.
type tcpTransport struct {
	self  int
	addrs map[int]string
	peers []int
	ln    net.Listener
	inbox inbox

	mu       sync.Mutex
	conns    map[int]*peerConn
	accepted map[net.Conn]struct{} // inbound connections whose reader runs

	closed    chan struct{}
	closeOnce sync.Once
}

// peerConn is the outbound side of one peer. conn, pending, wake and done
// belong to the connection a writeLoop serves; the dial state outlives it.
type peerConn struct {
	mu       sync.Mutex
	conn     net.Conn
	pending  []byte        // frames Send queued and the writer has not taken
	wake     chan struct{} // one token: pending has frames the writer has not seen
	done     chan struct{} // closed when conn's writer has flushed and exited
	failures int
	nextDial time.Time
}

// NewTCP creates a TCP member: it listens on addrs[self] and will lazily
// dial the other entries of addrs on first send. All members must share the
// same id→address map.
func NewTCP(self int, addrs map[int]string) (Transport, error) {
	ln, err := net.Listen("tcp", addrs[self])
	if err != nil {
		return nil, fmt.Errorf("transport: member %d listen on %s: %w", self, addrs[self], err)
	}
	return NewTCPFromListener(self, ln, addrs), nil
}

// NewTCPFromListener wraps an already-open listener (useful when the OS
// picked the port) into a TCP member. The listener is owned by the transport
// from here on and closed by Close.
func NewTCPFromListener(self int, ln net.Listener, addrs map[int]string) Transport {
	peers := make([]int, 0, len(addrs)-1)
	for id := range addrs {
		if id != self {
			peers = append(peers, id)
		}
	}
	for i := 1; i < len(peers); i++ {
		for j := i; j > 0 && peers[j] < peers[j-1]; j-- {
			peers[j], peers[j-1] = peers[j-1], peers[j]
		}
	}
	t := &tcpTransport{
		self:     self,
		addrs:    addrs,
		peers:    peers,
		ln:       ln,
		inbox:    newInbox(),
		conns:    make(map[int]*peerConn),
		accepted: make(map[net.Conn]struct{}),
		closed:   make(chan struct{}),
	}
	go t.acceptLoop()
	return t
}

// NewTCPLoopback builds an n-member TCP fabric on 127.0.0.1 with OS-assigned
// ports — the TCP counterpart of NewChanNetwork. Every listener is opened
// before any member is made, so the shared address map is complete; when one
// cannot be opened the ones already open are closed again.
func NewTCPLoopback(n int) ([]Transport, error) {
	lns := make([]net.Listener, n)
	addrs := make(map[int]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, open := range lns[:i] {
				open.Close()
			}
			return nil, fmt.Errorf("transport: loopback member %d: %w", i, err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	ts := make([]Transport, n)
	for i, ln := range lns {
		ts[i] = NewTCPFromListener(i, ln, addrs)
	}
	return ts, nil
}

func (t *tcpTransport) Self() int    { return t.self }
func (t *tcpTransport) Peers() []int { return t.peers }

// acceptLoop serves the listener until Close. Each inbound connection is
// registered under t.mu, or closed at once when Close has begun, so Close
// ends every reader it leaves running.
func (t *tcpTransport) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		select {
		case <-t.closed:
			t.mu.Unlock()
			conn.Close()
			return
		default:
		}
		t.accepted[conn] = struct{}{}
		t.mu.Unlock()
		go func() {
			t.readLoop(conn)
			t.mu.Lock()
			delete(t.accepted, conn)
			t.mu.Unlock()
		}()
	}
}

// readLoop puts every frame conn carries in the inbox until the connection
// ends; Close ends every connection, after its writer's flush on an
// outbound one.
func (t *tcpTransport) readLoop(conn net.Conn) {
	defer conn.Close()
	fr := frameReader{r: conn}
	for {
		pkt, err := fr.next()
		if err != nil {
			return
		}
		_ = t.inbox.put(pkt) // full or closed: dropped, like a congested datagram fabric
	}
}

func (t *tcpTransport) peer(to int) (*peerConn, error) {
	if _, ok := t.addrs[to]; !ok || to == t.self {
		return nil, fmt.Errorf("transport: invalid destination %d", to)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pc, ok := t.conns[to]
	if !ok {
		pc = &peerConn{}
		t.conns[to] = pc
	}
	return pc, nil
}

// Send queues pkt on its peer's connection, dialing it first if there is
// none, and returns; the connection's writer sends it. The queue holds at
// most one largest frame's bytes (4 + maxFrame): a frame that would take it
// further, as when the peer stops reading, is refused with
// ErrPeerUnavailable, a lost datagram.
func (t *tcpTransport) Send(ctx context.Context, to int, pkt Packet) error {
	pc, err := t.peer(to)
	if err != nil {
		return err
	}
	n := payloadLen(&pkt)
	if n > maxFrame {
		return fmt.Errorf("%w: %d bytes, the cap is %d", ErrFrameTooLarge, n, maxFrame)
	}
	pkt.From = int32(t.self)

	pc.mu.Lock()
	defer pc.mu.Unlock()
	// Checked under pc.mu: the writer takes its last batch under it after
	// Close, so a frame queued here is either in that batch or refused.
	select {
	case <-t.closed:
		return ErrClosed
	default:
	}
	if pc.conn == nil {
		now := time.Now()
		if now.Before(pc.nextDial) {
			return ErrPeerUnavailable
		}
		d := net.Dialer{Timeout: dialTimeout}
		conn, err := d.DialContext(ctx, "tcp", t.addrs[to])
		if err != nil {
			backoff := dialBackoffBase << uint(pc.failures)
			if backoff > dialBackoffCap {
				backoff = dialBackoffCap
			}
			if pc.failures < 16 {
				pc.failures++
			}
			pc.nextDial = now.Add(backoff)
			return fmt.Errorf("%w: %v", ErrPeerUnavailable, err)
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		pc.failures = 0
		pc.nextDial = time.Time{}
		t.serve(pc, conn)
	}
	if len(pc.pending)+n > maxFrame {
		return fmt.Errorf("%w: %d bytes queued for member %d", ErrPeerUnavailable, len(pc.pending), to)
	}
	pc.pending = appendPacket(slices.Grow(pc.pending, 4+n), &pkt)
	select {
	case pc.wake <- struct{}{}:
	default: // the writer is already due to look
	}
	return nil
}

// serve makes conn pc's connection and starts its writer and its reader:
// inbound frames on an outbound connection are legal (a peer may reply over
// the same conn) and go to the inbox too. pc.mu is held.
func (t *tcpTransport) serve(pc *peerConn, conn net.Conn) {
	pc.conn = conn
	pc.wake = make(chan struct{}, 1)
	pc.done = make(chan struct{})
	go t.writeLoop(pc, conn, pc.wake, pc.done)
	go t.readLoop(conn)
}

// writeLoop is conn's one writer: each time Send wakes it, it takes every
// frame queued since its last write and writes them in one Write under one
// deadline. It exits when a write fails, dropping the connection and what
// was queued on it so the next Send re-dials after the backoff, or when the
// transport closes, after writing what was queued by then.
func (t *tcpTransport) writeLoop(pc *peerConn, conn net.Conn, wake <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	defer conn.Close()
	var batch []byte
	for {
		closing := false
		select {
		case <-wake:
		case <-t.closed:
			closing = true
		}
		pc.mu.Lock()
		batch, pc.pending = pc.pending, batch[:0]
		pc.mu.Unlock()
		if len(batch) > 0 {
			conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			if _, err := conn.Write(batch); err != nil {
				pc.mu.Lock()
				if pc.conn == conn {
					pc.conn = nil
					pc.pending = pc.pending[:0]
					pc.nextDial = time.Now().Add(dialBackoffBase)
					pc.failures = 1
				}
				pc.mu.Unlock()
				return
			}
		}
		if closing {
			return
		}
	}
}

func (t *tcpTransport) Recv(ctx context.Context) (Packet, error) {
	return t.inbox.take(ctx)
}

// Close closes the inbox, so no frame that arrives after it is queued, stops
// the listener and every inbound connection, lets every writer flush what
// Send queued before it (each write bounded by writeTimeout) and returns once
// they have; each writer then closes its connection.
func (t *tcpTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		t.inbox.close()
		t.ln.Close()
		var flushed []chan struct{}
		t.mu.Lock()
		for conn := range t.accepted {
			conn.Close()
		}
		for _, pc := range t.conns {
			pc.mu.Lock()
			if pc.conn != nil {
				flushed = append(flushed, pc.done)
				pc.conn = nil
			}
			pc.mu.Unlock()
		}
		t.mu.Unlock()
		for _, done := range flushed {
			<-done
		}
	})
	return nil
}

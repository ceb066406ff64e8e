package transport

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// Reconnect backoff: a failed dial locks the peer out for dialBackoffBase,
// doubling per consecutive failure up to dialBackoffCap — the same
// exponential-backoff shape the fault layer's watchdogs use, so a down peer
// costs O(1) failed dials per backoff window instead of one per wave.
const (
	dialBackoffBase = 50 * time.Millisecond
	dialBackoffCap  = 2 * time.Second
	dialTimeout     = 2 * time.Second
	writeTimeout    = 5 * time.Second
)

// tcpTransport carries Packets as length-prefixed binary frames over TCP:
// one listener per member, one lazily dialed outbound connection per peer
// (re-dialed with exponential backoff after failures), and a shared inbox
// fed by per-connection reader goroutines. Send is best-effort: a write
// error closes the connection and loses the packet, exactly like a dropped
// datagram, and the protocol's retransmission machinery recovers.
type tcpTransport struct {
	self  int
	addrs map[int]string
	peers []int
	ln    net.Listener
	inbox chan Packet

	mu    sync.Mutex
	conns map[int]*peerConn

	closed    chan struct{}
	closeOnce sync.Once
}

type peerConn struct {
	mu       sync.Mutex
	conn     net.Conn
	buf      []byte
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
		self:   self,
		addrs:  addrs,
		peers:  peers,
		ln:     ln,
		inbox:  make(chan Packet, 4096),
		conns:  make(map[int]*peerConn),
		closed: make(chan struct{}),
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

func (t *tcpTransport) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go t.readLoop(conn)
	}
}

func (t *tcpTransport) readLoop(conn net.Conn) {
	defer conn.Close()
	var scratch []byte
	for {
		pkt, s, err := readFrame(conn, scratch)
		if err != nil {
			return
		}
		scratch = s
		select {
		case t.inbox <- pkt:
		case <-t.closed:
			return
		default:
			// Inbox full: drop, like any congested datagram fabric.
		}
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

func (t *tcpTransport) Send(ctx context.Context, to int, pkt Packet) error {
	select {
	case <-t.closed:
		return ErrClosed
	default:
	}
	pc, err := t.peer(to)
	if err != nil {
		return err
	}
	if n := payloadLen(&pkt); n > maxFrame {
		return fmt.Errorf("%w: %d bytes, the cap is %d", ErrFrameTooLarge, n, maxFrame)
	}
	pkt.From = int32(t.self)

	pc.mu.Lock()
	defer pc.mu.Unlock()
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
		pc.conn = conn
		pc.failures = 0
		pc.nextDial = time.Time{}
		// Inbound frames on an outbound connection are legal (a peer may
		// reply over the same conn); feed them into the inbox too.
		go t.readLoop(conn)
	}
	pc.buf = appendPacket(pc.buf[:0], &pkt)
	pc.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := pc.conn.Write(pc.buf); err != nil {
		// The connection is broken; the packet is lost. Drop the conn so the
		// next send re-dials (after backoff) and let retransmission recover.
		pc.conn.Close()
		pc.conn = nil
		pc.nextDial = time.Now().Add(dialBackoffBase)
		pc.failures = 1
		return fmt.Errorf("%w: %v", ErrPeerUnavailable, err)
	}
	return nil
}

func (t *tcpTransport) Recv(ctx context.Context) (Packet, error) {
	// Drain what already arrived even after Close.
	select {
	case pkt := <-t.inbox:
		return pkt, nil
	default:
	}
	select {
	case pkt := <-t.inbox:
		return pkt, nil
	case <-t.closed:
		return Packet{}, ErrClosed
	case <-ctx.Done():
		return Packet{}, ctx.Err()
	}
}

func (t *tcpTransport) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		t.ln.Close()
		t.mu.Lock()
		for _, pc := range t.conns {
			pc.mu.Lock()
			if pc.conn != nil {
				pc.conn.Close()
				pc.conn = nil
			}
			pc.mu.Unlock()
		}
		t.mu.Unlock()
	})
	return nil
}

package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
)

func newTCPNetwork(t *testing.T, n int) []Transport {
	t.Helper()
	ts, err := NewTCPLoopback(n)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// fabrics is the conformance matrix: every test below runs against each
// implementation through the same Transport interface.
var fabrics = []struct {
	name string
	make func(t *testing.T, n int) []Transport
}{
	{"chan", func(t *testing.T, n int) []Transport { return NewChanNetwork(n) }},
	{"tcp", newTCPNetwork},
}

func closeAll(ts []Transport) {
	for _, tr := range ts {
		tr.Close()
	}
}

// TestConformanceMembership checks Self/Peers on every fabric.
func TestConformanceMembership(t *testing.T) {
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			ts := f.make(t, 3)
			defer closeAll(ts)
			for i, tr := range ts {
				if tr.Self() != i {
					t.Fatalf("member %d: Self() = %d", i, tr.Self())
				}
				want := 0
				for _, p := range tr.Peers() {
					if p == i {
						t.Fatalf("member %d lists itself as peer", i)
					}
					want++
				}
				if want != 2 {
					t.Fatalf("member %d: %d peers, want 2", i, want)
				}
			}
		})
	}
}

// TestConformanceDelivery is the ordering-free delivery check: every member
// concurrently sends a numbered burst to every peer; every packet must
// arrive exactly once with its payload intact, in whatever order.
func TestConformanceDelivery(t *testing.T) {
	const n, burst = 3, 50
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			ts := f.make(t, n)
			defer closeAll(ts)
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()

			var wg sync.WaitGroup
			for from := 0; from < n; from++ {
				wg.Add(1)
				go func(from int) {
					defer wg.Done()
					for _, to := range ts[from].Peers() {
						for s := 1; s <= burst; s++ {
							pkt := Packet{
								Kind:     KindWave,
								FromPart: int32(from),
								ToPart:   int32(to),
								Seq:      uint64(s),
								Entries:  []WaveEntry{{LinkID: int32(s), Wave: float64(from*1000 + s)}},
							}
							// Loopback TCP may transiently refuse while the
							// accept loop starts; retry unavailable sends.
							for {
								err := ts[from].Send(ctx, to, pkt)
								if err == nil {
									break
								}
								if !errors.Is(err, ErrPeerUnavailable) {
									t.Errorf("send %d→%d: %v", from, to, err)
									return
								}
								time.Sleep(10 * time.Millisecond)
							}
						}
					}
				}(from)
			}
			wg.Wait()

			for to := 0; to < n; to++ {
				got := make(map[string]bool)
				want := (n - 1) * burst
				for len(got) < want {
					pkt, err := ts[to].Recv(ctx)
					if err != nil {
						t.Fatalf("member %d: recv after %d/%d: %v", to, len(got), want, err)
					}
					if pkt.Kind != KindWave || int(pkt.ToPart) != to {
						t.Fatalf("member %d: stray packet %+v", to, pkt)
					}
					wantWave := float64(int(pkt.FromPart)*1000) + float64(pkt.Seq)
					if len(pkt.Entries) != 1 || pkt.Entries[0].Wave != wantWave {
						t.Fatalf("member %d: corrupted payload %+v", to, pkt)
					}
					key := fmt.Sprintf("%d/%d", pkt.FromPart, pkt.Seq)
					if got[key] {
						t.Fatalf("member %d: duplicate delivery %s", to, key)
					}
					got[key] = true
				}
			}
		})
	}
}

// TestConformanceDedup forces duplication and reordering at the sender and
// checks every fabric hands over each copy as sent, so last-writer-wins by
// sequence number (core.Shard.Receive, TestShardReceiveLWW) admits exactly
// the fresh packets — the recovery-protocol rule every fabric must compose
// with.
func TestConformanceDedup(t *testing.T) {
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			ts := f.make(t, 2)
			defer closeAll(ts)
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()

			// Sequence with forced duplicates and an overtaken packet:
			// 1, 1(dup), 2, 4, 3(overtaken), 4(dup), 5.
			seqs := []uint64{1, 1, 2, 4, 3, 4, 5}
			send := func(s uint64) {
				pkt := Packet{Kind: KindWave, FromPart: 0, ToPart: 1, Seq: s,
					Entries: []WaveEntry{{LinkID: 7, Wave: float64(s)}}}
				for {
					err := ts[0].Send(ctx, 1, pkt)
					if err == nil {
						return
					}
					if !errors.Is(err, ErrPeerUnavailable) {
						t.Fatalf("send: %v", err)
					}
					time.Sleep(10 * time.Millisecond)
				}
			}
			for _, s := range seqs {
				send(s)
			}

			var got []uint64
			for i := 0; i < len(seqs); i++ {
				pkt, err := ts[1].Recv(ctx)
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				if len(pkt.Entries) != 1 || pkt.Entries[0].Wave != float64(pkt.Seq) {
					t.Fatalf("recv %d: corrupted payload %+v", i, pkt)
				}
				got = append(got, pkt.Seq)
			}
			// Both fabrics are FIFO per connection, so the arrival order is
			// the send order: duplicates and the overtaken packet included.
			if !slices.Equal(got, seqs) {
				t.Fatalf("arrived seqs %v, want %v", got, seqs)
			}
		})
	}
}

// queued is how many packets wait in tr's inbox.
func queued(tr Transport) int {
	switch m := tr.(type) {
	case *chanTransport:
		return m.inboxes[m.self].len()
	case *tcpTransport:
		return m.inbox.len()
	case *faultTransport:
		return queued(m.Transport)
	}
	panic(fmt.Sprintf("queued: %T", tr))
}

// TestConformanceRecvDrainsWhenDone pins the Recv rule a non-blocking take
// relies on: packets already queued come back, in order, even under a ctx
// that is already done, and ctx.Err() only once none is left; after Close
// the queued packets come back first, then ErrClosed. WithFaults passes Recv
// through untouched.
func TestConformanceRecvDrainsWhenDone(t *testing.T) {
	faulty := func(t *testing.T, n int) []Transport {
		spec, err := chaos.ParseSpec("drop=0.5,dup=0.5,seed=3")
		if err != nil {
			t.Fatal(err)
		}
		ts := NewChanNetwork(n)
		for i := range ts {
			ts[i] = WithFaults(ts[i], spec, n)
		}
		return ts
	}
	run := func(name string, mk func(t *testing.T, n int) []Transport) {
		t.Run(name, func(t *testing.T) {
			ts := mk(t, 2)
			defer closeAll(ts)
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			done, stop := context.WithCancel(ctx)
			stop()
			const n = 3
			fill := func(first uint64) {
				for s := first; s < first+n; s++ {
					for {
						err := ts[0].Send(ctx, 1, Packet{Kind: KindControl, Seq: s, Ctrl: []byte(`{}`)})
						if err == nil {
							break
						}
						if !errors.Is(err, ErrPeerUnavailable) {
							t.Fatalf("send: %v", err)
						}
						time.Sleep(10 * time.Millisecond)
					}
				}
				for queued(ts[1]) < n {
					if ctx.Err() != nil {
						t.Fatal("the packets sent never queued")
					}
					time.Sleep(time.Millisecond)
				}
			}
			take := func(rctx context.Context, first uint64, end error) {
				for s := first; s < first+n; s++ {
					if pkt, err := ts[1].Recv(rctx); err != nil || pkt.Seq != s {
						t.Fatalf("recv: seq %d, %v; want the queued seq %d", pkt.Seq, err, s)
					}
				}
				if _, err := ts[1].Recv(rctx); !errors.Is(err, end) {
					t.Fatalf("recv with nothing queued: %v, want %v", err, end)
				}
			}
			fill(1)
			take(done, 1, context.Canceled)
			fill(1 + n)
			ts[1].Close()
			take(ctx, 1+n, ErrClosed)
		})
	}
	for _, f := range fabrics {
		run(f.name, f.make)
	}
	run("faults", faulty)
}

// TestConformanceCloseWakesRecv: a Recv blocked on an empty inbox returns
// ErrClosed when the member closes, without waiting for its ctx. The sleep
// only lets Recv block first; the test passes either way round.
func TestConformanceCloseWakesRecv(t *testing.T) {
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			ts := f.make(t, 2)
			defer closeAll(ts)
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			got := make(chan error, 1)
			go func() {
				_, err := ts[1].Recv(ctx)
				got <- err
			}()
			time.Sleep(10 * time.Millisecond)
			ts[1].Close()
			if err := <-got; !errors.Is(err, ErrClosed) {
				t.Fatalf("blocked Recv across Close: %v, want ErrClosed", err)
			}
		})
	}
}

// TestTCPReconnectAfterClose kills a member and restarts it on the same
// address: the sender's connection breaks, Send degrades to lost datagrams
// with backoff, and once the member is back the (retried) sends flow again —
// the transport-level half of crash-restart recovery.
func TestTCPReconnectAfterClose(t *testing.T) {
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := map[int]string{0: ln0.Addr().String(), 1: ln1.Addr().String()}
	a := NewTCPFromListener(0, ln0, addrs)
	defer a.Close()
	b := NewTCPFromListener(1, ln1, addrs)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	pkt := Packet{Kind: KindWave, FromPart: 0, ToPart: 1, Seq: 1,
		Entries: []WaveEntry{{LinkID: 1, Wave: 42}}}

	// Establish the connection and verify delivery.
	for {
		if err := a.Send(ctx, 1, pkt); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := b.Recv(ctx); err != nil {
		t.Fatalf("first recv: %v", err)
	}

	// Kill B. Sends from A now fail or vanish; drive a few to force the
	// broken connection to be detected and dropped.
	b.Close()
	for i := 0; i < 20; i++ {
		a.Send(ctx, 1, pkt)
		time.Sleep(10 * time.Millisecond)
	}

	// Restart B on the same address (retry the bind until the OS releases it).
	var b2 Transport
	for {
		b2, err = NewTCP(1, addrs)
		if err == nil {
			break
		}
		select {
		case <-ctx.Done():
			t.Fatalf("rebind: %v", err)
		case <-time.After(50 * time.Millisecond):
		}
	}
	defer b2.Close()

	// Keep sending (the reconnect backoff gates the dial rate) until B2
	// receives — proving the sender recovered without being recreated.
	got := make(chan struct{})
	go func() {
		for {
			p, err := b2.Recv(ctx)
			if err != nil {
				return
			}
			if p.Seq == 2 {
				close(got)
				return
			}
		}
	}()
	pkt.Seq = 2
	for {
		a.Send(ctx, 1, pkt)
		select {
		case <-got:
			return
		case <-ctx.Done():
			t.Fatal("sender never reconnected to the restarted member")
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestTCPOversizedFrameRefused: a control packet too large for the reader's
// frame cap is refused with ErrFrameTooLarge before anything is written, so
// the connection survives and the next small packet on the same pair is
// delivered.
func TestTCPOversizedFrameRefused(t *testing.T) {
	ts := newTCPNetwork(t, 2)
	defer closeAll(ts)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	small := func(seq uint64) Packet {
		return Packet{Kind: KindControl, Seq: seq, Ctrl: []byte(`{"type":"status"}`)}
	}
	for {
		err := ts[0].Send(ctx, 1, small(1))
		if err == nil {
			break
		}
		if !errors.Is(err, ErrPeerUnavailable) {
			t.Fatalf("send: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := ts[1].Recv(ctx); err != nil {
		t.Fatalf("first recv: %v", err)
	}

	big := Packet{Kind: KindControl, Ctrl: make([]byte, maxFrame)}
	if err := ts[0].Send(ctx, 1, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized send: %v, want ErrFrameTooLarge", err)
	}
	if err := ts[0].Send(ctx, 1, small(2)); err != nil {
		t.Fatalf("send after the refusal: %v", err)
	}
	pkt, err := ts[1].Recv(ctx)
	if err != nil || pkt.Seq != 2 {
		t.Fatalf("recv after the refusal: %+v, %v; want the packet with seq 2", pkt, err)
	}
}

// dialed sends pkt from a to member `to`, retrying while loopback TCP
// transiently refuses, so the connection exists when it returns.
func dialed(ctx context.Context, t *testing.T, a Transport, to int, pkt Packet) {
	t.Helper()
	for {
		err := a.Send(ctx, to, pkt)
		if err == nil {
			return
		}
		if !errors.Is(err, ErrPeerUnavailable) || ctx.Err() != nil {
			t.Fatalf("send: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPCloseFlushesQueued: Send only queues, so Close must let the writer
// write what was queued before it. dtmd's coordinator sends the workers their
// stop and closes its member at once; all K frames sent right before Close
// arrive. Behind a blocked write the queue is certain to be non-empty when
// Close begins, and every frame in it is still written; that half runs 16
// times, since the writer may see the close signal before the wake-up.
func TestTCPCloseFlushesQueued(t *testing.T) {
	ts := newTCPNetwork(t, 2)
	defer closeAll(ts)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const k = 1000
	wave := func(seq uint64) Packet {
		return Packet{Kind: KindWave, Seq: seq, Entries: make([]WaveEntry, 32)}
	}
	dialed(ctx, t, ts[0], 1, wave(1))
	for s := uint64(2); s <= k; s++ {
		if err := ts[0].Send(ctx, 1, wave(s)); err != nil {
			t.Fatalf("send %d: %v", s, err)
		}
	}
	ts[0].Close()
	for s := uint64(1); s <= k; s++ {
		pkt, err := ts[1].Recv(ctx)
		if err != nil || pkt.Seq != s {
			t.Fatalf("recv: seq %d, %v; want seq %d of the %d sent before Close", pkt.Seq, err, s, k)
		}
	}

	for round := 0; round < 16; round++ {
		tr, conn := gatedMember(t)
		want := sendGated(t, tr, conn, 10)
		closed := make(chan struct{})
		go func() {
			tr.Close()
			close(closed)
		}()
		<-tr.closed
		close(conn.release)
		<-closed
		if got := bytes.Join(conn.writes, nil); !bytes.Equal(got, want) {
			t.Fatalf("round %d: %d of %d bytes queued before Close were written", round, len(got), len(want))
		}
	}
}

// TestTCPCloseEndsInbound: Close ends the member's inbound side. Over 20
// rounds, 100 frames sent to a member after its Close are never read back
// from it, however long its readers had; and a raw client whose connection
// the member accepted before Close reads EOF after it.
func TestTCPCloseEndsInbound(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	ctrl := func(seq uint64) Packet { return Packet{Kind: KindControl, Seq: seq, Ctrl: []byte(`{}`)} }
	for round := 0; round < 20; round++ {
		ts := newTCPNetwork(t, 2)
		dialed(ctx, t, ts[0], 1, ctrl(0))
		if _, err := ts[1].Recv(ctx); err != nil {
			t.Fatalf("round %d: first recv: %v", round, err)
		}
		ts[1].Close()
		for s := uint64(1); s <= 100; s++ {
			ts[0].Send(ctx, 1, ctrl(s)) // queued, lost or refused: all are right
		}
		ts[0].Close() // writes what the sends queued
		for i := 0; i < 10; i++ {
			if pkt, err := ts[1].Recv(ctx); !errors.Is(err, ErrClosed) {
				t.Fatalf("round %d: Recv after Close: seq %d, %v; want ErrClosed", round, pkt.Seq, err)
			}
			time.Sleep(time.Millisecond)
		}
	}

	ts := newTCPNetwork(t, 1)
	defer closeAll(ts)
	conn, err := net.Dial("tcp", ts[0].(*tcpTransport).addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pkt := ctrl(1)
	if _, err := conn.Write(appendPacket(nil, &pkt)); err != nil {
		t.Fatal(err)
	}
	if _, err := ts[0].Recv(ctx); err != nil { // the member has accepted conn
		t.Fatalf("recv from the raw client: %v", err)
	}
	ts[0].Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("raw client read after Close: %d bytes, %v; want EOF", n, err)
	}
}

// TestTCPSendQueueIsBounded: a peer that accepts and never reads stalls the
// writer; Send keeps queueing until one largest frame's worth waits, then
// refuses with ErrPeerUnavailable, a lost datagram, instead of growing the
// queue without bound or blocking.
func TestTCPSendQueueIsBounded(t *testing.T) {
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mute, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	accepted := make(chan net.Conn, 1) // the one connection member 0 dials
	go func() {
		if conn, err := mute.Accept(); err == nil {
			accepted <- conn
		}
	}()
	a := NewTCPFromListener(0, ln0, map[int]string{0: ln0.Addr().String(), 1: mute.Addr().String()})
	defer a.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	big := Packet{Kind: KindControl, Ctrl: make([]byte, 1<<20)}
	dialed(ctx, t, a, 1, big)
	conn := <-accepted
	// Closing the unread socket resets the connection, so the stalled write
	// fails and a's deferred Close does not wait out its deadline.
	defer conn.Close()
	pc, _ := a.(*tcpTransport).peer(1)
	for sent := 1; ; sent++ {
		if sent > 200 {
			t.Fatalf("%d MiB queued for a peer that reads nothing, none refused", sent)
		}
		err := a.Send(ctx, 1, big)
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrPeerUnavailable) {
			t.Fatalf("send %d: %v, want ErrPeerUnavailable", sent, err)
		}
		pc.mu.Lock()
		queued := len(pc.pending)
		pc.mu.Unlock()
		if queued > 4+maxFrame {
			t.Fatalf("refused with %d bytes queued, want at most one largest frame, %d", queued, 4+maxFrame)
		}
		t.Logf("refused after %d MiB, %d bytes queued", sent, queued)
		return
	}
}

// gatedConn is a net.Conn whose first Write blocks until release is closed;
// it records every Write.
type gatedConn struct {
	net.Conn
	entered, release chan struct{}
	closed           chan struct{}
	closeOnce        sync.Once

	mu     sync.Mutex
	writes [][]byte
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	first := len(c.writes) == 0
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	if first {
		close(c.entered)
		<-c.release
	}
	return len(p), nil
}

func (c *gatedConn) Read([]byte) (int, error) {
	<-c.closed
	return 0, net.ErrClosed
}

func (c *gatedConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

func (c *gatedConn) SetWriteDeadline(time.Time) error { return nil }

// gatedMember is a TCP member whose connection to member 1 is a gatedConn.
func gatedMember(t *testing.T) (*tcpTransport, *gatedConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTCPFromListener(0, ln, map[int]string{0: ln.Addr().String(), 1: "127.0.0.1:1"}).(*tcpTransport)
	conn := &gatedConn{entered: make(chan struct{}), release: make(chan struct{}), closed: make(chan struct{})}
	pc, _ := tr.peer(1)
	pc.mu.Lock()
	tr.serve(pc, conn)
	pc.mu.Unlock()
	return tr, conn
}

// sendGated sends k wave frames to member 1, the last k−1 while the writer
// holds the first in its blocked Write, and returns their bytes in Send order.
func sendGated(t *testing.T, tr *tcpTransport, conn *gatedConn, k int) []byte {
	t.Helper()
	var want []byte
	for s := 1; s <= k; s++ {
		pkt := Packet{Kind: KindWave, FromPart: 2, ToPart: 3, Seq: uint64(s), Entries: []WaveEntry{{LinkID: int32(s), Wave: float64(s) / 3}}}
		if err := tr.Send(context.Background(), 1, pkt); err != nil {
			t.Fatalf("send %d: %v", s, err)
		}
		pkt.From = 0
		want = appendPacket(want, &pkt)
		if s == 1 {
			<-conn.entered
		}
	}
	return want
}

// TestTCPWriterCoalesces: the frames Send queues while the connection's one
// write is blocked leave together in the next Write, in Send order — so a
// burst costs at most two writes however long it is.
func TestTCPWriterCoalesces(t *testing.T) {
	const k = 50
	tr, conn := gatedMember(t)
	want := sendGated(t, tr, conn, k)
	close(conn.release)
	tr.Close()
	if len(conn.writes) > 2 {
		t.Errorf("%d frames left in %d writes, want at most 2", k, len(conn.writes))
	}
	if got := bytes.Join(conn.writes, nil); !bytes.Equal(got, want) {
		t.Errorf("the writes carry %d bytes that are not the %d frames in Send order (%d bytes)", len(got), k, len(want))
	}
}

// chunkReader hands out stream in reads of the sizes chunks cycles through
// (1 byte up to many frames each); the last read returns io.EOF with its
// bytes.
type chunkReader struct {
	stream, chunks []byte
	i              int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.stream) == 0 {
		return 0, io.EOF
	}
	n := len(r.stream)
	if len(r.chunks) > 0 {
		n = 1 + 7*int(r.chunks[r.i%len(r.chunks)])
		r.i++
	}
	n = min(n, len(p), len(r.stream))
	copy(p, r.stream[:n])
	r.stream = r.stream[n:]
	if len(r.stream) == 0 {
		return n, io.EOF
	}
	return n, nil
}

// FuzzFrameStream: any concatenation of valid frames, cut into any reads,
// decodes through one frameReader to the packets each frame decodes to on
// its own, then io.EOF; a length prefix above maxFrame after them ends the
// stream with an error, the buffer never larger than the initial one or the
// largest frame.
func FuzzFrameStream(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0}, []byte{0}, false)
	f.Add(bytes.Repeat([]byte{0x81, 200, 9}, 40), []byte{}, true)
	f.Add(bytes.Repeat([]byte{0x0f}, 300), []byte{3, 0, 90, 255}, true)
	// Reads of 337 bytes cut a frame at an odd offset where the buffer
	// compacts.
	f.Add([]byte("0000000000000000000000000000\x0f000000000000000000000\x0f000000000000000000000\x0f000000000000000000000\x0f0"), []byte("0"), true)
	f.Fuzz(func(t *testing.T, data, chunks []byte, hostile bool) {
		// data spells the packets: a header byte (kind, entry count, ctrl
		// length) and the entries' and control bytes after it.
		var pkts []Packet
		for len(data) > 0 {
			h := data[0]
			data = data[1:]
			pkt := Packet{Kind: Kind(h & 1), From: int32(h), Seq: uint64(len(pkts)) << 40, Epoch: uint32(h) << 20}
			for e := 0; e < int(h>>1&7) && len(data) >= 3; e++ {
				bits := uint64(data[0])<<56 | uint64(data[1])<<8 | uint64(data[2])
				pkt.Entries = append(pkt.Entries, WaveEntry{LinkID: int32(data[2]) - 128, Wave: math.Float64frombits(bits)})
				data = data[3:]
			}
			cl := min(int(h>>4)*9, len(data))
			if cl > 0 {
				pkt.Ctrl, data = data[:cl], data[cl:]
			}
			pkts = append(pkts, pkt)
		}
		var stream []byte
		largest := 0
		for i := range pkts {
			frame := appendPacket(nil, &pkts[i])
			largest = max(largest, len(frame))
			stream = append(stream, frame...)
		}
		if hostile {
			stream = binary.LittleEndian.AppendUint32(stream, maxFrame+1+uint32(len(chunks)))
			stream = append(stream, frameVersion, 0, 0, 0)
		}
		fr := frameReader{r: &chunkReader{stream: stream, chunks: chunks}}
		for i := range pkts {
			frame := appendPacket(nil, &pkts[i])
			want, err := decodePacket(frame[4:])
			if err != nil {
				t.Fatalf("packet %d does not decode on its own: %v", i, err)
			}
			got, err := fr.next()
			if err != nil {
				t.Fatalf("packet %d of %d: %v", i, len(pkts), err)
			}
			if !bytes.Equal(appendPacket(nil, &got), appendPacket(nil, &want)) {
				t.Fatalf("packet %d: stream decodes %+v, the frame alone %+v", i, got, want)
			}
		}
		_, err := fr.next()
		if hostile == errors.Is(err, io.EOF) || err == nil {
			t.Fatalf("after the %d frames (hostile prefix %v): %v", len(pkts), hostile, err)
		}
		if len(fr.buf) > max(frameReadBuffer, largest) {
			t.Fatalf("buffer grew to %d bytes, the largest frame is %d", len(fr.buf), largest)
		}
	})
}

// TestFrameRoundTrip pins the wire format: encode→decode is the identity,
// including NaN waves, empty entry lists and control payloads.
func TestFrameRoundTrip(t *testing.T) {
	pkts := []Packet{
		{Kind: KindWave, From: 3, FromPart: 1, ToPart: 2, Seq: 9,
			Entries: []WaveEntry{{LinkID: 0, Wave: -1.5}, {LinkID: 2147483647, Wave: math.NaN()}}},
		{Kind: KindControl, From: 0, Ctrl: []byte(`{"type":"assign"}`)},
		{Kind: KindWave, From: 1, FromPart: 5, ToPart: 6, Seq: 1 << 60},
	}
	for i, want := range pkts {
		buf := appendPacket(nil, &want)
		got, err := decodePacket(buf[4:])
		if err != nil {
			t.Fatalf("packet %d: decode: %v", i, err)
		}
		if got.Kind != want.Kind || got.From != want.From || got.FromPart != want.FromPart ||
			got.ToPart != want.ToPart || got.Seq != want.Seq ||
			len(got.Entries) != len(want.Entries) || string(got.Ctrl) != string(want.Ctrl) {
			t.Fatalf("packet %d: round trip %+v != %+v", i, got, want)
		}
		for j := range want.Entries {
			if got.Entries[j].LinkID != want.Entries[j].LinkID ||
				math.Float64bits(got.Entries[j].Wave) != math.Float64bits(want.Entries[j].Wave) {
				t.Fatalf("packet %d entry %d: %+v != %+v", i, j, got.Entries[j], want.Entries[j])
			}
		}
	}
	// A hostile length prefix must be rejected, not allocated.
	fr := frameReader{r: hugeFrameReader{}}
	if _, err := fr.next(); err == nil || len(fr.buf) > frameReadBuffer {
		t.Fatalf("oversized frame: %v with a %d-byte buffer, want an error and no growth", err, len(fr.buf))
	}
}

// TestFrameEpochIncRoundTrip pins the failover wire fields: a wave's epoch
// and incarnation survive encode→decode bit-exactly.
func TestFrameEpochIncRoundTrip(t *testing.T) {
	want := Packet{Kind: KindWave, From: 2, FromPart: 4, ToPart: 7, Seq: 33,
		Epoch: 5, Inc: 3,
		Entries: []WaveEntry{{LinkID: 11, Wave: 0.25}}}
	buf := appendPacket(nil, &want)
	got, err := decodePacket(buf[4:])
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Epoch != want.Epoch || got.Inc != want.Inc {
		t.Fatalf("epoch/inc round trip: got (%d, %d), want (%d, %d)",
			got.Epoch, got.Inc, want.Epoch, want.Inc)
	}
}

// TestFrameVersionMismatchRejected: the layout has no self-describing
// structure, so a peer built against a different frame layout must fail
// fast with an explicit version error on its first frame — not misparse
// epoch bits as an entry count and drown in truncation errors.
func TestFrameVersionMismatchRejected(t *testing.T) {
	buf := appendPacket(nil, &Packet{Kind: KindWave, FromPart: 0, ToPart: 1, Seq: 1,
		Entries: []WaveEntry{{LinkID: 2, Wave: 0.5}}})
	if buf[4] != frameVersion {
		t.Fatalf("encoded version byte = %d, want %d", buf[4], frameVersion)
	}
	payload := append([]byte(nil), buf[4:]...)
	payload[0] = frameVersion + 1
	if _, err := decodePacket(payload); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future-version frame not rejected with a version error: %v", err)
	}
	// A v1-era frame led with the kind byte (0 or 1) where the version now
	// lives; it must be identified as a version mismatch, not misparsed.
	payload[0] = 0
	if _, err := decodePacket(payload); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("pre-version frame not rejected with a version error: %v", err)
	}
	if _, err := decodePacket(nil); err == nil {
		t.Fatal("empty frame accepted")
	}
}

type hugeFrameReader struct{}

func (hugeFrameReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0xff
	}
	return len(p), nil
}

// TestWithFaultsDropsAndDuplicates wraps the chan fabric with a seeded chaos
// spec and checks the decorator injects: with drop=0.5 a long burst loses
// packets; with dup=0.5 the deduplicator sees duplicates arrive.
func TestWithFaultsDropsAndDuplicates(t *testing.T) {
	spec, err := chaos.ParseSpec("drop=0.5,dup=0.3,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	ts := NewChanNetwork(2)
	faulty := WithFaults(ts[0], spec, 2)
	defer faulty.Close()
	defer ts[1].Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const burst = 400
	for s := 1; s <= burst; s++ {
		pkt := Packet{Kind: KindWave, FromPart: 0, ToPart: 1, Seq: uint64(s),
			Entries: []WaveEntry{{LinkID: 1, Wave: float64(s)}}}
		if err := faulty.Send(ctx, 1, pkt); err != nil {
			t.Fatalf("send %d: %v", s, err)
		}
	}
	st := faulty.(*faultTransport).c.Stats()
	if st.Dropped == 0 || st.Duplicated == 0 {
		t.Fatalf("fault decorator injected nothing: %+v", st)
	}

	// Collect what actually arrived: every copy was sent inside Send. One
	// pair, so last-writer-wins keeps the newest sequence number.
	var newest uint64
	delivered, fresh := 0, 0
	for {
		drainCtx, dcancel := context.WithTimeout(ctx, 200*time.Millisecond)
		pkt, err := ts[1].Recv(drainCtx)
		dcancel()
		if err != nil {
			break
		}
		delivered++
		if pkt.Seq > newest {
			newest = pkt.Seq
			fresh++
		}
	}
	if delivered == 0 {
		t.Fatal("nothing delivered through the fault decorator")
	}
	if delivered >= burst+int(st.Duplicated) {
		t.Fatalf("delivered %d of %d sends + %d dups — nothing dropped?", delivered, burst, st.Duplicated)
	}
	if fresh > burst {
		t.Fatalf("dedup admitted %d fresh > %d sent", fresh, burst)
	}
	t.Logf("burst=%d delivered=%d fresh=%d stats=%+v", burst, delivered, fresh, st)
}

// TestWithFaultsRefusesTimedFaults: jitter, down or slow windows and crashes
// need a clock the decorator does not read, so a spec carrying any of them is
// refused instead of being applied as drop and dup alone.
func TestWithFaultsRefusesTimedFaults(t *testing.T) {
	for _, s := range []string{"drop=0.1,jitter=0.5", "down=0>1@0:10", "slow=0>1@0:10x4", "crash=1@10+5"} {
		spec, err := chaos.ParseSpec(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WithFaults accepted %q", s)
				}
			}()
			WithFaults(NewChanNetwork(2)[0], spec, 2)
		}()
	}
}

// TestFaultClock pins the decorator's two forms. Clocked: each wave arrives no
// earlier than scale × its link's delay, a down=0>1 window drops the part
// 0 → 1 waves and only those whichever member sends them, and control packets
// pass at once and intact. Clockless (WithFaults): the k-th wave send to a
// member gets the copies of the k-th Fate call keyed on the two members, at
// time 0 with delay 1, and every copy is in the inbox when Send returns.
func TestFaultClock(t *testing.T) {
	ctx := context.Background()
	recvNow := func(tr Transport) (Packet, bool) {
		done, cancel := context.WithCancel(ctx)
		cancel()
		pkt, err := tr.Recv(done)
		return pkt, err == nil
	}
	wave := func(from, to int32, seq uint64) Packet {
		return Packet{Kind: KindWave, FromPart: from, ToPart: to, Seq: seq, Entries: []WaveEntry{{LinkID: 3, Wave: float64(seq)}}}
	}

	t.Run("delay", func(t *testing.T) {
		const scale = 200 * time.Microsecond
		delay := func(from, to int) float64 { return 5 + float64(from) }
		spec, err := chaos.ParseSpec("seed=3,jitter=0.5,dup=0.2")
		if err != nil {
			t.Fatal(err)
		}
		ts := NewChanNetwork(2)
		defer closeAll(ts)
		clock := NewFaultClock(spec, 2, delay, scale)
		a, b := clock.Wrap(ts[0]), clock.Wrap(ts[1])
		type dir struct {
			src, dst Transport
			from, to int32
		}
		sent := map[[2]uint64]time.Time{} // (from part, seq) → before its Send
		for seq := uint64(1); seq <= 20; seq++ {
			for _, d := range []dir{{a, b, 0, 1}, {b, a, 1, 0}} {
				sent[[2]uint64{uint64(d.from), seq}] = time.Now()
				if err := d.src.Send(ctx, d.dst.Self(), wave(d.from, d.to, seq)); err != nil {
					t.Fatal(err)
				}
				// Take copies until this send's: a late duplicate of an earlier
				// one may come first, and is held to its own send time.
				for {
					rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
					pkt, err := d.dst.Recv(rctx)
					cancel()
					if err != nil {
						t.Fatalf("%d>%d seq %d: %v", d.from, d.to, seq, err)
					}
					hold := time.Duration(delay(int(pkt.FromPart), int(pkt.ToPart)) * float64(scale))
					if got := time.Since(sent[[2]uint64{uint64(pkt.FromPart), pkt.Seq}]); got < hold {
						t.Fatalf("%d>%d seq %d arrived after %v, want no earlier than %v", pkt.FromPart, pkt.ToPart, pkt.Seq, got, hold)
					}
					if pkt.Seq == seq {
						break
					}
				}
			}
		}
		if clock.Stats().Duplicated == 0 {
			t.Errorf("dup=0.2 over 40 sends duplicated nothing")
		}
	})

	t.Run("window", func(t *testing.T) {
		spec, err := chaos.ParseSpec("down=0>1@0:1e9")
		if err != nil {
			t.Fatal(err)
		}
		ts := NewChanNetwork(2)
		defer closeAll(ts)
		clock := NewFaultClock(spec, 3, func(int, int) float64 { return 0 }, time.Millisecond)
		a := clock.Wrap(ts[0])
		// Member 0 speaks for parts 0 and 2; only the 0 → 1 pair is down.
		pairs := [][2]int32{{0, 1}, {2, 1}, {1, 0}, {0, 2}}
		for seq := uint64(1); seq <= 10; seq++ {
			for _, p := range pairs {
				if err := a.Send(ctx, 1, wave(p[0], p[1], seq)); err != nil {
					t.Fatal(err)
				}
			}
		}
		// 40 sends, 10 of them 0 → 1: exactly 30 copies leave, all of them
		// from open pairs.
		for i := 0; i < 30; i++ {
			rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			pkt, err := ts[1].Recv(rctx)
			cancel()
			if err != nil {
				t.Fatalf("arrival %d: %v", i, err)
			}
			if pkt.FromPart == 0 && pkt.ToPart == 1 {
				t.Fatalf("a 0>1 wave (seq %d) got through the down window", pkt.Seq)
			}
		}
		if d := clock.Stats().Dropped; d != 10 {
			t.Errorf("down=0>1: %d dropped, want the 10 sends on that pair", d)
		}

		// Control traffic is out of the model: it passes at once, intact,
		// through a window that takes every wave down.
		spec, err = chaos.ParseSpec("down=*@0:1e9")
		if err != nil {
			t.Fatal(err)
		}
		c := NewFaultClock(spec, 3, func(int, int) float64 { return 1e6 }, time.Hour).Wrap(ts[0])
		if err := c.Send(ctx, 1, Packet{Kind: KindControl, Ctrl: []byte(`{"type":"stop"}`)}); err != nil {
			t.Fatal(err)
		}
		if pkt, ok := recvNow(ts[1]); !ok || pkt.Kind != KindControl || string(pkt.Ctrl) != `{"type":"stop"}` {
			t.Errorf("control packet: got %+v, %v", pkt, ok)
		}
	})

	t.Run("clockless", func(t *testing.T) {
		spec, err := chaos.ParseSpec("drop=0.3,dup=0.3,seed=11")
		if err != nil {
			t.Fatal(err)
		}
		ts := NewChanNetwork(3)
		defer closeAll(ts)
		faulty := WithFaults(ts[2], spec, 3)
		ref := chaos.NewController(spec, 3)
		for seq := uint64(1); seq <= 200; seq++ {
			to := int(seq % 2)
			// The parts are not the members: the clockless form keys on the
			// members.
			if err := faulty.Send(ctx, to, wave(7, 9, seq)); err != nil {
				t.Fatal(err)
			}
			copies := 0
			for {
				if _, ok := recvNow(ts[to]); !ok {
					break
				}
				copies++
			}
			if want := len(ref.Fate(2, to, 0, 1)); copies != want {
				t.Fatalf("send %d to member %d: %d copies, want %d", seq, to, copies, want)
			}
		}
	})
}

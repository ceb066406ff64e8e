package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/transport"
)

// tcpFabric opens n loopback TCP members on OS-chosen ports.
func tcpFabric(n int) ([]transport.Transport, error) {
	lns := make([]net.Listener, n)
	addrs := make(map[int]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, open := range lns[:i] {
				open.Close()
			}
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	members := make([]transport.Transport, n)
	for i := range members {
		members[i] = transport.NewTCPFromListener(i, lns[i], addrs)
	}
	return members, nil
}

// wireCounters is what the traced pass counts at the Transport boundary of
// every member of one session.
type wireCounters struct {
	mu                                             sync.Mutex
	waveFrames, waveEntries, ctrlFrames, ctrlBytes int64
	sendBusy                                       time.Duration
	// last holds the entries of the latest wave per directed part pair;
	// lastChange is when a wave last differed from its predecessor — the
	// moment the computation had in fact converged.
	last       map[[2]int32][]transport.WaveEntry
	lastChange time.Time
}

// countingTransport decorates a member's Transport with wireCounters.
type countingTransport struct {
	transport.Transport
	c *wireCounters
}

func (t countingTransport) Send(ctx context.Context, to int, pkt transport.Packet) error {
	start := time.Now()
	err := t.Transport.Send(ctx, to, pkt)
	busy := time.Since(start)
	c := t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sendBusy += busy
	if pkt.Kind == transport.KindControl {
		c.ctrlFrames++
		c.ctrlBytes += int64(len(pkt.Ctrl))
		return err
	}
	c.waveFrames++
	c.waveEntries += int64(len(pkt.Entries))
	pair := [2]int32{pkt.FromPart, pkt.ToPart}
	prev := c.last[pair]
	same := len(prev) == len(pkt.Entries)
	for i := 0; same && i < len(prev); i++ {
		same = prev[i] == pkt.Entries[i]
	}
	if !same {
		c.last[pair] = append(prev[:0], pkt.Entries...)
		c.lastChange = start
	}
	return err
}

// runDist is one rep on the dist engine, a fresh session: fabric up → workers
// started → dist.Coordinate returns.
func (l *lane) runDist(tr *tracer) sample {
	p, in := l.p, l.in
	tr.nextRep()
	spec := dist.SpecV2{V: 2, Source: p.source, PartsX: p.px, PartsY: p.py, NParts: p.nparts, Topology: p.topology}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	m := startMeter()
	root := tr.begin("session", -1)
	id := tr.begin("transport.fabric_up", root)
	members, err := tcpFabric(distWorkers + 1)
	if err != nil {
		return failed(err)
	}
	tr.end(id)
	var wire *wireCounters
	if tr != nil {
		wire = &wireCounters{last: map[[2]int32][]transport.WaveEntry{}}
		for i, mem := range members {
			members[i] = countingTransport{mem, wire}
		}
	}

	id = tr.begin("dist.workers_start", root)
	var wg sync.WaitGroup
	ids := make([]int, distWorkers)
	for i := range ids {
		ids[i] = i + 1
		worker := dist.NewWorker(members[i+1])
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = worker.Run(ctx) // a worker's failure surfaces as Coordinate's error
		}()
	}
	tr.end(id)

	var firstPoll time.Time
	coordStart := time.Now()
	res, err := dist.Coordinate(ctx, members[0], dist.CoordConfig{
		Spec: spec, Workers: ids, Tol: p.tol,
		// Default CoordConfig but for the lease: the default 150 ms expires a
		// live worker whenever the host stalls the process that long, which a
		// shared host does about once in 400 sessions, and the session then
		// fails with "worker lost". 10 s is a stall no host has shown.
		LeaseBeats: 400,
		// And for the poll interval: with the default 10 ms a session's length
		// falls on a few values 10 ms apart (two stable polls after a
		// convergence that takes ≈ 15 ms), and a quantile of such a
		// distribution jumps between them from run to run.
		PollInterval: 2 * time.Millisecond,
		OnPoll: func(poll int) {
			if poll == 0 {
				firstPoll = time.Now()
			}
		},
	})
	end, mt := m.stop()

	// Teardown, untimed: cancelling ends every worker's Run.
	cancel()
	wg.Wait()
	for _, mem := range members {
		mem.Close()
	}
	if err != nil {
		return failed(err)
	}
	if err := in.check(res.X, res.Converged); err != nil {
		return failed(err)
	}

	mt["setup_s"] = firstPoll.Sub(m.t0).Seconds()
	mt["iterate_s"] = mt["tts_s"] - mt["setup_s"]
	if tr == nil {
		return sample{metrics: mt}
	}

	coord := tr.add("dist.coordinate", root, coordStart, end)
	tr.add("dist.setup", coord, coordStart, firstPoll)
	lastChange := wire.lastChange
	if lastChange.Before(firstPoll) {
		lastChange = firstPoll
	}
	tr.add("dist.iterate", coord, firstPoll, lastChange)
	tr.add("dist.tail", coord, lastChange, end)
	tr.endAt(root, end)

	mt["sparse.unknowns"] = float64(in.a.Rows())
	mt["sparse.nnz"] = float64(in.a.NNZ())
	mt["dist.first_poll_s"] = mt["setup_s"]
	mt["dist.tail_s"] = end.Sub(lastChange).Seconds()
	mt["dist.polls"] = float64(res.Polls)
	mt["dist.solves"] = float64(res.Solves)
	mt["dist.messages"] = float64(res.Messages)
	mt["transport.wave_frames"] = float64(wire.waveFrames)
	mt["transport.wave_entries"] = float64(wire.waveEntries)
	mt["transport.ctrl_frames"] = float64(wire.ctrlFrames)
	mt["transport.ctrl_bytes"] = float64(wire.ctrlBytes)
	mt["transport.send_busy_s"] = wire.sendBusy.Seconds()
	mt["dist.ctrl_bytes_per_poll"] = float64(wire.ctrlBytes) / float64(max(res.Polls, 1))

	t := time.Now()
	if _, err := spec.Build(); err != nil {
		return failed(err)
	}
	mt["dist.spec_build_s"] = time.Since(t).Seconds()

	rtt, rate, err := tcpMicro(20000)
	if err != nil {
		return failed(err)
	}
	mt["transport.tcp_roundtrip_us"] = rtt * 1e6
	mt["transport.tcp_frames_per_s"] = rate
	return sample{metrics: mt}
}

// tcpMicro measures the transport alone on a two-member loopback fabric with
// 32-entry wave packets: the median round trip of frames/40 ping-pongs, then
// the rate at which `frames` one-way frames arrive. The fabric may drop when
// its inbox is full, so the rate counts what arrived.
func tcpMicro(frames int) (roundTrip, framesPerSecond float64, err error) {
	members, err := tcpFabric(2)
	if err != nil {
		return 0, 0, err
	}
	defer members[0].Close()
	defer members[1].Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	pkt := transport.Packet{Kind: transport.KindWave, Entries: make([]transport.WaveEntry, 32)}

	echoErr := make(chan error, 1) // one send from the echo goroutine
	pings := frames / 40
	go func() {
		for i := 0; i < pings; i++ {
			p, err := members[1].Recv(ctx)
			if err == nil {
				err = members[1].Send(ctx, 0, p)
			}
			if err != nil {
				echoErr <- err
				return
			}
		}
		echoErr <- nil
	}()
	rtts := make([]float64, 0, pings)
	for i := 0; i < pings; i++ {
		t := time.Now()
		if err := members[0].Send(ctx, 1, pkt); err != nil {
			return 0, 0, err
		}
		if _, err := members[0].Recv(ctx); err != nil {
			return 0, 0, fmt.Errorf("tcp round trip %d: %w", i, err)
		}
		rtts = append(rtts, time.Since(t).Seconds())
	}
	if err := <-echoErr; err != nil {
		return 0, 0, err
	}

	type arrival struct {
		n    int
		last time.Time
	}
	done := make(chan arrival, 1) // one send from the receiver goroutine
	go func() {
		var a arrival
		for a.n < frames {
			// An idle 200 ms means the rest was dropped on a full inbox.
			rctx, stop := context.WithTimeout(ctx, 200*time.Millisecond)
			_, err := members[1].Recv(rctx)
			stop()
			if err != nil {
				break
			}
			a.n++
			a.last = time.Now()
		}
		done <- a
	}()
	start := time.Now()
	for i := 0; i < frames; i++ {
		if err := members[0].Send(ctx, 1, pkt); err != nil {
			return 0, 0, err
		}
	}
	a := <-done
	if a.n == 0 {
		return 0, 0, fmt.Errorf("tcp stream: no frame arrived")
	}
	return statOf(rtts).Median, float64(a.n) / a.last.Sub(start).Seconds(), nil
}

package dist

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

// FuzzCtrlMsg throws arbitrary bytes at the worker's state, idle and in a
// session, each time through Handle and the Tick Run runs after it. The
// invariants under fuzz: the state NEVER panics, a frame that does not decode
// is dropped, and it neither starts nor ends a session
// nor moves the epoch fence; nor does a quiet notice, which is
// coordinator-bound and which a worker drops unanswered. The seed corpus under
// testdata/fuzz/FuzzCtrlMsg pins the interesting shapes: valid messages of
// every type, a status? for an idle worker, a rejoin reassign, a quiet
// notice, truncated JSON, a reassign with a mismatched owner map, and binary
// garbage.
func FuzzCtrlMsg(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{"type":"start"}`),
		[]byte(`{"type":"status?"}`),
		[]byte(`{"type":"stop"}`),
		[]byte(`{"type":"assign","assign":{"spec":{"rows":17,"cols":17,"seed":3,"partsX":2,"partsY":2},"owner":[1,1,1,1],"tol":1e-9,"sendThreshold":1e-11,"watchdogMS":1000,"heartbeatMS":1000,"epoch":1}}`),
		[]byte(`{"type":"reassign","reassign":{"epoch":9,"assign":{"owner":[1]}}}`),
		[]byte(`{"type":"reassign"}`),
		[]byte(`{"type":"hb","hb":{"inc":2,"epoch":3}}`),
		[]byte(`{"type":"quiet","quiet":true}`),
		[]byte(`{"type":"st`),
		[]byte(``),
		{0xff, 0x00, 0x9e, 0x37, 0x79, 0xb9},
	}
	for _, s := range seeds {
		f.Add(s)
	}

	// The in-session state lives across inputs until one ends its session.
	// The fabric's member 0 plays the coordinator; both members are drained
	// after each input, so replies and waves never pile up.
	net := transport.NewChanNetwork(2)
	a := &assignMsg{Spec: quickSpec, Owner: []int{1, 1, 1, 1}, Ordering: "auto",
		SendThreshold: 1e-11, WatchdogMS: 1000, HeartbeatMS: 1000, Epoch: 1}
	drainCtx, cancelDrain := context.WithCancel(context.Background())
	cancelDrain() // a done ctx takes only what is queued
	var mu sync.Mutex
	var sess *workerState

	f.Fuzz(func(t *testing.T, data []byte) {
		mu.Lock()
		defer mu.Unlock()
		if sess == nil || sess.shard == nil {
			sess = stepSession(t, net[1], 1, 0, a)
		}
		for _, s := range []*workerState{stepState(net[1], 1), sess} {
			pkt := transport.Packet{Kind: transport.KindControl, From: 0, Ctrl: data}
			idle, epoch := s.shard == nil, uint32(0)
			if !idle {
				epoch = s.shard.Epoch()
			}
			m, derr := decodeCtrl(&pkt)
			started := s.started
			outs, exit := s.Handle(&pkt)
			quiet := derr == nil && m.Type == msgQuiet
			if quiet && (len(outs) > 0 || exit || s.started != started || s.pending != nil) {
				t.Fatalf("a worker acted on a quiet notice: sent %d, exit %v, started %v -> %v", len(outs), exit, started, s.started)
			}
			s.Tick(time.Unix(1000, 0), true)
			if (derr != nil || quiet) && (idle != (s.shard == nil) || !idle && s.shard.Epoch() != epoch) {
				t.Fatalf("corrupt ctrl or a quiet notice moved the session: idle %v -> %v, epoch %d", idle, s.shard == nil, epoch)
			}
		}
		for _, m := range net {
			for {
				if _, err := m.Recv(drainCtx); err != nil {
					break
				}
			}
		}
	})
}

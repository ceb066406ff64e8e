package dist

import (
	"context"
	"sync"
	"testing"

	"repro/internal/transport"
)

// FuzzCtrlMsg throws arbitrary bytes at the worker's control-plane decode and
// dispatch path. The invariants under fuzz: the session NEVER panics, corrupt
// frames are dropped and counted (badCtrl), and a malformed reassign never
// advances the epoch fence. The seed corpus under testdata/fuzz/FuzzCtrlMsg
// pins the interesting shapes: valid messages of every type, truncated JSON,
// a reassign with a mismatched owner map, and binary garbage.
func FuzzCtrlMsg(f *testing.F) {
	seeds := [][]byte{
		[]byte(`{"type":"start"}`),
		[]byte(`{"type":"status?"}`),
		[]byte(`{"type":"stop"}`),
		[]byte(`{"type":"assign","assign":{"spec":{"rows":17,"cols":17,"seed":3,"partsX":2,"partsY":2},"owner":[1,1,1,1],"tol":1e-9,"sendThreshold":1e-11,"watchdogMS":1000,"heartbeatMS":1000,"epoch":1}}`),
		[]byte(`{"type":"reassign","reassign":{"epoch":9,"assign":{"owner":[1]}}}`),
		[]byte(`{"type":"reassign"}`),
		[]byte(`{"type":"hb","hb":{"inc":2,"epoch":3}}`),
		[]byte(`{"type":"st`),
		[]byte(``),
		{0xff, 0x00, 0x9e, 0x37, 0x79, 0xb9},
	}
	for _, s := range seeds {
		f.Add(s)
	}

	// One long-lived session absorbs every input; the fabric's member 0 plays
	// the coordinator and is drained after each round so replies never pile up.
	net := transport.NewChanNetwork(2)
	w := NewWorker(net[1])
	sess, err := w.newSession(context.Background(), 0, &assignMsg{
		Spec: quickSpec, Owner: []int{1, 1, 1, 1}, Tol: 1e-9,
		SendThreshold: 1e-11, WatchdogMS: 1000, HeartbeatMS: 1000, Epoch: 1,
	}, nil)
	if err != nil {
		f.Fatalf("session: %v", err)
	}
	drainCtx, cancelDrain := context.WithCancel(context.Background())
	cancelDrain() // cancelled ctx == non-blocking drain on the chan fabric
	var mu sync.Mutex

	f.Fuzz(func(t *testing.T, data []byte) {
		mu.Lock()
		defer mu.Unlock()
		pkt := transport.Packet{Kind: transport.KindControl, From: 0, Ctrl: data}
		before := w.badCtrl.Load()
		epochBefore := sess.shard.Epoch()
		_, derr := decodeCtrl(&pkt)
		if _, herr := sess.handle(&pkt); herr != nil && herr != transport.ErrClosed {
			t.Fatalf("handle returned unexpected error: %v", herr)
		}
		if derr != nil && w.badCtrl.Load() != before+1 {
			t.Fatalf("corrupt ctrl not counted: BadCtrl %d -> %d", before, w.badCtrl.Load())
		}
		if derr != nil && sess.shard.Epoch() != epochBefore {
			t.Fatalf("corrupt ctrl advanced epoch %d -> %d", epochBefore, sess.shard.Epoch())
		}
		for {
			if _, err := net[0].Recv(drainCtx); err != nil {
				break
			}
		}
		for {
			if _, err := net[1].Recv(drainCtx); err != nil {
				break
			}
		}
	})
}

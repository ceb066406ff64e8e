package dist

import (
	"context"
	"reflect"
	"runtime"
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
// notice, a truncated frame, a reassign with a mismatched owner map, and
// binary garbage.
//
// Each input's allocation is bounded like FuzzCtrlCodec's: five bytes per
// byte of the frame past the message's fixed-size structs, plus slack for
// the replies (16 KiB) and, in the session, for adopting every part of its
// 289-unknown problem again (1 MiB; ≈ 0.75 MB when a reassign hands back all
// four parts an earlier input gave away). Tearing a new problem is sized by
// the spec's source, which sparse caps, not by the frame: for an idle state
// that takes the frame as a session to build, only Handle is counted.
func FuzzCtrlMsg(f *testing.F) {
	unknown := encodeCtrl(&ctrlMsg{Type: msgHeartbeat, HB: &heartbeatMsg{Inc: 2, Epoch: 3}})
	unknown[0] = byte(len(msgTypes)) // a type no worker knows, with a heartbeat inside
	seeds := [][]byte{
		encodeCtrl(&ctrlMsg{Type: msgStart}),
		encodeCtrl(&ctrlMsg{Type: msgStatusRq}),
		encodeCtrl(&ctrlMsg{Type: msgStop}),
		encodeCtrl(&ctrlMsg{Type: msgAssign, Assign: &assignMsg{Spec: SpecV2{PartsX: 2, PartsY: 2}, Owner: []int{1, 1, 1, 1},
			SendThreshold: 1e-11, WatchdogMS: 1000, HeartbeatMS: 1000, Epoch: 1}}),
		encodeCtrl(&ctrlMsg{Type: msgReassign, Reassign: &reassignMsg{Epoch: 9, Assign: assignMsg{Owner: []int{1}}}}),
		encodeCtrl(&ctrlMsg{Type: msgReassign}),
		unknown,
		encodeCtrl(&ctrlMsg{Type: msgQuiet, Quiet: true}),
		encodeCtrl(&ctrlMsg{Type: msgStatus, Round: 7})[:5],
		{},
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
	var fixed uint64
	for _, v := range []any{ctrlMsg{}, assignMsg{}, readyMsg{}, statusMsg{}, resultMsg{}, heartbeatMsg{}, reassignMsg{}} {
		fixed += uint64(reflect.TypeOf(v).Size())
	}

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
			before := totalAlloc()
			outs, exit := s.Handle(&pkt)
			builds := idle && s.pending != nil
			used := totalAlloc() - before
			quiet := derr == nil && m.Type == msgQuiet
			if quiet && (len(outs) > 0 || exit || s.started != started || s.pending != nil) {
				t.Fatalf("a worker acted on a quiet notice: sent %d, exit %v, started %v -> %v", len(outs), exit, started, s.started)
			}
			s.Tick(time.Unix(1000, 0), true)
			if !builds {
				used = totalAlloc() - before
			}
			slack := uint64(16 << 10)
			if !idle {
				slack = 1 << 20
			}
			if limit := 5*uint64(len(data)) + fixed + slack; used > limit {
				t.Fatalf("a %d-byte frame made the %s state allocate %d bytes, over the %d it allows", len(data), map[bool]string{true: "idle", false: "session"}[idle], used, limit)
			}
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

// totalAlloc is the bytes the process has allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

package dist

import (
	"context"
	"errors"
	"slices"
	"time"

	"repro/internal/transport"
)

// Worker owns a group of subdomains in a distributed run: it factorises them
// once on assignment, then reacts to whatever waves arrive — solve, announce,
// repeat — with no synchronisation, exactly the per-processor loop of
// Table 1 in the paper. That loop and its reliability protocol are a
// core.Shard, the control plane around it a workerState; Run drives both from
// the transport and the clock.
//
// Failover: an in-session worker heartbeats its incarnation, epoch and
// per-part boundary snapshots to the coordinator;
// when a peer dies the coordinator broadcasts a fenced reassign and the
// worker adopts its share of the orphaned parts, re-tearing them from the
// spec and seeding them from the last-known-good snapshot. An idle worker
// answers polls with hello so a restarted process (higher Incarnation) is
// handed parts back on the next epoch.
type Worker struct {
	tr transport.Transport
	// Logf, when non-nil, receives progress lines (the dtmd binary wires it
	// to its logger; tests leave it nil).
	Logf func(format string, args ...any)
	// Incarnation distinguishes successive lives of one member id. A
	// restarted dtmd process must register with a strictly higher
	// incarnation than its previous life, or its beats are fenced as zombie
	// traffic. Defaults to 1.
	Incarnation uint32
}

// NewWorker wraps a transport member into a worker (incarnation 1).
func NewWorker(tr transport.Transport) *Worker { return &Worker{tr: tr, Incarnation: 1} }

// members is the membership of tr, ascending.
func members(tr transport.Transport) []int {
	return slices.Sorted(slices.Values(append([]int{tr.Self()}, tr.Peers()...)))
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Run serves solve sessions until the context is cancelled, the transport
// closes, or a shutdown message arrives. Each session is one
// assign→ready→start→solve→stop→result cycle; the worker outlives sessions,
// and every session tears the spec and factorises its owned parts afresh. A
// reassign addressed to an idle worker (the rejoin path) starts a mid-solve
// session directly.
//
// Run is the worker's one loop and the only code of the worker that reads
// the clock or receives: tick the state, send what it returns, take a packet
// and hand it to the state. It waits for one only when the inbox was empty
// and the last tick solved nothing, and then until the state's deadline.
func (w *Worker) Run(ctx context.Context) error {
	s := &workerState{self: w.tr.Self(), inc: w.Incarnation, fleet: members(w.tr), logf: w.logf,
		// Best-effort: a failed send is a lost datagram, and the watchdog
		// re-announces.
		emit: func(to int, pkt transport.Packet) { _ = w.tr.Send(ctx, to, pkt) }}
	deliver := func(outs []out) {
		for _, o := range outs {
			send := sendCtrl
			if o.retry {
				send = sendCtrlRetry
			}
			// A message sent once goes again with the next beat or poll; a
			// retried one did not land.
			if err := send(ctx, w.tr, o.to, encodeCtrl(o.m)); err != nil && o.retry && ctx.Err() == nil {
				w.logf("worker %d: %v", s.self, err)
			}
		}
	}
	// Recv returns a queued packet even under a done context, so drain takes
	// one without waiting; wait is reused until the deadline moves.
	drain, cancel := context.WithCancel(ctx)
	cancel()
	var wait struct {
		ctx    context.Context
		cancel context.CancelFunc
		until  time.Time
	}
	wait.ctx, wait.cancel = ctx, func() {}
	defer func() { wait.cancel() }()
	for idle := false; ctx.Err() == nil; {
		now := time.Now()
		next, outs := s.Tick(now, idle)
		deliver(outs)
		rctx := drain
		if idle && (next.IsZero() || next.After(now)) {
			if !next.Equal(wait.until) {
				wait.cancel()
				wait.ctx, wait.cancel, wait.until = ctx, func() {}, next
				if !next.IsZero() {
					wait.ctx, wait.cancel = context.WithDeadline(ctx, next)
				}
			}
			rctx = wait.ctx
		}
		pkt, err := w.tr.Recv(rctx)
		switch {
		case errors.Is(err, transport.ErrClosed):
			return nil
		case err != nil && rctx.Err() == nil:
			return err
		case err != nil:
			idle = true // nothing was queued, or the deadline passed
			continue
		}
		outs, exit := s.Handle(&pkt)
		if deliver(outs); exit {
			return nil
		}
		idle = false
	}
	return nil
}

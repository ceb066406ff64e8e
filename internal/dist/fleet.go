package dist

import (
	"context"
	"errors"
	"sync"

	"repro/internal/transport"
)

// Fleet is a whole distributed run inside one process: member 0 of a fabric
// coordinates and every other member serves as a Worker on a goroutine of its
// own — the stand-in for a coordinator and N dtmd processes that the
// experiments and this package's tests drive. Start, Kill, Coordinate and
// Close belong to one goroutine (CoordConfig.OnPoll runs on Coordinate's).
type Fleet struct {
	members []transport.Transport
	wrap    func(member int, tr transport.Transport) transport.Transport
	ctx     context.Context
	stop    context.CancelFunc
	kill    []context.CancelFunc // per member: ends its current incarnation
	wg      sync.WaitGroup

	mu   sync.Mutex
	errs []error
}

// NewFleet starts incarnation 1 of a worker on every member but the first.
// wrap, when non-nil, decorates a member's transport each time a worker (or,
// for member 0, a coordinator) is put on it: fault injection, probes. The
// fleet owns the members from here on; Close closes them.
func NewFleet(members []transport.Transport, wrap func(member int, tr transport.Transport) transport.Transport) *Fleet {
	f := &Fleet{members: members, wrap: wrap, kill: make([]context.CancelFunc, len(members))}
	f.ctx, f.stop = context.WithCancel(context.Background())
	for m := 1; m < len(members); m++ {
		f.Start(m, 1)
	}
	return f
}

func (f *Fleet) on(member int) transport.Transport {
	if f.wrap == nil {
		return f.members[member]
	}
	return f.wrap(member, f.members[member])
}

// Start runs a new life of worker member m under the given incarnation — a
// restarted process — ending the previous one first if it is still running.
func (f *Fleet) Start(m int, incarnation uint32) {
	f.Kill(m)
	w := NewWorker(f.on(m))
	w.Incarnation = incarnation
	ctx, cancel := context.WithCancel(f.ctx)
	f.kill[m] = cancel
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		if err := w.Run(ctx); err != nil {
			f.mu.Lock()
			f.errs = append(f.errs, err)
			f.mu.Unlock()
		}
	}()
}

// Kill stops worker member m without a goodbye, the in-process analogue of
// SIGKILL: its goroutines stop dead, the transport member stays bound, queued
// and in-flight packets go stale.
func (f *Fleet) Kill(m int) {
	if f.kill[m] != nil {
		f.kill[m]()
	}
}

// Coordinate runs one solve from member 0. A config that names no workers
// gets every other member, in order.
func (f *Fleet) Coordinate(ctx context.Context, cfg CoordConfig) (*Result, error) {
	if cfg.Workers == nil {
		for m := 1; m < len(f.members); m++ {
			cfg.Workers = append(cfg.Workers, m)
		}
	}
	return Coordinate(ctx, f.on(0), cfg)
}

// Close stops every worker, waits for its goroutines to exit and closes the
// members. It returns what the workers' Run loops failed with, if anything.
func (f *Fleet) Close() error {
	f.stop()
	f.wg.Wait()
	for _, m := range f.members {
		m.Close()
	}
	return errors.Join(f.errs...)
}

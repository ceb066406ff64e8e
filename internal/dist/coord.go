package dist

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/factor"
	"repro/internal/sparse"
	"repro/internal/transport"
)

// CoordConfig drives one distributed solve.
type CoordConfig struct {
	// Spec is the problem every worker re-tears locally; the coordinator
	// only validates it.
	Spec SpecV2
	// Workers lists the transport member ids that own shards. Parts are
	// assigned in contiguous ranges across this slice, in order (the home
	// map); failover re-derives ownership from the surviving subset.
	Workers []int
	// Tol is the quiescence tolerance (stopping rule); required.
	Tol float64
	// Factor is how every worker factorises its subdomains: backend and
	// ordering (the zero value is auto/auto).
	Factor factor.Settings
	// SendThreshold suppresses unchanged wave re-announcements; defaults to
	// core.DrainThreshold(Tol), the fault-mode rule, because a real network
	// always needs traffic to drain.
	SendThreshold float64
	// WatchdogMS is the workers' retransmission interval (default 50ms).
	WatchdogMS int
	// HeartbeatMS is the workers' heartbeat (and snapshot) interval
	// (default 25ms).
	HeartbeatMS int
	// LeaseBeats sets a worker's lease to LeaseBeats missed heartbeats
	// (default 6), plus a deterministic per-worker jitter of up to 25% so a
	// uniformly slow fabric does not mass-expire the fleet at one instant.
	LeaseBeats int
	// DisableFailover turns lease expiry into an immediate *WorkerLostError
	// instead of a reassignment (strict mode).
	DisableFailover bool
	// PollInterval is the fallback cadence of the coordinator's status polls
	// (default 10ms). A round begins sooner when every live worker has told
	// the coordinator its shard fell silent (a quiet notice), and a quiet
	// round is confirmed by the next poll at once; the timer covers a lost
	// notice, a worker that never sends one and a fleet silent but not quiet.
	PollInterval time.Duration
	// StablePolls is how many consecutive polls must satisfy the stopping
	// rule before the coordinator declares convergence (default 2) — the
	// distributed analogue of the DES engine's no-pending-events check.
	StablePolls int
	// OnPoll, when non-nil, is called just before status poll n (0-based)
	// is sent, a round asked again included. Fault drills hook it to kill a
	// worker at a deterministic point mid-solve.
	OnPoll func(poll int)
}

func (c *CoordConfig) normalize() error {
	if len(c.Workers) == 0 {
		return errors.New("dist: no workers")
	}
	if c.Spec.Parts() < len(c.Workers) {
		return fmt.Errorf("dist: %d workers for %d parts", len(c.Workers), c.Spec.Parts())
	}
	if !(c.Tol > 0) {
		return errors.New("dist: Tol must be positive")
	}
	// Refused here, before any assign: every worker would otherwise build the
	// spec only to fail in NewSubdomain.
	if err := c.Factor.Validate(); err != nil {
		return err
	}
	if c.SendThreshold <= 0 {
		c.SendThreshold = core.DrainThreshold(c.Tol)
	}
	if c.WatchdogMS <= 0 {
		c.WatchdogMS = 50
	}
	if c.HeartbeatMS <= 0 {
		c.HeartbeatMS = 25
	}
	if c.LeaseBeats <= 0 {
		c.LeaseBeats = 6
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 10 * time.Millisecond
	}
	if c.StablePolls <= 0 {
		c.StablePolls = 2
	}
	return nil
}

// maxEpochs caps how many ownership epochs (1 initial + failovers + rejoins)
// a solve may burn before giving up — a flapping fleet must fail loudly, not
// churn forever.
const maxEpochs = 8

// lease is the base lease duration (per-worker jitter applied on top).
func (c *CoordConfig) lease() time.Duration {
	return time.Duration(c.HeartbeatMS*c.LeaseBeats) * time.Millisecond
}

// Result is the outcome of a distributed solve: the gathered solution, the
// final poll's convergence measures and the session's counters. It measures
// no error against an exact solution; a caller that has one compares X with
// it (the tests and dtmd -selftest compare with SpecV2.Oracle's).
type Result struct {
	// X is the assembled solution estimate (owner fragments gathered from
	// the workers).
	X sparse.Vec
	// Converged reports whether the stopping rule held before the context
	// expired.
	Converged bool
	// Solves and Messages total the counters the final owners report with
	// their results: every solve and message of theirs up to the stop.
	Solves, Messages int
	// Polls is the number of completed status rounds the coordinator ran,
	// each begun by the PollInterval timer, a quiet round's confirmation or
	// the fleet's silent notices.
	Polls int
	// MaxLastChange and TwinGap are the final poll's convergence measures.
	MaxLastChange, TwinGap float64
	// Owner maps part → worker member id under the final epoch.
	Owner []int
	// Failovers and Rejoins count ownership epochs burned on worker deaths
	// and on restarted workers re-admitted, respectively.
	Failovers, Rejoins int
	// Epoch is the final ownership epoch (1 when nothing failed).
	Epoch uint32
	// Fenced totals the same workers' zombie-wave drop counters — nonzero
	// proves the epoch/incarnation fences did real work.
	Fenced uint64
}

// ContiguousOwner assigns parts to workers in contiguous, near-equal ranges
// — the paper's processor-per-subdomain mapping generalised to fewer
// processors than subdomains.
func ContiguousOwner(nParts int, workers []int) []int {
	owner := make([]int, nParts)
	w := len(workers)
	for part := 0; part < nParts; part++ {
		owner[part] = workers[part*w/nParts]
	}
	return owner
}

// Coordinate runs one distributed solve over tr: assign shards, wait ready,
// start, poll until the stopping rule is stable (or ctx expires), stop, and
// gather X. The coordinator member owns no parts; it only speaks the control
// plane.
//
// Liveness: every control message from a worker renews its lease; a worker
// whose (jittered) lease lapses is declared dead and its parts are
// deterministically reassigned to the survivors under a new fenced epoch,
// seeded from its last heartbeat's boundary snapshots. A restarted worker
// answering the coordinator's polls with a higher incarnation is revived and
// handed its home parts back on the next epoch. When no failover can absorb
// a loss (no survivors, DisableFailover, or maxEpochs exhausted), or a worker
// dies before its result is in, Coordinate returns a *WorkerLostError
// wrapping ErrWorkerLost; a closed tr, an error wrapping transport.ErrClosed.
//
// Coordinate drives a coordState and is the only code of the coordinator
// that reads the clock or touches the transport.
func Coordinate(ctx context.Context, tr transport.Transport, cfg CoordConfig) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	// The workers tear; the coordinator only refuses what it can see is
	// wrong without tearing, and learns the problem's shape from ready.
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	s := newCoordState(&cfg)
	polls := 0
	deliver := func(outs []out, err error) error {
		for i := 0; err == nil && i < len(outs); i++ {
			o := outs[i]
			switch {
			case !o.retry:
				// OnPoll runs before each poll batch (one message to many).
				if o.m.Type == msgStatusRq && (i == 0 || outs[i-1].m != o.m) && cfg.OnPoll != nil {
					cfg.OnPoll(polls)
					polls++
				}
				_ = sendCtrl(ctx, tr, o.to, o.m)
			case o.m.Type == msgReassign:
				rctx, cancel := context.WithTimeout(ctx, 2*cfg.lease())
				_ = sendCtrlRetry(rctx, tr, o.to, o.m)
				cancel()
			default:
				if err = sendCtrlRetry(ctx, tr, o.to, o.m); err != nil && !errors.Is(err, transport.ErrClosed) {
					err = lostError(o.to, s.owner, o.m.Type)
				}
			}
		}
		return err
	}
	for idle := true; ; {
		next, outs, err := s.Tick(time.Now(), idle)
		if err = deliver(outs, err); err != nil {
			return nil, err
		}
		if s.phase == phaseDone {
			return s.res, nil
		}
		if ctx.Err() != nil {
			// Stop and gather regardless, with a grace once the deadline has
			// passed; a second expiry is a loss.
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := deliver(s.Expire()); err != nil {
				return nil, err
			}
			continue
		}
		rctx, cancel := context.WithDeadline(ctx, next)
		pkt, err := tr.Recv(rctx)
		cancel()
		if idle = err != nil; idle && errors.Is(err, transport.ErrClosed) {
			return nil, fmt.Errorf("dist: coordinator closed during %s: %w", s.phase, err)
		}
		if err != nil || pkt.Kind != transport.KindControl {
			continue // a deadline or a stray wave: the next tick does the bookkeeping
		}
		if m, err := decodeCtrl(&pkt); err == nil { // a frame that does not decode is dropped
			if err := deliver(s.Handle(time.Now(), int(pkt.From), m)); err != nil {
				return nil, err
			}
		}
	}
}

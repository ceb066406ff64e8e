package core

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/sparse"
	"repro/internal/transport"
)

// ErrDeadlineExceeded is returned by Solve when the run ends — by the
// caller's context or by MaxWallTime — before the convergence tolerance is
// reached. The returned Result is still
// valid: it carries the partial solution, its residual, and the trace up to
// the deadline.
var ErrDeadlineExceeded = errors.New("core: solve deadline exceeded before convergence")

// solveLive runs DTM with one goroutine per subdomain and real (scaled)
// communication delays, until convergence, the context's cancellation or
// deadline, or MaxWallTime — whichever comes first. The run is not
// deterministic — that is the point — but by Theorem 6.1 it converges to the
// same solution for any interleaving. cfg must be normalized and validated.
//
// The protocol is a Shard per goroutine (see shard.go); this function is its
// driver: it owns the goroutines, the per-link delays and chaos fates, the
// watchdog, crash, restart and snapshot timers, the trace and the Result.
// Real goroutines and timers lose, delay and reorder waves on their own (a
// full inbox drops, a descheduled receiver holds a backlog), so the protocol
// runs on every run and a nil fault spec only means the chaos layer adds
// nothing on top.
func solveLive(ctx context.Context, p *Problem, cfg *Config) (*Result, error) {
	subs, zs, err := p.buildSubdomains(cfg.Impedance, cfg.Factor)
	if err != nil {
		return nil, err
	}
	// The subdomain goroutines all query link delays; route the topology now
	// so the lazy all-pairs computation does not race between them.
	p.Topology.Route()
	nParts := len(subs)
	owner := p.OwnerPairs()
	links := p.Partition.Links

	spec := cfg.Faults
	if spec == nil {
		// The zero spec gives every send exactly one on-time fate.
		spec = &chaos.Spec{}
	}
	ctl := chaos.NewController(spec, nParts)
	// recovery[part] counts the part's watchdog sweeps, crashes, restarts and
	// snapshots; each goroutine writes its own element and the totals are read
	// after all of them have exited.
	recovery := make([]FaultStats, nParts)

	// What the subdomain goroutines publish and the monitor reads, under mu:
	// the assembled owner values and each part's shard state after its latest
	// step. A published ShardState is never written again, so the monitor may
	// keep reading one after it has let go of mu. The monitor reads x only for
	// the trace's RMS error, so a part folds its values in after every step
	// only when cfg.Exact is set and otherwise once, as its goroutine ends:
	// asking a Subdomain for X costs it a full interior solve.
	var mu sync.Mutex
	x := sparse.NewVec(p.System.Dim())
	states := make([]ShardState, nParts)

	runCtx, cancel := context.WithTimeout(ctx, cfg.MaxWallTime)
	defer cancel()

	start := time.Now()
	// virtualNow maps elapsed wall time back onto the topology's time axis —
	// the axis the fault spec's windows and schedules are expressed on.
	virtualNow := func() float64 {
		return time.Since(start).Seconds() / cfg.TimeScale.Seconds()
	}
	scaled := func(virtual float64) time.Duration {
		return time.Duration(float64(cfg.TimeScale) * virtual)
	}

	inboxes := make([]chan transport.Packet, nParts)
	for i := range inboxes {
		inboxes[i] = make(chan transport.Packet, 256)
	}

	// deliver schedules a packet to arrive at `to` after whatever fate the
	// fault controller assigns each copy (one on-time copy under the zero
	// spec). If the destination inbox is full the packet is dropped: the
	// watchdog re-announces, and dropping keeps the timer goroutines from
	// blocking forever after cancellation.
	var delivered atomic.Int64
	var timers sync.WaitGroup
	deliver := func(from, to int, pkt transport.Packet) {
		// The fates buffer is reused per pair; consume it before returning.
		// Duplicated copies alias pkt.Entries, which is never written after
		// this point.
		for _, fd := range ctl.Fate(from, to, virtualNow(), p.Delay(from, to)) {
			timers.Add(1)
			time.AfterFunc(scaled(fd), func() {
				defer timers.Done()
				select {
				case inboxes[to] <- pkt:
					delivered.Add(1)
				default:
				}
			})
		}
	}

	// In this engine member i is part i.
	members := make([]int, nParts)
	for i := range members {
		members[i] = i
	}

	var wg sync.WaitGroup
	for part, sub := range subs {
		// out holds what the shard emitted during the current step.
		var out []transport.Packet
		sh := NewShard(part, members, 0, cfg.SendThreshold, func(_ int, pkt transport.Packet) {
			out = append(out, pkt)
		})
		sh.Adopt(sub, nil)
		states[part] = sh.State()

		wg.Add(1)
		go func() {
			defer wg.Done()
			if cfg.Exact == nil {
				defer func() {
					mu.Lock()
					assembleOwned(x, sub.X(), owner[part])
					mu.Unlock()
				}()
			}
			// step solves what is dirty, publishes the outcome, and only then
			// lets the waves the shard emitted leave — so no receiver can have
			// applied a sequence number whose needed mark the monitor cannot
			// see yet.
			step := func() {
				for sh.SolveDirty() {
				}
				st := sh.State()
				mu.Lock()
				if cfg.Exact != nil {
					assembleOwned(x, sub.X(), owner[part])
				}
				states[part] = st
				mu.Unlock()
				for _, pkt := range out {
					deliver(part, int(pkt.ToPart), pkt)
				}
				out = out[:0]
			}

			// Recovery timers. The watchdog is per part (one timer
			// re-announcing to all neighbours); a part with no neighbours has
			// nobody to re-announce to. faultTimer walks this part's crash
			// schedule, firing alternately for a crash and its restart; it and
			// the snapshot ticker exist only when the spec schedules crashes.
			var (
				wdC, snapC, faultC  <-chan time.Time
				wdTimer, faultTimer *time.Timer
				wdBase              time.Duration
				backoff             int
				crashed             bool
				crashes             []chaos.Crash
			)
			if adj := sub.AdjacentParts(); len(adj) > 0 {
				maxDelay := 0.0
				for _, remote := range adj {
					maxDelay = math.Max(maxDelay, p.Delay(part, remote))
				}
				wdBase = scaled(spec.WatchdogTimeout(maxDelay))
				wdTimer = time.NewTimer(wdBase)
				defer wdTimer.Stop()
				wdC = wdTimer.C
			}
			resetWatchdog := func() {
				if wdTimer != nil {
					wdTimer.Reset(wdBase << uint(backoff))
				}
			}
			for _, c := range spec.Crashes {
				if c.Part == part {
					crashes = append(crashes, c)
				}
			}
			if len(crashes) > 0 {
				faultTimer = time.NewTimer(scaled(crashes[0].At))
				defer faultTimer.Stop()
				faultC = faultTimer.C
			}
			if len(spec.Crashes) > 0 {
				snapTicker := time.NewTicker(scaled(spec.SnapshotInterval()))
				defer snapTicker.Stop()
				snapC = snapTicker.C
			}

			sh.Wake()
			step()
			for {
				select {
				case <-runCtx.Done():
					return
				case pkt := <-inboxes[part]:
					// Fold in whatever else is already waiting, so a burst of
					// messages costs one solve. A crashed process loses
					// everything delivered to it.
					fresh := !crashed && sh.Receive(&pkt)
				drain:
					for {
						select {
						case more := <-inboxes[part]:
							if !crashed && sh.Receive(&more) {
								fresh = true
							}
						default:
							break drain
						}
					}
					if !fresh {
						continue
					}
					step()
					backoff = 0
					resetWatchdog()
				case <-wdC:
					if !crashed {
						recovery[part].Retransmissions++
						sh.Retransmit()
						step()
						if backoff < chaos.MaxBackoff {
							backoff++
						}
					}
					resetWatchdog()
				case <-snapC:
					if !crashed {
						sub.Snapshot()
						recovery[part].Snapshots++
					}
				case <-faultC:
					if !crashed {
						crashed = true
						recovery[part].Crashes++
						faultTimer.Reset(scaled(crashes[0].RestartAfter))
						continue
					}
					crashed = false
					recovery[part].Restarts++
					if err := sub.Refactor(); err != nil {
						// The same matrix factorised at start-up; this cannot
						// fail at runtime.
						panic(err)
					}
					sub.RestoreSnapshot()
					sh.Wake()
					step()
					backoff = 0
					resetWatchdog()
					if crashes = crashes[1:]; len(crashes) > 0 {
						faultTimer.Reset(max(scaled(crashes[0].At)-time.Since(start), 0))
					} else {
						faultC = nil
					}
				}
			}
		}()
	}

	// Monitor: samples the published states, records the trace, and stops the
	// run when they are quiescent (see Quiescent) and the fault schedule is
	// quiet: no open down window, no crashed part.
	var trace []TracePoint
	converged := false
	sample := make([]ShardState, nParts)
	ticker := time.NewTicker(livePollInterval)
monitorLoop:
	for {
		select {
		case <-runCtx.Done():
			break monitorLoop
		case <-ticker.C:
			tv := virtualNow()
			mu.Lock()
			copy(sample, states)
			rms := math.NaN()
			if cfg.Exact != nil {
				rms = x.RMSError(cfg.Exact)
			}
			mu.Unlock()
			quiet, _, gap := Quiescent(links, cfg.Tol, sample)
			if cfg.RecordTrace {
				solves, _, _ := Totals(sample)
				trace = append(trace, TracePoint{
					Time:     time.Since(start).Seconds(),
					RMSError: rms,
					TwinGap:  gap,
					Solves:   solves,
					Messages: int(delivered.Load()),
				})
			}
			if cfg.Tol > 0 && quiet && !spec.AnyDownAt(tv) && !spec.AnyCrashedAt(tv) {
				converged = true
				break monitorLoop
			}
		}
	}
	ticker.Stop()
	cancel()
	wg.Wait()
	timers.Wait()

	// Nothing writes x or states any more.
	res := &Result{
		X:          x,
		Converged:  converged,
		FinalTime:  time.Since(start).Seconds(),
		Messages:   int(delivered.Load()),
		Trace:      downsample(trace, traceMaxPoints),
		Impedances: zs,
	}
	_, _, res.TwinGap = Quiescent(links, cfg.Tol, states)
	res.Solves, _, _ = Totals(states)
	res.measure(p, cfg.Exact)
	if cfg.Faults.Enabled() {
		st := ctl.Stats()
		res.Faults = &FaultStats{Dropped: st.Dropped, Duplicated: st.Duplicated, Delayed: st.Delayed}
		for _, r := range recovery {
			res.Faults.Retransmissions += r.Retransmissions
			res.Faults.Crashes += r.Crashes
			res.Faults.Restarts += r.Restarts
			res.Faults.Snapshots += r.Snapshots
		}
	}
	// The caller's context fired, or MaxWallTime elapsed. With a convergence
	// target set (or an external cancellation) that is a deadline failure; a
	// time-boxed run without Tol is not.
	return res, deadlineErr(ctx, cfg, !converged)
}

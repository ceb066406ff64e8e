package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/sparse"
)

// ErrDeadlineExceeded is returned by Solve when the run ends — by the
// caller's context or by MaxWallTime — before the convergence tolerance is
// reached. The returned Result is still
// valid: it carries the partial solution, its residual, and the trace up to
// the deadline.
var ErrDeadlineExceeded = errors.New("core: solve deadline exceeded before convergence")

// liveShared is the state the monitor reads and the subdomain goroutines
// write; all access goes through mu.
type liveShared struct {
	mu     sync.Mutex
	x      sparse.Vec   // assembled owner values
	ports  []sparse.Vec // per part, the port potentials
	solved []bool       // per part, whether it has published a solve yet
}

// liveFaults is the live engine's wave-reliability bookkeeping, active on
// every run: real goroutines and timers lose, delay and reorder waves on
// their own (a full inbox drops, a descheduled receiver holds a backlog), so
// a nil fault spec only means the chaos layer adds nothing on top. The
// needed/applied arrays mirror the DES engine's faultState: needed[from·n+to]
// is the newest state-bearing sequence number announced on the pair (written
// only by the sender's goroutine), applied[·] the newest one folded in
// (written only by the receiver's goroutine); the monitor reads both to
// refuse convergence while any announced state has not landed.
type liveFaults struct {
	spec    *chaos.Spec
	ctl     *chaos.Controller
	needed  []atomic.Uint64
	applied []atomic.Uint64

	retransmissions atomic.Int64
	crashes         atomic.Int64
	restarts        atomic.Int64
	snapshots       atomic.Int64
}

// quietAt reports whether the fault layer permits declaring convergence at
// virtual time tv.
func (lf *liveFaults) quietAt(tv float64) bool {
	if lf.spec.AnyDownAt(tv) || lf.spec.AnyCrashedAt(tv) {
		return false
	}
	for i := range lf.needed {
		if lf.applied[i].Load() < lf.needed[i].Load() {
			return false
		}
	}
	return true
}

// solveLive runs DTM with one goroutine per subdomain and real (scaled)
// communication delays, until convergence, the context's cancellation or
// deadline, or MaxWallTime — whichever comes first. The run is not
// deterministic — that is the point — but by Theorem 6.1 it converges to the
// same solution for any interleaving. cfg must be normalized and validated.
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
	for _, c := range spec.Crashes {
		if c.Part >= nParts {
			return nil, fmt.Errorf("core: fault spec crashes part %d but the partition has only %d parts", c.Part, nParts)
		}
	}
	lf := &liveFaults{
		spec:    spec,
		ctl:     chaos.NewController(spec, nParts),
		needed:  make([]atomic.Uint64, nParts*nParts),
		applied: make([]atomic.Uint64, nParts*nParts),
	}

	shared := &liveShared{x: sparse.NewVec(p.System.Dim()), ports: make([]sparse.Vec, nParts), solved: make([]bool, nParts)}
	for i, s := range subs {
		shared.ports[i] = sparse.NewVec(s.NumPorts())
	}

	var totalSolves, totalMessages atomic.Int64

	// Degenerate single-subdomain case: one direct solve.
	if len(links) == 0 {
		for part, s := range subs {
			s.Solve()
			for _, pair := range owner[part] {
				shared.x[pair[1]] = s.X()[pair[0]]
			}
		}
		return liveResult(p, cfg, shared, zs, 0, 1, 0, true, lf), nil
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.MaxWallTime)
	defer cancel()

	start := time.Now()
	// virtualNow maps elapsed wall time back onto the topology's time axis —
	// the axis the fault spec's windows and schedules are expressed on.
	virtualNow := func() float64 {
		return time.Since(start).Seconds() / cfg.TimeScale.Seconds()
	}
	// sendThreshold suppresses re-announcements of waves that did not change
	// meaningfully; Config.normalize defaulted it to two orders below the
	// stopping tolerance, so suppression can never hold the gap above Tol.
	sendThreshold := cfg.SendThreshold

	inboxes := make([]chan wavePacket, nParts)
	for i := range inboxes {
		inboxes[i] = make(chan wavePacket, 256)
	}

	// deliver schedules a packet to arrive at `to` after whatever fate the
	// fault controller assigns each copy (one on-time copy under the zero
	// spec). If the destination inbox is full the packet is dropped: the
	// watchdog re-announces, and dropping keeps the timer goroutines from
	// blocking forever after cancellation.
	var timers sync.WaitGroup
	arrive := func(to int, pkt wavePacket, delay time.Duration) {
		timers.Add(1)
		time.AfterFunc(delay, func() {
			defer timers.Done()
			select {
			case inboxes[to] <- pkt:
				totalMessages.Add(1)
			default:
			}
		})
	}
	deliver := func(from, to int, pkt wavePacket) {
		d := p.Delay(from, to)
		// The fates buffer is reused per pair; consume it before returning.
		// Duplicated copies alias pkt.entries, which is never written after
		// this point.
		for _, fd := range lf.ctl.Fate(from, to, virtualNow(), d) {
			arrive(to, pkt, time.Duration(float64(cfg.TimeScale)*fd))
		}
	}

	publish := func(part int, s *Subdomain) {
		shared.mu.Lock()
		for _, pair := range owner[part] {
			shared.x[pair[1]] = s.X()[pair[0]]
		}
		for q := 0; q < s.NumPorts(); q++ {
			shared.ports[part][q] = s.PortPotential(q)
		}
		shared.solved[part] = true
		shared.mu.Unlock()
	}

	var wg sync.WaitGroup
	for part := range subs {
		wg.Add(1)
		go func(part int, s *Subdomain) {
			defer wg.Done()
			adj := s.AdjacentParts()
			// sentSeq[i] numbers the waves toward adj[i]; owned by this
			// goroutine alone. lastSent remembers what was last announced per
			// neighbour, so an unchanged wave is not re-announced as new
			// state: without that, every retransmission receipt would trigger
			// a fresh state-bearing send, the needed marks would never stop
			// moving, and the monitor could never see the system quiet.
			sentSeq := make([]uint64, len(adj))
			// seen[from] is the newest sequence number folded in from each
			// sender: this goroutine's private last-writer-wins frontier,
			// published to lf.applied once the solve it triggered is out.
			seen := make([]uint64, nParts)
			lastSent := make([][]float64, len(adj))
			for ai, remote := range adj {
				lastSent[ai] = make([]float64, len(s.EndsTowards(remote)))
				for j := range lastSent[ai] {
					lastSent[ai][j] = math.NaN()
				}
			}

			// sendAll announces the current waves to every neighbour.
			// retransmit distinguishes watchdog re-announcements: they always
			// go out, with fresh sequence numbers (so receivers prefer them
			// over older in-flight copies), but do not raise the pair's
			// needed mark. Regular sends are suppressed per neighbour when
			// nothing changed beyond the threshold.
			sendAll := func(initial, retransmit bool) {
				for ai, remote := range adj {
					ends := s.EndsTowards(remote)
					entries := make([]waveEntry, 0, len(ends))
					changed := initial || retransmit
					for j, k := range ends {
						w := 0.0
						if !initial {
							w = s.OutgoingWave(k)
						}
						if !(math.Abs(w-lastSent[ai][j]) <= sendThreshold) {
							changed = true
						}
						entries = append(entries, waveEntry{linkID: s.Ends()[k].LinkID, wave: w})
					}
					if !changed {
						continue
					}
					// The baseline moves only on an actual send, so
					// sub-threshold drift cannot accumulate unannounced.
					for j := range entries {
						lastSent[ai][j] = entries[j].wave
					}
					sentSeq[ai]++
					pkt := wavePacket{from: int32(part), seq: sentSeq[ai], entries: entries}
					if !retransmit {
						lf.needed[part*nParts+remote].Store(pkt.seq)
					}
					deliver(part, remote, pkt)
				}
			}

			// Recovery timers. The watchdog is per part here (one timer
			// re-announcing to all neighbours), a coarser grain than the DES
			// engine's per-neighbour watchdogs but the same protocol; a part
			// with no neighbours has nobody to re-announce to. The crash and
			// snapshot timers exist only when the spec schedules crashes.
			var (
				wdC, snapC, crashC, restartC <-chan time.Time
				wdTimer                      *time.Timer
				wdBase                       time.Duration
				backoff                      int
				crashed                      bool
				crashIdx                     = -1
				restartAfter                 time.Duration
				nextCrash                    *time.Timer
				restartTimer                 *time.Timer
				snapTicker                   *time.Ticker
			)
			if len(adj) > 0 {
				maxDelay := 0.0
				for _, remote := range adj {
					if d := p.Delay(part, remote); d > maxDelay {
						maxDelay = d
					}
				}
				wdBase = time.Duration(float64(cfg.TimeScale) * lf.spec.WatchdogTimeout(maxDelay))
				wdTimer = time.NewTimer(wdBase)
				defer wdTimer.Stop()
				wdC = wdTimer.C
			}
			for ci, c := range lf.spec.Crashes {
				if c.Part == part {
					crashIdx = ci
					restartAfter = time.Duration(float64(cfg.TimeScale) * c.RestartAfter)
					nextCrash = time.NewTimer(time.Duration(float64(cfg.TimeScale) * c.At))
					defer nextCrash.Stop()
					crashC = nextCrash.C
					break
				}
			}
			if len(lf.spec.Crashes) > 0 {
				snapTicker = time.NewTicker(time.Duration(float64(cfg.TimeScale) * lf.spec.SnapshotInterval()))
				defer snapTicker.Stop()
				snapC = snapTicker.C
			}
			resetWatchdog := func() {
				if wdTimer != nil {
					wdTimer.Reset(wdBase << uint(backoff))
				}
			}

			sendAll(true, false)
			for {
				select {
				case <-runCtx.Done():
					return
				case pkt := <-inboxes[part]:
					// Drain whatever else is already waiting so a burst of
					// messages is consumed as one batch, like the DES engine.
					batch := []wavePacket{pkt}
				drain:
					for {
						select {
						case more := <-inboxes[part]:
							batch = append(batch, more)
						default:
							break drain
						}
					}
					if crashed {
						// A crashed process loses everything delivered to it.
						continue
					}
					fresh := false
					for _, b := range batch {
						if b.seq <= seen[b.from] {
							continue
						}
						seen[b.from] = b.seq
						fresh = true
						for _, en := range b.entries {
							s.SetIncomingByLink(en.linkID, en.wave)
						}
					}
					if !fresh {
						continue
					}
					s.Solve()
					totalSolves.Add(1)
					publish(part, s)
					backoff = 0
					sendAll(false, false)
					// Only now are the waves applied in the monitor's sense:
					// their effect is published and re-announced (needed marks
					// raised), so "applied ≥ needed everywhere" never holds
					// while a state-bearing wave is still being digested.
					for _, remote := range adj {
						lf.applied[remote*nParts+part].Store(seen[remote])
					}
					resetWatchdog()
				case <-wdC:
					if !crashed {
						lf.retransmissions.Add(1)
						sendAll(false, true)
						if backoff < lf.spec.BackoffCap() {
							backoff++
						}
					}
					resetWatchdog()
				case <-snapC:
					if !crashed {
						s.Snapshot()
						lf.snapshots.Add(1)
					}
				case <-crashC:
					crashed = true
					crashC = nil
					lf.crashes.Add(1)
					restartTimer = time.NewTimer(restartAfter)
					restartC = restartTimer.C
				case <-restartC:
					restartC = nil
					restartTimer.Stop()
					crashed = false
					lf.restarts.Add(1)
					if err := s.Refactor(); err != nil {
						// The same matrix factorised at start-up; this cannot
						// fail at runtime.
						panic(err)
					}
					s.RestoreSnapshot()
					// The restarted process has no memory of what it last
					// announced; clear the baselines so the re-announcement
					// below reaches every neighbour.
					for ai := range lastSent {
						for j := range lastSent[ai] {
							lastSent[ai][j] = math.NaN()
						}
					}
					s.Solve()
					totalSolves.Add(1)
					publish(part, s)
					backoff = 0
					sendAll(false, false)
					resetWatchdog()
					// Arm the part's next crash, if the spec has one.
					for ci := crashIdx + 1; ci < len(lf.spec.Crashes); ci++ {
						if c := lf.spec.Crashes[ci]; c.Part == part {
							crashIdx = ci
							restartAfter = time.Duration(float64(cfg.TimeScale) * c.RestartAfter)
							at := time.Duration(float64(cfg.TimeScale)*c.At) - time.Since(start)
							if at < 0 {
								at = 0
							}
							nextCrash.Reset(at)
							crashC = nextCrash.C
							break
						}
					}
				}
			}
		}(part, subs[part])
	}

	// Monitor: samples the shared state, records the trace, and stops the run
	// when every part has solved, the twin disagreement is below Tol and the
	// network is quiet: no open down window, no crashed part, no announced
	// wave still unapplied. Without the last clause a single lucky gap sample
	// taken while a descheduled receiver still held a backlog would declare
	// a state that the backlog then moves.
	var trace []TracePoint
	converged := false
	ticker := time.NewTicker(cfg.PollInterval)
monitorLoop:
	for {
		select {
		case <-runCtx.Done():
			break monitorLoop
		case <-ticker.C:
			// Quiet is read before the state: once it holds, nothing
			// state-bearing is in flight or being digested, so the sample
			// below is of a state that no longer moves beyond SendThreshold.
			quiet := lf.quietAt(virtualNow())
			shared.mu.Lock()
			gap := 0.0
			for _, l := range links {
				d := math.Abs(shared.ports[l.PartA][l.PortA] - shared.ports[l.PartB][l.PortB])
				if d > gap {
					gap = d
				}
			}
			allSolved := true
			for _, ok := range shared.solved {
				allSolved = allSolved && ok
			}
			rms := math.NaN()
			if cfg.Exact != nil {
				rms = shared.x.RMSError(cfg.Exact)
			}
			shared.mu.Unlock()
			if cfg.RecordTrace {
				trace = append(trace, TracePoint{
					Time:     time.Since(start).Seconds(),
					RMSError: rms,
					TwinGap:  gap,
					Solves:   int(totalSolves.Load()),
					Messages: int(totalMessages.Load()),
				})
			}
			if cfg.Tol > 0 && gap <= cfg.Tol && allSolved && quiet {
				converged = true
				cancel()
				break monitorLoop
			}
		}
	}
	ticker.Stop()
	cancel()
	wg.Wait()
	timers.Wait()

	res := liveResult(p, cfg, shared, zs, time.Since(start).Seconds(), int(totalSolves.Load()), int(totalMessages.Load()), converged, lf)
	res.Trace = downsample(trace, cfg.TraceMaxPoints)
	// The caller's context fired, or MaxWallTime elapsed. With a convergence
	// target set (or an external cancellation) that is a deadline failure; a
	// time-boxed run without Tol is not.
	return res, deadlineErr(ctx, cfg, !converged)
}

func liveResult(p *Problem, cfg *Config, shared *liveShared, zs []float64, elapsed float64, solves, messages int, converged bool, lf *liveFaults) *Result {
	shared.mu.Lock()
	x := shared.x.Clone()
	gap := 0.0
	for _, l := range p.Partition.Links {
		if d := math.Abs(shared.ports[l.PartA][l.PortA] - shared.ports[l.PartB][l.PortB]); d > gap {
			gap = d
		}
	}
	shared.mu.Unlock()
	res := &Result{
		X:          x,
		Converged:  converged,
		FinalTime:  elapsed,
		TwinGap:    gap,
		Solves:     solves,
		Messages:   messages,
		Impedances: zs,
		RMSError:   math.NaN(),
	}
	if cfg.Exact != nil {
		res.RMSError = x.RMSError(cfg.Exact)
	}
	r := p.System.A.Residual(x, p.System.B)
	bn := p.System.B.Norm2()
	if bn == 0 {
		bn = 1
	}
	res.Residual = r.Norm2() / bn
	if cfg.Faults.Enabled() {
		st := lf.ctl.Stats()
		res.Faults = &FaultStats{
			Dropped:         st.Dropped,
			Duplicated:      st.Duplicated,
			Delayed:         st.Delayed,
			Retransmissions: int(lf.retransmissions.Load()),
			Crashes:         int(lf.crashes.Load()),
			Restarts:        int(lf.restarts.Load()),
			Snapshots:       int(lf.snapshots.Load()),
		}
	}
	return res
}

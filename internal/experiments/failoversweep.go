package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/dist"
	"repro/internal/transport"
)

// This file is experiment E10 (DESIGN.md): the cost of losing a worker. The
// paper's self-stabilisation argument (Theorem 6.1) covers lost and duplicated
// waves; PR 9's failover extends it to lost *workers* — a dead member's
// subdomains are re-torn on the survivors from the spec and seeded from the
// last heartbeat's boundary snapshot. E10 quantifies what that costs: wall
// time, message and solve overhead, and fencing traffic of a mid-solve kill,
// as a function of the heartbeat/lease cadence, always checked against the
// in-process DES oracle.

// FailoverSweepParams configures experiment E10.
type FailoverSweepParams struct {
	// Figure is the caption used when rendering.
	Figure string
	// Spec is the torn problem every leg re-tears deterministically.
	Spec dist.SpecV2
	// Workers is the number of worker members per leg; the kill legs SIGKILL
	// (cancel) the last one mid-solve.
	Workers int
	// Tol is the quiescence tolerance.
	Tol float64
	// Heartbeats lists the heartbeat periods (ms) swept in the kill legs.
	Heartbeats []int
	// LeaseBeats is the lease, in heartbeat intervals.
	LeaseBeats int
	// Drop, when positive, adds a kill-under-drop leg at the first heartbeat
	// cadence.
	Drop float64
	// Timeout bounds each leg.
	Timeout time.Duration
}

// DefaultFailoverSweepParams is E10 at full size: the 33²-unknown random grid
// torn 2×4 across 4 workers, kill legs at 10/25/50 ms heartbeats.
func DefaultFailoverSweepParams() FailoverSweepParams {
	return FailoverSweepParams{
		Figure:     "E10 — worker failover cost (33x33 grid, 8 parts, 4 workers, kill 1 mid-solve)",
		Spec:       dist.SpecV2{V: 2, Source: "grid:rows=33,cols=33,seed=1089", PartsX: 2, PartsY: 4},
		Workers:    4,
		Tol:        1e-9,
		Heartbeats: []int{10, 25, 50},
		LeaseBeats: 4,
		Drop:       0.05,
		Timeout:    2 * time.Minute,
	}
}

// QuickFailoverSweepParams is the reduced E10 for tests and -short benchmarks.
func QuickFailoverSweepParams() FailoverSweepParams {
	p := DefaultFailoverSweepParams()
	p.Figure = "E10 — worker failover cost (17x17 grid, 4 parts, 3 workers, kill 1 mid-solve)"
	p.Spec = dist.SpecV2{V: 2, Source: "grid:rows=17,cols=17,seed=289", PartsX: 2, PartsY: 2}
	p.Workers = 3
	p.Heartbeats = []int{10, 25}
	return p
}

// FailoverSweepLeg is one leg's outcome.
type FailoverSweepLeg struct {
	// Name labels the leg ("baseline", "kill hb=10ms", "kill hb=10ms drop=5%").
	Name      string
	Converged bool
	// Failovers/Rejoins/Epoch/Fenced mirror dist.Result: how many reassign
	// epochs the kill cost and how many zombie packets the fences dropped.
	Failovers int
	Rejoins   int
	Epoch     uint32
	Fenced    uint64
	Solves    int
	Messages  int
	Polls     int
	Wall      time.Duration
	// MaxAbsDiff is the max-norm distance to the DES oracle's solution; a leg
	// Agrees when it converged within 1e-6 of it.
	MaxAbsDiff float64
	Agrees     bool
}

// FailoverSweepResult is experiment E10's structured outcome.
type FailoverSweepResult struct {
	Params FailoverSweepParams
	Legs   []FailoverSweepLeg
}

// FailoverSweep runs experiment E10: a fault-free baseline, then mid-solve
// kill legs across the heartbeat sweep (and optionally under wave drop), all
// on the in-process channel fabric and all compared to the DES oracle.
func FailoverSweep(p FailoverSweepParams) (*FailoverSweepResult, error) {
	oracle, err := p.Spec.Oracle(p.Tol, "")
	if err != nil {
		return nil, fmt.Errorf("experiments: E10 oracle: %w", err)
	}
	if !oracle.Converged {
		return nil, fmt.Errorf("experiments: E10 oracle did not converge")
	}
	res := &FailoverSweepResult{Params: p}
	addLeg := func(name string, hbMS int, kill bool, drop float64) error {
		leg, err := runFailoverLeg(p, hbMS, kill, drop)
		if err != nil {
			return fmt.Errorf("experiments: E10 %s leg: %w", name, err)
		}
		leg.Name = name
		for i := range leg.x {
			leg.MaxAbsDiff = math.Max(leg.MaxAbsDiff, math.Abs(leg.x[i]-oracle.X[i]))
		}
		leg.Agrees = leg.Converged && leg.MaxAbsDiff <= 1e-6
		if kill && leg.Failovers < 1 {
			return fmt.Errorf("experiments: E10 %s leg finished without a failover", name)
		}
		res.Legs = append(res.Legs, leg.FailoverSweepLeg)
		return nil
	}
	if err := addLeg("baseline", p.Heartbeats[0], false, 0); err != nil {
		return nil, err
	}
	for _, hb := range p.Heartbeats {
		if err := addLeg(fmt.Sprintf("kill hb=%dms", hb), hb, true, 0); err != nil {
			return nil, err
		}
	}
	if p.Drop > 0 {
		name := fmt.Sprintf("kill hb=%dms drop=%g%%", p.Heartbeats[0], p.Drop*100)
		if err := addLeg(name, p.Heartbeats[0], true, p.Drop); err != nil {
			return nil, err
		}
	}
	return res, nil
}

type failoverLegRun struct {
	FailoverSweepLeg
	x []float64
}

// runFailoverLeg coordinates one solve on the chan fabric; when kill is set
// the last worker's context is cancelled after the first poll round, exactly
// the no-goodbye death the lease machinery exists for.
func runFailoverLeg(p FailoverSweepParams, hbMS int, kill bool, drop float64) (*failoverLegRun, error) {
	members := transport.NewChanNetwork(p.Workers + 1)
	defer func() {
		for _, m := range members {
			m.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), p.Timeout)
	defer cancel()

	var wg sync.WaitGroup
	workers := make([]int, p.Workers)
	victim := p.Workers // the last member
	var killVictim context.CancelFunc
	for i := 1; i <= p.Workers; i++ {
		workers[i-1] = i
		wtr := members[i]
		if drop > 0 {
			spec := &chaos.Spec{Drop: drop, Dup: drop, Seed: int64(100 + i)}
			wtr = transport.WithFaults(wtr, spec, p.Workers+1, 100*time.Microsecond)
		}
		wctx, wcancel := context.WithCancel(ctx)
		defer wcancel()
		if i == victim {
			killVictim = wcancel
		}
		w := dist.NewWorker(wtr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(wctx)
		}()
	}
	cfg := dist.CoordConfig{
		Spec: p.Spec, Workers: workers, Tol: p.Tol,
		WatchdogMS: 20, PollInterval: 5 * time.Millisecond,
		HeartbeatMS: hbMS, LeaseBeats: p.LeaseBeats,
	}
	if kill {
		var once sync.Once
		cfg.OnPoll = func(poll int) {
			if poll >= 1 {
				once.Do(killVictim)
			}
		}
	}
	start := time.Now()
	dres, err := dist.Coordinate(ctx, members[0], cfg)
	if err != nil {
		cancel()
		wg.Wait()
		return nil, err
	}
	for _, w := range workers {
		_ = dist.Shutdown(ctx, members[0], w)
	}
	cancel()
	wg.Wait()
	return &failoverLegRun{
		FailoverSweepLeg: FailoverSweepLeg{
			Converged: dres.Converged,
			Failovers: dres.Failovers, Rejoins: dres.Rejoins,
			Epoch: dres.Epoch, Fenced: dres.Fenced,
			Solves: dres.Solves, Messages: dres.Messages,
			Polls: dres.Polls, Wall: time.Since(start),
		},
		x: dres.X,
	}, nil
}

// Render prints the per-leg failover cost table.
func (r *FailoverSweepResult) Render(w io.Writer) error {
	fmt.Fprintln(w, r.Params.Figure)
	fmt.Fprintf(w, "lease = %d heartbeats (+0..25%% deterministic jitter); agreement bar 1e-6 vs DES oracle\n\n",
		r.Params.LeaseBeats)
	fmt.Fprintf(w, "%-22s  %-9s  %-9s  %-6s  %-7s  %8s  %9s  %6s  %-12s  %10s\n",
		"leg", "converged", "failovers", "epoch", "fenced", "solves", "messages", "polls", "max|dx|", "wall")
	for _, l := range r.Legs {
		ok := "PASS"
		if !l.Agrees {
			ok = "FAIL"
		}
		fmt.Fprintf(w, "%-22s  %-9v  %-9d  %-6d  %-7d  %8d  %9d  %6d  %-12.3e  %10v  %s\n",
			l.Name, l.Converged, l.Failovers, l.Epoch, l.Fenced,
			l.Solves, l.Messages, l.Polls, l.MaxAbsDiff,
			l.Wall.Round(time.Millisecond), ok)
	}
	return nil
}

// Agrees reports whether every leg converged within the 1e-6 agreement bar.
func (r *FailoverSweepResult) Agrees() bool {
	for _, l := range r.Legs {
		if !l.Agrees {
			return false
		}
	}
	return len(r.Legs) > 0
}

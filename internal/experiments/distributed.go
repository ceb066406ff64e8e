package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/chaos"
	"repro/internal/dist"
	"repro/internal/factor"
	"repro/internal/sparse"
	"repro/internal/transport"
)

// This file is experiments E9 and E10 (DESIGN.md): the distributed stack
// against the DES oracle, as two lists of legs on one in-process dist.Fleet.
//
// E9 — the paper's claim is that DTM's result does not depend on the
// execution substrate: any schedule of local solves and any eventually
// delivered message stream reaches the same fixpoint. The same torn problem
// is solved by the deterministic DES engine, by workers over the in-process
// channel fabric, by workers over real TCP connections on loopback, and by
// workers behind a wave-drop fault model.
//
// E10 — the cost of losing a worker. Theorem 6.1's self-stabilisation covers
// lost and duplicated waves; failover extends it to lost *workers* — a dead
// member's subdomains are re-torn on the survivors from the spec and seeded
// from the last heartbeat's boundary snapshot. E10 measures what a mid-solve
// kill costs (wall time, messages, solves, fencing traffic) as a function of
// the heartbeat/lease cadence.
//
// Every leg of both must agree with the oracle to 1e-6 in the max norm.

// DistributedParams configures experiments E9 and E10.
type DistributedParams struct {
	// Figure is the caption used when rendering.
	Figure string
	// Spec is the torn problem every leg re-tears deterministically.
	Spec dist.SpecV2
	// Workers is the number of worker members of each leg; a kill leg kills
	// the last one mid-solve.
	Workers int
	// Tol is the quiescence tolerance of every leg.
	Tol float64
	// Drop is the wave-drop probability of the faulted legs.
	Drop float64
	// Heartbeats lists the heartbeat periods (ms) E10's kill legs sweep, and
	// LeaseBeats the lease in heartbeat intervals; E9 leaves both to the
	// coordinator's defaults.
	Heartbeats []int
	LeaseBeats int
	// Timeout bounds each leg.
	Timeout time.Duration
}

// distributedParams is the problem E9 and E10 share, with its description
// for their captions: at full size the 33²-unknown random grid torn 2×4
// across 4 workers; quick, the 17² system torn 2×2 across quickWorkers.
func distributedParams(quick bool, quickWorkers int) (DistributedParams, string) {
	p := DistributedParams{
		Spec:    dist.SpecV2{V: 2, Source: "grid:rows=33,cols=33,seed=1089", PartsX: 2, PartsY: 4},
		Workers: 4,
		Tol:     1e-9,
		Drop:    0.05,
		Timeout: 2 * time.Minute,
	}
	if quick {
		p.Spec = dist.SpecV2{V: 2, Source: "grid:rows=17,cols=17,seed=289", PartsX: 2, PartsY: 2}
		p.Workers = quickWorkers
		return p, fmt.Sprintf("17x17 grid, 4 parts, %d workers", quickWorkers)
	}
	return p, "33x33 grid, 8 parts, 4 workers"
}

func compareDistributedParams(quick bool) DistributedParams {
	p, shape := distributedParams(quick, 2)
	p.Figure = fmt.Sprintf("E9 — distributed DTM vs DES oracle (%s)", shape)
	return p
}

// failoverSweepParams sweeps 10/25/50 ms heartbeats (quick: 10/25) under a
// lease of four beats.
func failoverSweepParams(quick bool) DistributedParams {
	p, shape := distributedParams(quick, 3)
	p.Figure = fmt.Sprintf("E10 — worker failover cost (%s, kill 1 mid-solve)", shape)
	p.Heartbeats, p.LeaseBeats = []int{10, 25, 50}, 4
	if quick {
		p.Heartbeats = []int{10, 25}
	}
	return p
}

// distLeg is one distributed run of E9 or E10.
type distLeg struct {
	label string
	// tcp runs the fleet over loopback TCP instead of the channel fabric.
	tcp bool
	// faults, when enabled, puts every worker behind it (seed offset by the
	// member id: independent fate streams).
	faults chaos.Spec
	// heartbeatMS is the workers' heartbeat period (0: the default).
	heartbeatMS int
	// kill stops the last worker dead after the first poll round — the
	// no-goodbye death the lease machinery exists for — and requires the run
	// to have failed over.
	kill bool
}

// DistributedLeg is what a distributed leg produced: the coordinator's own
// result, its agreement with the DES oracle and the wall time it took.
type DistributedLeg struct {
	agreement
	*dist.Result
	Wall time.Duration
}

func (l DistributedLeg) miss() error { return l.agreement.miss(l.Converged) }

// DistributedResult is the outcome of E9 or E10; which of the two tables
// Render prints follows from whether the parameters sweep heartbeats.
type DistributedResult struct {
	Params       DistributedParams
	OracleSolves int
	Legs         []DistributedLeg
}

func (r *DistributedResult) missed() error { return firstMiss(r.Legs) }

// CompareDistributed runs experiment E9.
func CompareDistributed(p DistributedParams) (*DistributedResult, error) {
	return p.run(
		distLeg{label: "chan"},
		distLeg{label: "tcp", tcp: true},
		distLeg{label: fmt.Sprintf("chan drop=%g", p.Drop), faults: chaos.Spec{Drop: p.Drop}},
	)
}

// FailoverSweep runs experiment E10: a fault-free baseline, then mid-solve
// kill legs across the heartbeat sweep (and under wave drop and duplication
// at the first cadence), all on the in-process channel fabric.
func FailoverSweep(p DistributedParams) (*DistributedResult, error) {
	legs := []distLeg{{label: "baseline", heartbeatMS: p.Heartbeats[0]}}
	for _, hb := range p.Heartbeats {
		legs = append(legs, distLeg{label: fmt.Sprintf("kill hb=%dms", hb), heartbeatMS: hb, kill: true})
	}
	if p.Drop > 0 {
		legs = append(legs, distLeg{
			label:       fmt.Sprintf("kill hb=%dms drop=%g%%", p.Heartbeats[0], p.Drop*100),
			heartbeatMS: p.Heartbeats[0], kill: true, faults: chaos.Spec{Drop: p.Drop, Dup: p.Drop},
		})
	}
	return p.run(legs...)
}

// run solves the DES oracle once and then every leg on a fleet of its own.
func (p DistributedParams) run(legs ...distLeg) (*DistributedResult, error) {
	oracle, err := p.Spec.Oracle(p.Tol, factor.Settings{})
	if err != nil {
		return nil, fmt.Errorf("experiments: distributed oracle: %w", err)
	}
	if !oracle.Converged {
		return nil, fmt.Errorf("experiments: distributed oracle did not converge")
	}
	res := &DistributedResult{Params: p, OracleSolves: oracle.Solves}
	for _, l := range legs {
		out, err := p.solve(oracle.X, l)
		if err != nil {
			return nil, fmt.Errorf("experiments: distributed leg %q: %w", l.label, err)
		}
		res.Legs = append(res.Legs, out)
	}
	return res, nil
}

// solve coordinates one leg: member 0 coordinates, the fleet's other members
// serve as in-process workers.
func (p DistributedParams) solve(oracle sparse.Vec, l distLeg) (DistributedLeg, error) {
	members := transport.NewChanNetwork(p.Workers + 1)
	if l.tcp {
		var err error
		if members, err = transport.NewTCPLoopback(p.Workers + 1); err != nil {
			return DistributedLeg{}, err
		}
	}
	fleet := dist.NewFleet(members, func(member int, tr transport.Transport) transport.Transport {
		if member == 0 {
			return tr
		}
		faults := l.faults
		faults.Seed = int64(100 + member)
		return transport.WithFaults(tr, &faults, p.Workers+1)
	})
	defer fleet.Close()
	ctx, cancel := context.WithTimeout(context.Background(), p.Timeout)
	defer cancel()

	cfg := dist.CoordConfig{
		Spec: p.Spec, Tol: p.Tol,
		WatchdogMS: 20, PollInterval: 5 * time.Millisecond,
		HeartbeatMS: l.heartbeatMS, LeaseBeats: p.LeaseBeats,
	}
	if l.kill {
		cfg.OnPoll = func(poll int) {
			if poll >= 1 {
				fleet.Kill(p.Workers)
			}
		}
	}
	start := time.Now()
	res, err := fleet.Coordinate(ctx, cfg)
	if err != nil {
		return DistributedLeg{}, err
	}
	if l.kill && res.Failovers < 1 {
		return DistributedLeg{}, fmt.Errorf("finished without a failover")
	}
	return DistributedLeg{agreement{l.label, res.X.MaxAbsDiff(oracle), 1e-6}, res, time.Since(start)}, nil
}

// Render prints E10's per-leg failover cost table when the parameters sweep
// heartbeats, E9's per-fabric agreement table otherwise.
func (r *DistributedResult) Render(w io.Writer) error {
	fmt.Fprintln(w, r.Params.Figure)
	if len(r.Params.Heartbeats) == 0 {
		fmt.Fprintf(w, "DES oracle: converged, %d solves; agreement bar 1e-6 (max norm)\n\n", r.OracleSolves)
		fmt.Fprintf(w, "%-16s  %-9s  %-12s  %8s  %9s  %6s  %10s\n",
			"fabric", "converged", "max|dx|", "solves", "messages", "polls", "wall")
		for _, l := range r.Legs {
			fmt.Fprintf(w, "%-16s  %-9v  %-12.3e  %8d  %9d  %6d  %10v  %s\n",
				l.label, l.Converged, l.diff, l.Solves, l.Messages, l.Polls,
				l.Wall.Round(time.Millisecond), verdict(l.holds(l.Converged)))
		}
		return nil
	}
	fmt.Fprintf(w, "lease = %d heartbeats (+0..25%% deterministic jitter); agreement bar 1e-6 vs DES oracle\n\n",
		r.Params.LeaseBeats)
	fmt.Fprintf(w, "%-22s  %-9s  %-9s  %-6s  %-7s  %8s  %9s  %6s  %-12s  %10s\n",
		"leg", "converged", "failovers", "epoch", "fenced", "solves", "messages", "polls", "max|dx|", "wall")
	for _, l := range r.Legs {
		fmt.Fprintf(w, "%-22s  %-9v  %-9d  %-6d  %-7d  %8d  %9d  %6d  %-12.3e  %10v  %s\n",
			l.label, l.Converged, l.Failovers, l.Epoch, l.Fenced,
			l.Solves, l.Messages, l.Polls, l.diff,
			l.Wall.Round(time.Millisecond), verdict(l.holds(l.Converged)))
	}
	return nil
}

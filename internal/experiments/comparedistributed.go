package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/dist"
	"repro/internal/transport"
)

// This file is experiment E9 (DESIGN.md): distributed DTM vs the DES oracle.
// The paper's claim is that DTM's result does not depend on the execution
// substrate — any schedule of local solves and any eventually-delivered
// message stream reaches the same fixpoint. E9 checks the strongest form the
// repo can exercise: the same torn problem is solved by the deterministic DES
// engine, by distributed workers over the in-process channel fabric, by
// workers over real TCP connections on loopback, and by workers behind a 5%
// wave-drop fault model, and all four solutions must agree to 1e-6 in the
// max norm.

// CompareDistributedParams configures experiment E9.
type CompareDistributedParams struct {
	// Figure is the caption used when rendering.
	Figure string
	// Spec is the torn problem every leg re-tears deterministically.
	Spec dist.SpecV2
	// Workers is the number of worker members of each distributed leg.
	Workers int
	// Tol is the quiescence tolerance of every leg.
	Tol float64
	// Drop is the wave-drop probability of the faulted leg.
	Drop float64
	// Timeout bounds each distributed leg.
	Timeout time.Duration
}

// DefaultCompareDistributedParams is E9 at full size: the 33²-unknown random
// grid torn 2×4 across 4 workers.
func DefaultCompareDistributedParams() CompareDistributedParams {
	return CompareDistributedParams{
		Figure:  "E9 — distributed DTM vs DES oracle (33x33 grid, 8 parts, 4 workers)",
		Spec:    dist.SpecV2{V: 2, Source: "grid:rows=33,cols=33,seed=1089", PartsX: 2, PartsY: 4},
		Workers: 4,
		Tol:     1e-9,
		Drop:    0.05,
		Timeout: 2 * time.Minute,
	}
}

// QuickCompareDistributedParams is the reduced E9 for tests and -short
// benchmarks: the 17² system torn 2×2 across 2 workers.
func QuickCompareDistributedParams() CompareDistributedParams {
	p := DefaultCompareDistributedParams()
	p.Figure = "E9 — distributed DTM vs DES oracle (17x17 grid, 4 parts, 2 workers)"
	p.Spec = dist.SpecV2{V: 2, Source: "grid:rows=17,cols=17,seed=289", PartsX: 2, PartsY: 2}
	p.Workers = 2
	return p
}

// CompareDistributedLeg is one fabric's outcome.
type CompareDistributedLeg struct {
	Fabric    string
	Converged bool
	// MaxAbsDiff is the max-norm distance to the DES oracle's solution.
	MaxAbsDiff float64
	Solves     int
	Messages   int
	Polls      int
	Wall       time.Duration
}

// CompareDistributedResult is the outcome of experiment E9.
type CompareDistributedResult struct {
	Params       CompareDistributedParams
	OracleSolves int
	Legs         []CompareDistributedLeg
}

// CompareDistributed runs experiment E9.
func CompareDistributed(p CompareDistributedParams) (*CompareDistributedResult, error) {
	oracle, err := p.Spec.Oracle(p.Tol, "")
	if err != nil {
		return nil, fmt.Errorf("experiments: E9 oracle: %w", err)
	}
	if !oracle.Converged {
		return nil, fmt.Errorf("experiments: E9 oracle did not converge")
	}
	res := &CompareDistributedResult{Params: p, OracleSolves: oracle.Solves}

	type leg struct {
		name string
		fab  func(n int) ([]transport.Transport, error)
		drop float64
	}
	legs := []leg{
		{name: "chan", fab: chanFabric},
		{name: "tcp", fab: tcpFabric},
		{name: fmt.Sprintf("chan drop=%g", p.Drop), fab: chanFabric, drop: p.Drop},
	}
	for _, l := range legs {
		lr, err := runDistributedLeg(p, l.fab, l.drop)
		if err != nil {
			return nil, fmt.Errorf("experiments: E9 %s leg: %w", l.name, err)
		}
		lr.Fabric = l.name
		lr.MaxAbsDiff = 0
		for i := range lr.x {
			lr.MaxAbsDiff = math.Max(lr.MaxAbsDiff, math.Abs(lr.x[i]-oracle.X[i]))
		}
		res.Legs = append(res.Legs, lr.CompareDistributedLeg)
	}
	return res, nil
}

type legRun struct {
	CompareDistributedLeg
	x []float64
}

func chanFabric(n int) ([]transport.Transport, error) {
	return transport.NewChanNetwork(n), nil
}

func tcpFabric(n int) ([]transport.Transport, error) {
	lns := make([]net.Listener, n)
	addrs := make(map[int]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	members := make([]transport.Transport, n)
	for i := 0; i < n; i++ {
		members[i] = transport.NewTCPFromListener(i, lns[i], addrs)
	}
	return members, nil
}

// runDistributedLeg coordinates one distributed solve with member 0 as the
// coordinator and in-process workers on the remaining members.
func runDistributedLeg(p CompareDistributedParams, fab func(n int) ([]transport.Transport, error), drop float64) (*legRun, error) {
	members, err := fab(p.Workers + 1)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, m := range members {
			m.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), p.Timeout)
	defer cancel()

	var wg sync.WaitGroup
	workers := make([]int, p.Workers)
	for i := 1; i <= p.Workers; i++ {
		workers[i-1] = i
		wtr := members[i]
		if drop > 0 {
			spec := &chaos.Spec{Drop: drop, Seed: int64(100 + i)}
			wtr = transport.WithFaults(wtr, spec, p.Workers+1, 100*time.Microsecond)
		}
		w := dist.NewWorker(wtr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	start := time.Now()
	dres, err := dist.Coordinate(ctx, members[0], dist.CoordConfig{
		Spec: p.Spec, Workers: workers, Tol: p.Tol,
		WatchdogMS: 20, PollInterval: 5 * time.Millisecond,
	})
	if err != nil {
		cancel()
		wg.Wait()
		return nil, err
	}
	for _, w := range workers {
		_ = dist.Shutdown(ctx, members[0], w)
	}
	wg.Wait()
	return &legRun{
		CompareDistributedLeg: CompareDistributedLeg{
			Converged: dres.Converged,
			Solves:    dres.Solves, Messages: dres.Messages,
			Polls: dres.Polls, Wall: time.Since(start),
		},
		x: dres.X,
	}, nil
}

// Render prints the per-fabric agreement table.
func (r *CompareDistributedResult) Render(w io.Writer) error {
	fmt.Fprintln(w, r.Params.Figure)
	fmt.Fprintf(w, "DES oracle: converged, %d solves; agreement bar 1e-6 (max norm)\n\n", r.OracleSolves)
	fmt.Fprintf(w, "%-16s  %-9s  %-12s  %8s  %9s  %6s  %10s\n",
		"fabric", "converged", "max|dx|", "solves", "messages", "polls", "wall")
	for _, l := range r.Legs {
		ok := "PASS"
		if !l.Converged || !(l.MaxAbsDiff <= 1e-6) {
			ok = "FAIL"
		}
		fmt.Fprintf(w, "%-16s  %-9v  %-12.3e  %8d  %9d  %6d  %10v  %s\n",
			l.Fabric, l.Converged, l.MaxAbsDiff, l.Solves, l.Messages, l.Polls,
			l.Wall.Round(time.Millisecond), ok)
	}
	return nil
}

// Agrees reports whether every leg converged within the 1e-6 agreement bar.
func (r *CompareDistributedResult) Agrees() bool {
	for _, l := range r.Legs {
		if !l.Converged || !(l.MaxAbsDiff <= 1e-6) {
			return false
		}
	}
	return len(r.Legs) > 0
}

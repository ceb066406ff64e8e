package experiments

import (
	"fmt"
	"io"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/metrics"
)

// This file is experiment E7 (DESIGN.md): DTM under injected faults. The
// paper proves self-stabilisation — Theorem 6.1 makes no assumption about
// delivery beyond "messages eventually arrive" — but reports no measurements
// of the claim. E7 quantifies it: convergence-time and message overhead as a
// function of the packet-drop rate, recovery from hard link-down windows, and
// recovery of a crashed subdomain from its snapshot. Every leg declares a 1e-5
// agreement bar against the fault-free run's solution.

// FaultSweepParams configures experiment E7.
type FaultSweepParams struct {
	// Grids are the torn problems the sweep is repeated on.
	Grids []FaultSweepGrid
	// DropRates is the drop-probability sweep; 0 is the fault-free baseline.
	DropRates []float64
	// Dup and Jitter are held fixed across the sweep's faulted legs.
	Dup, Jitter float64
	// DownWindow, when positive, adds a link-down leg: the first inter-part
	// link of the partition is cut in both directions for [0, DownWindow).
	DownWindow float64
	// CrashAt/CrashRestartAfter, when positive, add a crash-restart leg: the
	// subdomain with the most neighbours crashes at CrashAt, losing its
	// in-memory state, and restarts from its periodic snapshot.
	CrashAt, CrashRestartAfter float64
	// SnapshotEvery is the snapshot period of the crash leg.
	SnapshotEvery float64
	// Seed seeds the fault streams.
	Seed int64
	// Tol is the convergence tolerance.
	Tol float64
}

// FaultSweepGrid is one problem of the sweep: its caption, the torn system
// every leg runs on, and the virtual horizon.
type FaultSweepGrid struct {
	Figure  string
	Spec    dist.SpecV2
	MaxTime float64
}

// faultSweepParams is E7: at full size the 33²-unknown random grid system of
// Fig. 12 and then a 128×128 (16384-unknown) one, both on the paper's
// heterogeneous 4×4 mesh; quick, the 17² system with the 5% and 20% drop legs.
func faultSweepParams(quick bool) FaultSweepParams {
	p := FaultSweepParams{
		Grids: []FaultSweepGrid{
			{"E7 — DTM under injected faults (heterogeneous 4x4 mesh)",
				tornOnMesh("grid:rows=33,cols=33,seed=1089", 4), 400000},
			{"E7 — DTM under injected faults, 128x128 grid (heterogeneous 4x4 mesh)",
				tornOnMesh("grid:rows=128,cols=128,seed=16384", 4), 2000000},
		},
		DropRates: []float64{0, 0.01, 0.05, 0.20},
		Dup:       0.02, Jitter: 0.5,
		DownWindow: 900,
		CrashAt:    400, CrashRestartAfter: 300,
		SnapshotEvery: 100,
		Seed:          7,
		Tol:           1e-9,
	}
	if quick {
		p.Grids = p.Grids[:1]
		p.Grids[0].Spec = tornOnMesh("grid:rows=17,cols=17,seed=289", 4)
		p.DropRates = []float64{0, 0.05, 0.20}
	}
	return p
}

// FaultSweepTable is the sweep's outcome on one grid: the legs "baseline",
// "drop=5%", …, "link-down", "crash part k", each measured against the first.
type FaultSweepTable struct {
	Figure string
	System string
	N      int
	Legs   []outcome
}

// faultStats returns a leg's injected-fault and recovery counters (all zero
// for a run without a fault spec).
func faultStats(o outcome) core.FaultStats {
	if o.Faults == nil {
		return core.FaultStats{}
	}
	return *o.Faults
}

// FaultSweepResult is experiment E7's structured outcome: one table per grid.
type FaultSweepResult []FaultSweepTable

// FaultSweep runs experiment E7 on every grid: a drop-rate sweep plus (when
// configured) a hard link-down leg and a crash-restart leg, each compared
// against the fault-free baseline run on the same problem.
func FaultSweep(p FaultSweepParams) (FaultSweepResult, error) {
	hasBaseline := false
	for _, rate := range p.DropRates {
		hasBaseline = hasBaseline || rate == 0
	}
	if !hasBaseline {
		return nil, fmt.Errorf("experiments: the drop sweep must include the fault-free baseline (rate 0)")
	}
	var out FaultSweepResult
	for _, g := range p.Grids {
		prob, err := g.Spec.Build()
		if err != nil {
			return nil, err
		}
		// A setup without a reference: the first leg's solution — the
		// fault-free baseline's — is what every other leg is measured against.
		outs, err := setup{prob: prob}.run(core.Config{
			CommonOptions: core.CommonOptions{Tol: p.Tol, SendThreshold: core.DrainThreshold(p.Tol)},
			MaxTime:       g.MaxTime,
		}, p.legs(prob)...)
		if err != nil {
			return nil, err
		}
		out = append(out, FaultSweepTable{Figure: g.Figure, System: prob.System.Name, N: prob.System.Dim(), Legs: outs})
	}
	return out, nil
}

// legs lists the sweep on one torn problem: the baseline, then the faulted
// legs, every one within 1e-5 (max norm) of the baseline's answer or the
// experiment fails.
func (p FaultSweepParams) legs(prob *core.Problem) []leg {
	legs := []leg{{label: "baseline", bar: 1e-5}}
	faulted := func(label string, spec *chaos.Spec) {
		legs = append(legs, leg{label: label, bar: 1e-5, delta: func(c *core.Config) { c.Faults = spec }})
	}
	for _, rate := range p.DropRates {
		if rate != 0 {
			faulted(fmt.Sprintf("drop=%g%%", rate*100), &chaos.Spec{Seed: p.Seed, Drop: rate, Dup: p.Dup, Jitter: p.Jitter})
		}
	}
	links := prob.Partition.Links
	if p.DownWindow > 0 && len(links) > 0 {
		l := links[0]
		faulted("link-down", &chaos.Spec{Seed: p.Seed, Down: []chaos.Window{
			{From: l.PartA, To: l.PartB, T0: 0, T1: p.DownWindow},
			{From: l.PartB, To: l.PartA, T0: 0, T1: p.DownWindow},
		}})
	}
	if p.CrashAt > 0 && p.CrashRestartAfter > 0 {
		// Crash the most connected subdomain: the hardest case for recovery.
		part, linksOf := 0, prob.Partition.LinksOfPart
		for i := range prob.Partition.NumParts() {
			if len(linksOf(i)) > len(linksOf(part)) {
				part = i
			}
		}
		faulted(fmt.Sprintf("crash part %d", part), &chaos.Spec{
			Seed:          p.Seed,
			Crashes:       []chaos.Crash{{Part: part, At: p.CrashAt, RestartAfter: p.CrashRestartAfter}},
			SnapshotEvery: p.SnapshotEvery,
		})
	}
	return legs
}

// missed names the first leg, on any grid, that did not recover to within
// its bar of the fault-free run.
func (r FaultSweepResult) missed() error {
	for _, tbl := range r {
		if err := firstMiss(tbl.Legs); err != nil {
			return err
		}
	}
	return nil
}

// Render prints, per grid, every leg's final time and message count relative
// to the fault-free baseline's (1 = no overhead) and its agreement with it.
func (r FaultSweepResult) Render(w io.Writer) error {
	over := func(a, base float64) string { return fmt.Sprintf("%.2fx", a/base) }
	for i, g := range r {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w, g.Figure)
		fmt.Fprintf(w, "\nsystem %s (n=%d), convergence vs injected faults:\n", g.System, g.N)
		tbl := metrics.NewTable("fault legs", "leg", "converged", "t-final", "t-overhead", "msg-overhead", "retrans", "dropped", "agrees")
		for _, leg := range g.Legs {
			base, f := g.Legs[0], faultStats(leg)
			tbl.AddRow(
				leg.label,
				fmt.Sprintf("%v", leg.Converged),
				fmt.Sprintf("%.0f", leg.FinalTime),
				over(leg.FinalTime, base.FinalTime),
				over(float64(leg.Messages), float64(base.Messages)),
				fmt.Sprintf("%d", f.Retransmissions),
				fmt.Sprintf("%d", f.Dropped),
				fmt.Sprintf("%v", leg.holds(leg.Converged)),
			)
		}
		if err := tbl.Render(w); err != nil {
			return err
		}
		for _, leg := range g.Legs {
			if leg.cfg.Faults == nil {
				continue
			}
			fmt.Fprintf(w, "%s: spec %q, solution within %.3g of the fault-free run", leg.label, leg.cfg.Faults, leg.diff)
			if f := faultStats(leg); f.Crashes > 0 {
				fmt.Fprintf(w, ", %d crash / %d restart from %d snapshots", f.Crashes, f.Restarts, f.Snapshots)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

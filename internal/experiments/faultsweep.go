package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

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
// recovery of a crashed subdomain from its snapshot, all checked against the
// fault-free run's solution.

// FaultSweepParams configures experiment E7.
type FaultSweepParams struct {
	// Figure is the caption used when rendering.
	Figure string
	// Spec is the torn problem every leg runs on.
	Spec dist.SpecV2
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
	// MaxTime is the virtual horizon; Tol the convergence tolerance.
	MaxTime float64
	Tol     float64
}

// DefaultFaultSweepParams is E7 at full size: the 33²-unknown random grid
// system of Fig. 12 on the paper's heterogeneous 4×4 mesh.
func DefaultFaultSweepParams() FaultSweepParams {
	return FaultSweepParams{
		Figure:    "E7 — DTM under injected faults (heterogeneous 4x4 mesh)",
		Spec:      tornOnMesh("grid:rows=33,cols=33,seed=1089", 4),
		DropRates: []float64{0, 0.01, 0.05, 0.20},
		Dup:       0.02, Jitter: 0.5,
		DownWindow: 900,
		CrashAt:    400, CrashRestartAfter: 300,
		SnapshotEvery: 100,
		Seed:          7,
		MaxTime:       400000,
		Tol:           1e-9,
	}
}

// QuickFaultSweepParams is the reduced E7 for tests and -short benchmarks:
// the 17² system on the same mesh, with the 5% and 20% drop legs kept.
func QuickFaultSweepParams() FaultSweepParams {
	p := DefaultFaultSweepParams()
	p.Spec = tornOnMesh("grid:rows=17,cols=17,seed=289", 4)
	p.DropRates = []float64{0, 0.05, 0.20}
	return p
}

// FullFaultSweepParams is the large-grid leg of E7: the same sweep on a
// 128×128 (16384-unknown) random grid system.
func FullFaultSweepParams() FaultSweepParams {
	p := DefaultFaultSweepParams()
	p.Figure = "E7 — DTM under injected faults, 128x128 grid (heterogeneous 4x4 mesh)"
	p.Spec = tornOnMesh("grid:rows=128,cols=128,seed=16384", 4)
	p.MaxTime = 2000000
	return p
}

// FaultSweepLeg is the outcome of one faulted (or baseline) run.
type FaultSweepLeg struct {
	// Name labels the leg ("baseline", "drop=5%", "link-down", "crash").
	Name string
	// Spec is the canonical fault-spec string ("" for the baseline).
	Spec string
	// Converged etc. mirror core.Result.
	Converged bool
	FinalTime float64
	Solves    int
	Messages  int
	// TimeOverhead and MessageOverhead are the leg's FinalTime and Messages
	// relative to the fault-free baseline (1 = no overhead).
	TimeOverhead    float64
	MessageOverhead float64
	// OracleDiff is the max-abs difference to the baseline solution; a leg
	// Agrees when it converged within 1e-5 of it.
	OracleDiff float64
	Agrees     bool
	// Faults holds the injected-fault and recovery counters.
	Faults core.FaultStats
}

// FaultSweepResult is experiment E7's structured outcome.
type FaultSweepResult struct {
	Figure string
	System string
	N      int
	Legs   []FaultSweepLeg
}

// FaultSweep runs experiment E7: a drop-rate sweep plus (when configured) a
// hard link-down leg and a crash-restart leg, each compared against the
// fault-free baseline run on the same problem.
func FaultSweep(p FaultSweepParams) (*FaultSweepResult, error) {
	hasBaseline := false
	for _, rate := range p.DropRates {
		hasBaseline = hasBaseline || rate == 0
	}
	if !hasBaseline {
		return nil, fmt.Errorf("experiments: the drop sweep must include the fault-free baseline (rate 0)")
	}
	prob, err := p.Spec.Build()
	if err != nil {
		return nil, err
	}
	run := func(spec *chaos.Spec) (*core.Result, error) {
		return core.Solve(context.Background(), prob, core.Config{
			CommonOptions: core.CommonOptions{
				Tol:           p.Tol,
				SendThreshold: p.Tol / 100,
				Faults:        spec,
			},
			MaxTime: p.MaxTime,
		})
	}

	out := &FaultSweepResult{Figure: p.Figure, System: prob.System.Name, N: prob.System.Dim()}
	var baseline *core.Result
	addLeg := func(name string, spec *chaos.Spec) error {
		res, err := run(spec)
		if err != nil {
			return err
		}
		leg := FaultSweepLeg{
			Name:      name,
			Converged: res.Converged,
			FinalTime: res.FinalTime,
			Solves:    res.Solves,
			Messages:  res.Messages,
		}
		if spec != nil {
			leg.Spec = spec.String()
		}
		if res.Faults != nil {
			leg.Faults = *res.Faults
		}
		if baseline == nil {
			baseline = res
			leg.TimeOverhead, leg.MessageOverhead = 1, 1
			leg.Agrees = res.Converged
		} else {
			if baseline.FinalTime > 0 {
				leg.TimeOverhead = res.FinalTime / baseline.FinalTime
			}
			if baseline.Messages > 0 {
				leg.MessageOverhead = float64(res.Messages) / float64(baseline.Messages)
			}
			worst := 0.0
			for i := range res.X {
				if d := math.Abs(res.X[i] - baseline.X[i]); d > worst {
					worst = d
				}
			}
			leg.OracleDiff = worst
			leg.Agrees = res.Converged && worst <= 1e-5
		}
		out.Legs = append(out.Legs, leg)
		return nil
	}

	// The baseline runs first: every other leg's overheads and solution are
	// measured against it.
	if err := addLeg("baseline", nil); err != nil {
		return nil, err
	}
	for _, rate := range p.DropRates {
		if rate == 0 {
			continue
		}
		spec := &chaos.Spec{Seed: p.Seed, Drop: rate, Dup: p.Dup, Jitter: p.Jitter}
		if err := addLeg(fmt.Sprintf("drop=%g%%", rate*100), spec); err != nil {
			return nil, err
		}
	}
	if p.DownWindow > 0 {
		if len(prob.Partition.Links) == 0 {
			return nil, fmt.Errorf("experiments: the link-down leg needs at least one inter-part link")
		}
		l := prob.Partition.Links[0]
		spec := &chaos.Spec{Seed: p.Seed, Down: []chaos.Window{
			{From: l.PartA, To: l.PartB, T0: 0, T1: p.DownWindow},
			{From: l.PartB, To: l.PartA, T0: 0, T1: p.DownWindow},
		}}
		if err := addLeg("link-down", spec); err != nil {
			return nil, err
		}
	}
	if p.CrashAt > 0 && p.CrashRestartAfter > 0 {
		// Crash the most connected subdomain: the hardest case for recovery.
		degree := make([]int, prob.Partition.NumParts())
		for _, l := range prob.Partition.Links {
			degree[l.PartA]++
			degree[l.PartB]++
		}
		part := 0
		for i, d := range degree {
			if d > degree[part] {
				part = i
			}
		}
		spec := &chaos.Spec{
			Seed:          p.Seed,
			Crashes:       []chaos.Crash{{Part: part, At: p.CrashAt, RestartAfter: p.CrashRestartAfter}},
			SnapshotEvery: p.SnapshotEvery,
		}
		if err := addLeg(fmt.Sprintf("crash part %d", part), spec); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Render implements Renderer.
func (r *FaultSweepResult) Render(w io.Writer) error {
	fmt.Fprintln(w, r.Figure)
	fmt.Fprintf(w, "\nsystem %s (n=%d), convergence vs injected faults:\n", r.System, r.N)
	tbl := metrics.NewTable("fault legs", "leg", "converged", "t-final", "t-overhead", "msg-overhead", "retrans", "dropped", "agrees")
	for _, leg := range r.Legs {
		tbl.AddRow(
			leg.Name,
			fmt.Sprintf("%v", leg.Converged),
			fmt.Sprintf("%.0f", leg.FinalTime),
			fmt.Sprintf("%.2fx", leg.TimeOverhead),
			fmt.Sprintf("%.2fx", leg.MessageOverhead),
			fmt.Sprintf("%d", leg.Faults.Retransmissions),
			fmt.Sprintf("%d", leg.Faults.Dropped),
			fmt.Sprintf("%v", leg.Agrees),
		)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	for _, leg := range r.Legs {
		if leg.Spec == "" {
			continue
		}
		fmt.Fprintf(w, "%s: spec %q, solution within %.3g of the fault-free run", leg.Name, leg.Spec, leg.OracleDiff)
		if leg.Faults.Crashes > 0 {
			fmt.Fprintf(w, ", %d crash / %d restart from %d snapshots", leg.Faults.Crashes, leg.Faults.Restarts, leg.Faults.Snapshots)
		}
		fmt.Fprintln(w)
	}
	return nil
}

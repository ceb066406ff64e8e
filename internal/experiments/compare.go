package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dtl"
	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// CompareParams configures the comparison and ablation experiments (the
// Extra E1–E5 rows of DESIGN.md): one torn problem and the stopping rules
// shared by every solver compared.
type CompareParams struct {
	// Spec is the workload, its PartsX×PartsY block tearing and the machine.
	// The delay ablations (E4, E5) take the system and the tearing from it
	// and run them on machines of their own making, PartsX×PartsY meshes.
	Spec dist.SpecV2
	// MaxTime is the virtual horizon (ms) for the continuous-time runs.
	MaxTime float64
	// TargetError is the RMS error at which "time to converge" is read.
	TargetError float64
	// VTMMaxIterations bounds the synchronous VTM reference run.
	VTMMaxIterations int
}

// compareParams is the paper's 16-processor heterogeneous mesh and the
// 1089-unknown grid system of Section 7; quick, the 289-unknown one.
func compareParams(quick bool) CompareParams {
	if quick {
		return CompareParams{Spec: tornOnMesh("poisson:nx=17,ny=17", 4), MaxTime: 8000, TargetError: 1e-4, VTMMaxIterations: 600}
	}
	return CompareParams{Spec: tornOnMesh("poisson:nx=33,ny=33", 4), MaxTime: 15000, TargetError: 1e-6, VTMMaxIterations: 3000}
}

// comparison is the shared workload of one comparison run: the torn problem
// with its reference solution, and the configuration every leg runs under —
// stop at the target RMS error, trace on, the common horizon.
type comparison struct {
	setup
	p    CompareParams
	base core.Config
}

func (p CompareParams) build() (comparison, error) {
	if p.MaxTime <= 0 || p.TargetError <= 0 {
		return comparison{}, fmt.Errorf("experiments: compare params need a positive horizon and target error")
	}
	s, err := build(p.Spec)
	return comparison{s, p, core.Config{
		CommonOptions: core.CommonOptions{Exact: s.exact, StopOnError: p.TargetError, RecordTrace: true},
		MaxTime:       p.MaxTime,
	}}, err
}

// dtm runs the legs and reads one table row off each result.
func (c comparison) dtm(legs ...leg) ([]CompareRow, error) {
	outs, err := c.run(c.base, legs...)
	rows := make([]CompareRow, len(outs))
	for i, o := range outs {
		rows[i] = CompareRow{
			Solver:       o.label,
			FinalRMS:     o.RMSError,
			TimeToTarget: o.TimeToError(c.p.TargetError),
			Iterations:   o.SyncSweepsDone, // the mixed engine's barrier sweeps; 0 for plain DTM
			Solves:       o.Solves,
			Messages:     o.Messages,
			Converged:    o.Converged,
		}
	}
	return rows, err
}

func (c comparison) result(title string, rows []CompareRow, notes ...string) *CompareResult {
	return &CompareResult{Title: title, N: c.prob.System.Dim(), Target: c.p.TargetError, Rows: rows, Notes: notes}
}

// CompareRow is one solver's line in a comparison table.
type CompareRow struct {
	// Solver names the method and its configuration.
	Solver string
	// FinalRMS is the RMS error when the run stopped.
	FinalRMS float64
	// TimeToTarget is the virtual time (ms) at which the RMS error first
	// reached the target; NaN if it never did. For the synchronous methods it
	// is the equivalent virtual time (iterations × slowest round-trip) so the
	// asynchronous and synchronous columns are directly comparable.
	TimeToTarget float64
	// Iterations is the sweep count for synchronous methods (0 for DTM).
	Iterations int
	// Solves is the total number of local solves across all subdomains.
	Solves int
	// Messages is the total number of point-to-point messages delivered.
	Messages int
	// Converged reports whether the target was reached within the budget.
	Converged bool
}

// CompareResult is a rendered comparison experiment.
type CompareResult struct {
	Title  string
	N      int
	Target float64
	Rows   []CompareRow
	Notes  []string
}

// Render implements Renderer.
func (r *CompareResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "%s (n=%d, target RMS error %.1g)\n", r.Title, r.N, r.Target)
	tbl := metrics.NewTable("", "solver", "final-rms", "time-to-target(ms)", "iterations", "solves", "messages", "converged")
	for _, row := range r.Rows {
		t := "never"
		if !math.IsNaN(row.TimeToTarget) {
			t = fmt.Sprintf("%.0f", row.TimeToTarget)
		}
		tbl.AddRow(row.Solver, row.FinalRMS, t, row.Iterations, row.Solves, row.Messages, row.Converged)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	return nil
}

// slowestRoundTrip returns the largest delay(a→b)+delay(b→a) over the directly
// linked processor pairs of a topology — the per-sweep cost synchronous
// block-Jacobi pays on that machine, whose 5-point blocks exchange only along
// mesh links, used to convert its iteration counts into virtual time on the
// same axis as DTM. A VTM sweep costs core.Problem.BarrierCost instead: DTM's
// tear also makes corner-sharing blocks adjacent, and their waves are routed.
func slowestRoundTrip(t *topology.Topology) float64 {
	worst := 0.0
	for _, l := range t.Links() {
		rt := l.Delay + t.LinkDelay(l.To, l.From)
		if rt > worst {
			worst = rt
		}
	}
	return worst
}

// CompareDTMvsVTM reproduces the DTM-versus-VTM discussion of the paper's
// conclusions: VTM (the synchronous special case with unit delays) needs fewer
// sweeps, but on a heterogeneous machine every sweep costs the slowest
// round-trip, whereas DTM's subdomains keep computing at their own pace.
func CompareDTMvsVTM(p CompareParams) (*CompareResult, error) {
	c, err := p.build()
	if err != nil {
		return nil, err
	}
	rows, err := c.dtm(leg{label: "DTM (asynchronous, heterogeneous delays)"})
	if err != nil {
		return nil, err
	}
	outs, err := c.run(c.base, leg{
		label: "VTM (synchronous, one sweep per slowest round-trip)",
		delta: func(cfg *core.Config) { cfg.Engine, cfg.MaxIterations = core.EngineVTM, p.VTMMaxIterations },
	})
	if err != nil {
		return nil, err
	}
	// A VTM trace is indexed by sweep, and a sweep costs one barrier.
	vtm, rt := outs[0], c.prob.BarrierCost()
	rows = append(rows, CompareRow{
		Solver:       vtm.label,
		FinalRMS:     vtm.RMSError,
		TimeToTarget: vtm.TimeToError(p.TargetError) * rt,
		Iterations:   vtm.Iterations,
		Solves:       vtm.Iterations * c.prob.Partition.NumParts(),
		Messages:     vtm.Iterations * 2 * len(c.prob.Partition.Links),
		Converged:    vtm.Converged,
	})
	return c.result("DTM vs. VTM (synchronous special case) on "+c.prob.Topology.Name(), rows,
		fmt.Sprintf("slowest round-trip between adjacent subdomains on this machine: %.0f ms; VTM pays it on every sweep, DTM never waits for it", rt),
		"the paper's conclusion — VTM needs fewer transmissions, DTM needs no synchronisation — corresponds to VTM's lower iteration count and DTM's per-subdomain progress",
	), nil
}

// CompareAsyncJacobi contrasts DTM with the traditional asynchronous
// block-Jacobi (chaotic relaxation) baseline on exactly the same machine,
// partition, and message accounting — the Section 1 claim that classical
// asynchronous iterations are not competitive.
func CompareAsyncJacobi(p CompareParams) (*CompareResult, error) {
	c, err := p.build()
	if err != nil {
		return nil, err
	}
	rows, err := c.dtm(leg{label: "DTM"})
	if err != nil {
		return nil, err
	}
	sys, assign := c.prob.System, c.prob.Partition.Assign

	aj, err := iterative.AsyncBlockJacobi(sys.A, sys.B, assign, c.prob.Topology, iterative.AsyncOptions{
		MaxTime: p.MaxTime, Exact: c.exact, RecordTrace: true,
	})
	if err != nil {
		return nil, err
	}
	ajTime := math.NaN()
	for _, tp := range aj.Trace {
		if tp.RMSError <= p.TargetError {
			ajTime = tp.Time
			break
		}
	}
	rows = append(rows, CompareRow{
		Solver:       "asynchronous block-Jacobi (chaotic relaxation)",
		FinalRMS:     aj.RMSError,
		TimeToTarget: ajTime,
		Solves:       aj.Solves,
		Messages:     aj.Messages,
		Converged:    !math.IsNaN(ajTime),
	})

	_, bj, err := iterative.BlockJacobi(sys.A, sys.B, assign, iterative.Config{MaxIterations: p.VTMMaxIterations, Tol: 1e-12, Exact: c.exact})
	if err != nil {
		return nil, err
	}
	bjTime, bjFinal := math.NaN(), math.NaN()
	for k, e := range bj.ErrorTrace {
		if e <= p.TargetError {
			bjTime = float64(k+1) * slowestRoundTrip(c.prob.Topology)
			break
		}
	}
	if n := len(bj.ErrorTrace); n > 0 {
		bjFinal = bj.ErrorTrace[n-1]
	}
	rows = append(rows, CompareRow{
		Solver:       "synchronous block-Jacobi (one sweep per slowest round-trip)",
		FinalRMS:     bjFinal,
		TimeToTarget: bjTime,
		Iterations:   bj.Iterations,
		Solves:       bj.Iterations * assign.Parts,
		Converged:    !math.IsNaN(bjTime),
	})
	return c.result("DTM vs. asynchronous block-Jacobi on "+c.prob.Topology.Name(), rows,
		"all three solvers use the same 16-block partition; DTM and async block-Jacobi also share the discrete-event machine model",
	), nil
}

// AblationImpedance measures how the characteristic-impedance strategy changes
// the convergence speed of DTM on a realistic mesh problem — the system-level
// counterpart of the Fig. 9 sweep on the 4-unknown example.
func AblationImpedance(p CompareParams) (*CompareResult, error) {
	c, err := p.build()
	if err != nil {
		return nil, err
	}
	var legs []leg
	for _, s := range []dtl.ImpedanceStrategy{
		dtl.Constant{Z: 0.05}, dtl.Constant{Z: 0.5}, dtl.Constant{Z: 5},
		dtl.DiagScaled{Alpha: 0.5}, dtl.DiagScaled{Alpha: 1}, dtl.DiagScaled{Alpha: 2},
	} {
		legs = append(legs, leg{label: "DTM, Z = " + s.Name(), delta: func(cfg *core.Config) { cfg.Impedance = s }})
	}
	rows, err := c.dtm(legs...)
	if err != nil {
		return nil, err
	}
	return c.result("Ablation — characteristic-impedance strategy", rows,
		"Theorem 6.1: every positive impedance converges; the strategy only changes the speed (Fig. 9 on the small example, this table on a mesh problem)",
	), nil
}

// AblationDelays sweeps the heterogeneity of the communication delays (the
// max/min ratio of the mesh links) and records how DTM's convergence time
// degrades — the sensitivity study behind the paper's claim that DTM is at
// home on "terrible" parallel environments.
func AblationDelays(p CompareParams) (*CompareResult, error) {
	c, err := p.build()
	if err != nil {
		return nil, err
	}
	px, py := p.Spec.PartsX, p.Spec.PartsY
	var legs []leg
	for i, ratio := range []float64{1, 3, 10, 30} {
		name := fmt.Sprintf("mesh %dx%d, delays U[10,%.0f] ms", px, py, 10*ratio)
		topo := topology.Mesh(px, py, name, func(_, _ int) float64 { return 10 })
		if ratio != 1 {
			topo = topology.MeshUniformRandom(px, py, 10, 10*ratio, int64(1000+i), name)
		}
		legs = append(legs, leg{label: name, topo: topo})
	}
	rows, err := c.dtm(legs...)
	if err != nil {
		return nil, err
	}
	return c.result("Ablation — delay heterogeneity (uniform 10 ms base, max/min ratio swept)", rows,
		"convergence never breaks as the delays become more heterogeneous (Theorem 6.1 holds for arbitrary positive delays); only the wall-clock time stretches with the slowest links",
	), nil
}

// AblationMixedSync explores the sync/async middle ground the paper's
// conclusions speculate about ("global-async-local-sync"): the same workload is
// run on a fully heterogeneous mesh, on a clustered mesh whose intra-cluster
// links are fast (local synchrony is nearly free) while inter-cluster links
// stay slow and asymmetric, and on a fully uniform mesh (the VTM-like limit) —
// and, the time-domain variant of the same idea ("async-sync-async-sync"), in
// asynchronous windows on the heterogeneous mesh separated by one global sweep.
func AblationMixedSync(p CompareParams) (*CompareResult, error) {
	c, err := p.build()
	if err != nil {
		return nil, err
	}
	px, py := p.Spec.PartsX, p.Spec.PartsY
	rows, err := c.dtm(
		leg{label: "fully asynchronous (heterogeneous 10–99 ms)", topo: heterogeneousMesh(px, py)},
		leg{label: "global-async-local-sync (1 ms inside 2x2 clusters, 10–99 ms between)", topo: galsMesh(px, py)},
		leg{label: "fully synchronous-like (uniform 10 ms)",
			topo: topology.Mesh(px, py, "uniform 10 ms mesh", func(_, _ int) float64 { return 10 })},
		leg{label: "time-domain mixed (400 ms async windows + 1 sync sweep, heterogeneous mesh)",
			topo:  heterogeneousMesh(px, py),
			delta: func(cfg *core.Config) { cfg.Engine, cfg.AsyncWindow = core.EngineMixed, 400 }},
	)
	if err != nil {
		return nil, err
	}
	return c.result("Ablation — sync/async mixing via the delay structure (GALS)", rows,
		"speeding up the intra-cluster links moves DTM towards its synchronous limit and narrows the speed gap to VTM, as the conclusions conjecture",
		"the time-domain mixed row inserts a globally synchronous sweep after every asynchronous window (core.EngineMixed), the other future-work variant of Section 8",
	), nil
}

// heterogeneousMesh reproduces the Fig. 11-style delay structure for an
// arbitrary mesh size (direction-dependent delays between 10 and 99 ms).
func heterogeneousMesh(px, py int) *topology.Topology {
	if px == 4 && py == 4 {
		return topology.Mesh4x4Paper()
	}
	return topology.MeshUniformRandom(px, py, 10, 99, 411, fmt.Sprintf("heterogeneous %dx%d mesh", px, py))
}

// galsMesh builds a px×py mesh whose links inside each 2×2 processor cluster
// are fast (1 ms) while links crossing cluster boundaries keep heterogeneous
// 10–99 ms delays — the physical-domain "global-async-local-sync" platform.
func galsMesh(px, py int) *topology.Topology {
	base := heterogeneousMesh(px, py)
	t := topology.Mesh(px, py, fmt.Sprintf("GALS %dx%d mesh (2x2 clusters)", px, py), func(from, to int) float64 {
		fx, fy := from%px, from/px
		tx, ty := to%px, to/px
		if fx/2 == tx/2 && fy/2 == ty/2 {
			return 1
		}
		return base.LinkDelay(from, to)
	})
	return t
}

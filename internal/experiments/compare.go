package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/dtl"
	"repro/internal/iterative"
	"repro/internal/metrics"
	"repro/internal/sparse"
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

// DefaultCompareParams uses the paper's 16-processor heterogeneous mesh and the
// 1089-unknown grid system of Section 7.
func DefaultCompareParams() CompareParams {
	return CompareParams{
		Spec:             tornOnMesh("poisson:nx=33,ny=33", 4),
		MaxTime:          15000,
		TargetError:      1e-6,
		VTMMaxIterations: 3000,
	}
}

// QuickCompareParams is a reduced configuration for tests and -short benches.
func QuickCompareParams() CompareParams {
	return CompareParams{
		Spec:             tornOnMesh("poisson:nx=17,ny=17", 4),
		MaxTime:          8000,
		TargetError:      1e-4,
		VTMMaxIterations: 600,
	}
}

// comparisonSetup bundles the shared pieces of one comparison run: the torn
// problem on the configured machine, its system and its reference solution.
type comparisonSetup struct {
	sys   sparse.System
	exact sparse.Vec
	prob  *core.Problem
}

// buildComparison materialises the shared workload of a comparison experiment.
func (p CompareParams) buildComparison() (comparisonSetup, error) {
	var shared comparisonSetup
	if p.MaxTime <= 0 || p.TargetError <= 0 {
		return shared, fmt.Errorf("experiments: compare params need a positive horizon and target error")
	}
	var err error
	shared.prob, err = p.Spec.Build()
	if err != nil {
		return shared, err
	}
	shared.sys = shared.prob.System
	shared.exact, err = Reference(shared.sys)
	return shared, err
}

// on moves the shared problem — same system, same tearing — onto another
// machine.
func (c comparisonSetup) on(topo *topology.Topology) (*core.Problem, error) {
	return core.NewProblem(c.sys, c.prob.Partition, topo, nil)
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
// linked processor pairs of a topology — the per-sweep cost a globally
// synchronous method pays on that machine, used to convert iteration counts of
// VTM and synchronous block-Jacobi into virtual time on the same axis as DTM.
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
	shared, err := p.buildComparison()
	if err != nil {
		return nil, err
	}
	out := &CompareResult{
		Title:  "DTM vs. VTM (synchronous special case) on " + shared.prob.Topology.Name(),
		N:      shared.sys.Dim(),
		Target: p.TargetError,
	}

	dtmRes, err := core.Solve(context.Background(), shared.prob, core.Config{
		CommonOptions: core.CommonOptions{
			Exact:       shared.exact,
			StopOnError: p.TargetError,
			RecordTrace: true,
		},
		MaxTime: p.MaxTime,
	})
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, CompareRow{
		Solver:       "DTM (asynchronous, heterogeneous delays)",
		FinalRMS:     dtmRes.RMSError,
		TimeToTarget: dtmRes.TimeToError(p.TargetError),
		Solves:       dtmRes.Solves,
		Messages:     dtmRes.Messages,
		Converged:    dtmRes.Converged,
	})

	vtmRes, err := core.Solve(context.Background(), shared.prob, core.Config{
		CommonOptions: core.CommonOptions{
			Exact:       shared.exact,
			StopOnError: p.TargetError,
			RecordTrace: true,
		},
		Engine:        core.EngineVTM,
		MaxIterations: p.VTMMaxIterations,
	})
	if err != nil {
		return nil, err
	}
	rt := slowestRoundTrip(shared.prob.Topology)
	vtmIterToTarget := math.NaN()
	for _, tp := range vtmRes.Trace {
		if !math.IsNaN(tp.RMSError) && tp.RMSError <= p.TargetError {
			vtmIterToTarget = tp.Time
			break
		}
	}
	vtmTime := math.NaN()
	if !math.IsNaN(vtmIterToTarget) {
		vtmTime = vtmIterToTarget * rt
	}
	out.Rows = append(out.Rows, CompareRow{
		Solver:       "VTM (synchronous, one sweep per slowest round-trip)",
		FinalRMS:     vtmRes.RMSError,
		TimeToTarget: vtmTime,
		Iterations:   vtmRes.Iterations,
		Solves:       vtmRes.Iterations * shared.prob.Partition.NumParts(),
		Messages:     vtmRes.Iterations * 2 * len(shared.prob.Partition.Links),
		Converged:    vtmRes.Converged,
	})
	out.Notes = append(out.Notes,
		fmt.Sprintf("slowest round-trip on this machine: %.0f ms; VTM pays it on every sweep, DTM never waits for it", rt),
		"the paper's conclusion — VTM needs fewer transmissions, DTM needs no synchronisation — corresponds to VTM's lower iteration count and DTM's per-subdomain progress",
	)
	return out, nil
}

// CompareAsyncJacobi contrasts DTM with the traditional asynchronous
// block-Jacobi (chaotic relaxation) baseline on exactly the same machine,
// partition, and message accounting — the Section 1 claim that classical
// asynchronous iterations are not competitive.
func CompareAsyncJacobi(p CompareParams) (*CompareResult, error) {
	shared, err := p.buildComparison()
	if err != nil {
		return nil, err
	}
	out := &CompareResult{
		Title:  "DTM vs. asynchronous block-Jacobi on " + shared.prob.Topology.Name(),
		N:      shared.sys.Dim(),
		Target: p.TargetError,
	}

	dtmRes, err := core.Solve(context.Background(), shared.prob, core.Config{
		CommonOptions: core.CommonOptions{
			Exact:       shared.exact,
			StopOnError: p.TargetError,
			RecordTrace: true,
		},
		MaxTime: p.MaxTime,
	})
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, CompareRow{
		Solver:       "DTM",
		FinalRMS:     dtmRes.RMSError,
		TimeToTarget: dtmRes.TimeToError(p.TargetError),
		Solves:       dtmRes.Solves,
		Messages:     dtmRes.Messages,
		Converged:    dtmRes.Converged,
	})

	assign := shared.prob.Partition.Assign
	ajRes, err := iterative.AsyncBlockJacobi(shared.sys.A, shared.sys.B, assign, shared.prob.Topology, iterative.AsyncOptions{
		MaxTime:     p.MaxTime,
		Exact:       shared.exact,
		RecordTrace: true,
	})
	if err != nil {
		return nil, err
	}
	ajTime := math.NaN()
	for _, tp := range ajRes.Trace {
		if !math.IsNaN(tp.RMSError) && tp.RMSError <= p.TargetError {
			ajTime = tp.Time
			break
		}
	}
	out.Rows = append(out.Rows, CompareRow{
		Solver:       "asynchronous block-Jacobi (chaotic relaxation)",
		FinalRMS:     ajRes.RMSError,
		TimeToTarget: ajTime,
		Solves:       ajRes.Solves,
		Messages:     ajRes.Messages,
		Converged:    !math.IsNaN(ajTime),
	})

	syncAssignCfg := iterative.Config{MaxIterations: p.VTMMaxIterations, Tol: 1e-12, Exact: shared.exact}
	_, bjStats, err := iterative.BlockJacobi(shared.sys.A, shared.sys.B, assign, syncAssignCfg)
	if err != nil {
		return nil, err
	}
	rt := slowestRoundTrip(shared.prob.Topology)
	bjIterToTarget := math.NaN()
	for k, e := range bjStats.ErrorTrace {
		if e <= p.TargetError {
			bjIterToTarget = float64(k + 1)
			break
		}
	}
	bjTime := math.NaN()
	if !math.IsNaN(bjIterToTarget) {
		bjTime = bjIterToTarget * rt
	}
	finalBJ := math.NaN()
	if len(bjStats.ErrorTrace) > 0 {
		finalBJ = bjStats.ErrorTrace[len(bjStats.ErrorTrace)-1]
	}
	out.Rows = append(out.Rows, CompareRow{
		Solver:       "synchronous block-Jacobi (one sweep per slowest round-trip)",
		FinalRMS:     finalBJ,
		TimeToTarget: bjTime,
		Iterations:   bjStats.Iterations,
		Solves:       bjStats.Iterations * assign.Parts,
		Converged:    !math.IsNaN(bjTime),
	})
	out.Notes = append(out.Notes,
		"all three solvers use the same 16-block partition; DTM and async block-Jacobi also share the discrete-event machine model",
	)
	return out, nil
}

// AblationImpedance measures how the characteristic-impedance strategy changes
// the convergence speed of DTM on a realistic mesh problem — the system-level
// counterpart of the Fig. 9 sweep on the 4-unknown example.
func AblationImpedance(p CompareParams) (*CompareResult, error) {
	shared, err := p.buildComparison()
	if err != nil {
		return nil, err
	}
	out := &CompareResult{
		Title:  "Ablation — characteristic-impedance strategy",
		N:      shared.sys.Dim(),
		Target: p.TargetError,
	}
	strategies := []dtl.ImpedanceStrategy{
		dtl.Constant{Z: 0.05},
		dtl.Constant{Z: 0.5},
		dtl.Constant{Z: 5},
		dtl.DiagScaled{Alpha: 0.5},
		dtl.DiagScaled{Alpha: 1},
		dtl.DiagScaled{Alpha: 2},
	}
	for _, s := range strategies {
		res, err := core.Solve(context.Background(), shared.prob, core.Config{
			CommonOptions: core.CommonOptions{
				Impedance:   s,
				Exact:       shared.exact,
				StopOnError: p.TargetError,
				RecordTrace: true,
			},
			MaxTime: p.MaxTime,
		})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, CompareRow{
			Solver:       "DTM, Z = " + s.Name(),
			FinalRMS:     res.RMSError,
			TimeToTarget: res.TimeToError(p.TargetError),
			Solves:       res.Solves,
			Messages:     res.Messages,
			Converged:    res.Converged,
		})
	}
	out.Notes = append(out.Notes,
		"Theorem 6.1: every positive impedance converges; the strategy only changes the speed (Fig. 9 on the small example, this table on a mesh problem)",
	)
	return out, nil
}

// AblationDelays sweeps the heterogeneity of the communication delays (the
// max/min ratio of the mesh links) and records how DTM's convergence time
// degrades — the sensitivity study behind the paper's claim that DTM is at
// home on "terrible" parallel environments.
func AblationDelays(p CompareParams) (*CompareResult, error) {
	shared, err := p.buildComparison()
	if err != nil {
		return nil, err
	}
	exact, px, py := shared.exact, p.Spec.PartsX, p.Spec.PartsY
	out := &CompareResult{
		Title:  "Ablation — delay heterogeneity (uniform 10 ms base, max/min ratio swept)",
		N:      shared.sys.Dim(),
		Target: p.TargetError,
	}
	ratios := []float64{1, 3, 10, 30}
	for i, ratio := range ratios {
		var topo *topology.Topology
		name := fmt.Sprintf("mesh %dx%d, delays U[10,%.0f] ms", px, py, 10*ratio)
		if ratio == 1 {
			topo = topology.Mesh(px, py, name, func(_, _ int) float64 { return 10 })
		} else {
			topo = topology.MeshUniformRandom(px, py, 10, 10*ratio, int64(1000+i), name)
		}
		prob, err := shared.on(topo)
		if err != nil {
			return nil, err
		}
		res, err := core.Solve(context.Background(), prob, core.Config{
			CommonOptions: core.CommonOptions{
				Exact:       exact,
				StopOnError: p.TargetError,
				RecordTrace: true,
			},
			MaxTime: p.MaxTime,
		})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, CompareRow{
			Solver:       name,
			FinalRMS:     res.RMSError,
			TimeToTarget: res.TimeToError(p.TargetError),
			Solves:       res.Solves,
			Messages:     res.Messages,
			Converged:    res.Converged,
		})
	}
	out.Notes = append(out.Notes,
		"convergence never breaks as the delays become more heterogeneous (Theorem 6.1 holds for arbitrary positive delays); only the wall-clock time stretches with the slowest links",
	)
	return out, nil
}

// AblationMixedSync explores the sync/async middle ground the paper's
// conclusions speculate about ("global-async-local-sync"): the same workload is
// run on a fully heterogeneous mesh, on a clustered mesh whose intra-cluster
// links are fast (local synchrony is nearly free) while inter-cluster links
// stay slow and asymmetric, and on a fully uniform mesh (the VTM-like limit).
func AblationMixedSync(p CompareParams) (*CompareResult, error) {
	shared, err := p.buildComparison()
	if err != nil {
		return nil, err
	}
	exact, px, py := shared.exact, p.Spec.PartsX, p.Spec.PartsY
	out := &CompareResult{
		Title:  "Ablation — sync/async mixing via the delay structure (GALS)",
		N:      shared.sys.Dim(),
		Target: p.TargetError,
	}

	type variant struct {
		name string
		topo *topology.Topology
	}
	variants := []variant{
		{"fully asynchronous (heterogeneous 10–99 ms)", heterogeneousMesh(px, py)},
		{"global-async-local-sync (1 ms inside 2x2 clusters, 10–99 ms between)", galsMesh(px, py)},
		{"fully synchronous-like (uniform 10 ms)", topology.Mesh(px, py, "uniform 10 ms mesh", func(_, _ int) float64 { return 10 })},
	}
	for _, v := range variants {
		prob, err := shared.on(v.topo)
		if err != nil {
			return nil, err
		}
		res, err := core.Solve(context.Background(), prob, core.Config{
			CommonOptions: core.CommonOptions{
				Exact:       exact,
				StopOnError: p.TargetError,
				RecordTrace: true,
			},
			MaxTime: p.MaxTime,
		})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, CompareRow{
			Solver:       v.name,
			FinalRMS:     res.RMSError,
			TimeToTarget: res.TimeToError(p.TargetError),
			Solves:       res.Solves,
			Messages:     res.Messages,
			Converged:    res.Converged,
		})
	}

	// The time-domain variant of the same idea ("async-sync-async-sync",
	// synchronising once after a period of asynchronisation): asynchronous
	// windows on the heterogeneous mesh separated by one global sweep.
	prob, err := shared.on(heterogeneousMesh(px, py))
	if err != nil {
		return nil, err
	}
	mixed, err := core.Solve(context.Background(), prob, core.Config{
		CommonOptions: core.CommonOptions{
			Exact:       exact,
			StopOnError: p.TargetError,
			RecordTrace: true,
		},
		Engine:      core.EngineMixed,
		MaxTime:     p.MaxTime,
		AsyncWindow: 400,
		SyncSweeps:  1,
	})
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, CompareRow{
		Solver:       "time-domain mixed (400 ms async windows + 1 sync sweep, heterogeneous mesh)",
		FinalRMS:     mixed.RMSError,
		TimeToTarget: mixed.TimeToError(p.TargetError),
		Iterations:   mixed.SyncSweepsDone,
		Solves:       mixed.Solves,
		Messages:     mixed.Messages,
		Converged:    mixed.Converged,
	})

	out.Notes = append(out.Notes,
		"speeding up the intra-cluster links moves DTM towards its synchronous limit and narrows the speed gap to VTM, as the conclusions conjecture",
		"the time-domain mixed row inserts a globally synchronous sweep after every asynchronous window (core.EngineMixed), the other future-work variant of Section 8",
	)
	return out, nil
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

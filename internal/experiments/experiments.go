// Package experiments regenerates every table and figure of the paper's
// evaluation plus the comparisons and ablations listed in DESIGN.md. An
// experiment is a row of Registry: a name, one parameter struct stated at its
// full and its reduced size, and a function from those parameters to a result
// whose Render prints the rows or series the paper reports. Most are lists of
// legs (legs.go) on one torn problem. cmd/dtmbench and the root
// TestAllExperimentsQuick walk the registry.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/dense"
	"repro/internal/iterative"
	"repro/internal/sparse"
)

// Reference computes the reference ("exact") solution of a system: a dense LU
// solve for small systems and a tightly converged conjugate-gradient solve for
// larger ones, which is accurate to ~1e-12 on the well-conditioned SPD systems
// used here and much cheaper than dense factorisation at n = 4225.
func Reference(sys sparse.System) (sparse.Vec, error) {
	if sys.Dim() <= 600 {
		return dense.SolveExact(sys.A, sys.B)
	}
	x, st, err := iterative.CG(sys.A, sys.B, iterative.Config{MaxIterations: 20 * sys.Dim(), Tol: 1e-13})
	if err != nil {
		return nil, err
	}
	if !st.Converged && st.Residual > 1e-10 {
		return nil, fmt.Errorf("experiments: reference CG did not converge (residual %g)", st.Residual)
	}
	return x, nil
}

// Experiment is one registered experiment.
type Experiment struct {
	// Name is what cmd/dtmbench -exp accepts.
	Name string
	// Run executes the experiment — at its reduced size when quick is set —
	// and renders it to w. It fails when a leg misses the agreement bar it
	// declares, after the table that shows which one has been printed.
	Run func(w io.Writer, quick bool) error
}

// Registry lists every experiment in cmd/dtmbench -list order: the paper's
// figures, then E1–E11 of DESIGN.md.
func Registry() []Experiment {
	return []Experiment{
		{"fig8", sized(fig8Params, Fig8)},
		{"fig9", sized(fig9Params, Fig9)},
		{"fig11", func(w io.Writer, _ bool) error { return Fig11().Render(w) }},
		{"fig12", sized(fig12Params, RunMesh)},
		{"fig13", func(w io.Writer, _ bool) error { return Fig13().Render(w) }},
		{"fig14", sized(fig14Params, RunMesh)},
		{"compare-vtm", sized(compareParams, CompareDTMvsVTM)},
		{"compare-async-jacobi", sized(compareParams, CompareAsyncJacobi)},
		{"ablation-impedance", sized(compareParams, AblationImpedance)},
		{"ablation-delays", sized(compareParams, AblationDelays)},
		{"ablation-mixed", sized(compareParams, AblationMixedSync)},
		{"scale-sparse", sized(scaleSparseParams, ScaleSparse)},
		{"fault-sweep", sized(faultSweepParams, FaultSweep, FaultSweepResult.missed)},
		{"solve-throughput", sized(solveThroughputParams, SolveThroughput)},
		{"compare-distributed", sized(compareDistributedParams, CompareDistributed, (*DistributedResult).missed)},
		{"failover-sweep", sized(failoverSweepParams, FailoverSweep, (*DistributedResult).missed)},
		{"spanner-fabric", sized(spannerFabricParams, SpannerFabric, (*SpannerFabricResult).missed)},
	}
}

// renderer is implemented by every experiment result.
type renderer interface {
	Render(w io.Writer) error
}

// sized makes a registry row's Run from an experiment and the one function
// that states its parameters at both sizes. A row whose legs declare
// agreement bars also names the result's check: once the table is out, the
// first leg that missed its bar fails the run.
func sized[P any, R renderer](params func(quick bool) P, run func(P) (R, error), missed ...func(R) error) func(io.Writer, bool) error {
	return func(w io.Writer, quick bool) error {
		r, err := run(params(quick))
		if err != nil {
			return err
		}
		if err := r.Render(w); err != nil {
			return err
		}
		for _, check := range missed {
			if err := check(r); err != nil {
				return err
			}
		}
		return nil
	}
}

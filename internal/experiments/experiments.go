// Package experiments regenerates every table and figure of the paper's
// evaluation plus the comparisons and ablations listed in DESIGN.md. Each
// experiment is a function returning a structured result with a Render method
// that prints the same rows or series the paper reports; the cmd/dtmbench CLI
// and the root bench harness are thin wrappers around this package.
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

// Renderer is implemented by every experiment result.
type Renderer interface {
	Render(w io.Writer) error
}

// Runner executes one named experiment and renders it to w. quick selects a
// reduced problem size suitable for unit tests and -short benchmarks.
type Runner func(w io.Writer, quick bool) error

// runner builds an experiment's Runner from its full-size and reduced
// parameter sets: run it, render the result and — when the result can check
// itself against its oracle (Agrees) — fail if it does not.
func runner[P any, R Renderer](full, reduced func() P, exp func(P) (R, error)) Runner {
	return func(w io.Writer, quick bool) error {
		params := full
		if quick {
			params = reduced
		}
		r, err := exp(params())
		if err != nil {
			return err
		}
		if err := r.Render(w); err != nil {
			return err
		}
		if a, ok := any(r).(interface{ Agrees() bool }); ok && !a.Agrees() {
			return fmt.Errorf("experiments: the runs disagree with their oracle (see table)")
		}
		return nil
	}
}

// Registry maps experiment names (as accepted by cmd/dtmbench -exp) to their
// runners.
func Registry() map[string]Runner {
	quickFig9 := func() Fig9Params {
		p := DefaultFig9Params()
		p.Impedances = p.Impedances[:5]
		return p
	}
	return map[string]Runner{
		"fig8":                 runner(DefaultFig8Params, DefaultFig8Params, Fig8),
		"fig9":                 runner(DefaultFig9Params, quickFig9, Fig9),
		"fig11":                func(w io.Writer, quick bool) error { return Fig11().Render(w) },
		"fig12":                runner(DefaultFig12Params, QuickFig12Params, RunMesh),
		"fig13":                func(w io.Writer, quick bool) error { return Fig13().Render(w) },
		"fig14":                runner(DefaultFig14Params, QuickFig14Params, RunMesh),
		"compare-vtm":          runner(DefaultCompareParams, QuickCompareParams, CompareDTMvsVTM),
		"compare-async-jacobi": runner(DefaultCompareParams, QuickCompareParams, CompareAsyncJacobi),
		"ablation-impedance":   runner(DefaultCompareParams, QuickCompareParams, AblationImpedance),
		"ablation-delays":      runner(DefaultCompareParams, QuickCompareParams, AblationDelays),
		"ablation-mixed":       runner(DefaultCompareParams, QuickCompareParams, AblationMixedSync),
		"scale-sparse":         runner(DefaultScaleSparseParams, QuickScaleSparseParams, ScaleSparse),
		"solve-throughput":     runner(DefaultSolveThroughputParams, QuickSolveThroughputParams, SolveThroughput),
		"fault-sweep": func(w io.Writer, quick bool) error {
			err := runner(DefaultFaultSweepParams, QuickFaultSweepParams, FaultSweep)(w, quick)
			if err != nil || quick {
				return err
			}
			// The full run adds the large-grid leg.
			fmt.Fprintln(w)
			return runner(FullFaultSweepParams, FullFaultSweepParams, FaultSweep)(w, false)
		},
		"failover-sweep":      runner(DefaultFailoverSweepParams, QuickFailoverSweepParams, FailoverSweep),
		"spanner-fabric":      runner(DefaultSpannerFabricParams, QuickSpannerFabricParams, SpannerFabric),
		"compare-distributed": runner(DefaultCompareDistributedParams, QuickCompareDistributedParams, CompareDistributed),
	}
}

// Names returns the registered experiment names in a stable order.
func Names() []string {
	return []string{
		"fig8", "fig9", "fig11", "fig12", "fig13", "fig14",
		"compare-vtm", "compare-async-jacobi",
		"ablation-impedance", "ablation-delays", "ablation-mixed",
		"scale-sparse", "fault-sweep", "solve-throughput",
		"compare-distributed", "failover-sweep", "spanner-fabric",
	}
}

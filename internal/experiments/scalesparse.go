package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/factor"
	"repro/internal/sparse"
)

// ScaleSparseParams configures the E6 scale-sparse experiment: the same
// Poisson-grid family at growing sizes factorised whole through the auto
// policy (which hands the large blocks to the supernodal blocked backend),
// with the dense backends' memory wall and the scalar sparse kernels' speed
// made explicit at the sizes where each comparison is affordable. The
// experiment quantifies the claim behind the factor subsystem: after the
// zero-allocation event core, subdomain factorisation is the scale wall, and
// exploiting sparsity — then dense substructure within the sparse factor —
// moves it by orders of magnitude.
type ScaleSparseParams struct {
	// Sides are the grid side lengths (each system has side² unknowns).
	Sides []int
	// DenseAttemptMax is the largest dimension at which the dense Cholesky
	// backend is actually run for comparison (an O(n³) factorisation; above
	// this it is reported as skipped or — beyond factor.MaxDenseBytes — as
	// failing to allocate).
	DenseAttemptMax int
	// ScalarAttemptMax is the largest dimension at which the scalar
	// up-looking sparse Cholesky is also run, so the supernodal speedup is a
	// measured number rather than a claim.
	ScalarAttemptMax int
	// Solves is the number of factor-once/solve-many solves timed per factor.
	Solves int
	// DTM, when it names a source, also runs a full DTM solve of that torn
	// problem with supernodal local factorisations — the end-to-end pipeline
	// at a size whose subdomains dwarf the old default — bounded by
	// DTMMaxTime and DTMTol.
	DTM                dist.SpecV2
	DTMMaxTime, DTMTol float64
	// NonSPDSide, when positive, adds the non-SPD leg: the symmetric
	// quasi-definite saddle system of a NonSPDSide² grid (plus one multiplier
	// per grid row) handed to the auto policy. Before a sparse LDLᵀ existed
	// this leg could not run at all above the dense cap.
	NonSPDSide int
	// NonSPDSolves is the number of timed solves on the non-SPD leg.
	NonSPDSolves int
}

// scaleSparseParams runs up to a 147456-unknown grid — a system whose dense
// factorisation would need ~500 GiB — the sizes where the scalar up-looking
// kernels dominated runtime before the supernodal backend. Quick stops at
// 128² = 16384 unknowns, already past factor.MaxDenseBytes, so the
// dense-fails/sparse-completes contrast is exercised even there; its smallest
// size keeps the dense comparison branch alive cheaply, and the
// scalar-vs-supernodal comparison runs at every quick size: 128² is exactly
// the block size where the scalar kernels used to dominate the quick runtime.
func scaleSparseParams(quick bool) ScaleSparseParams {
	if quick {
		return ScaleSparseParams{
			Sides:            []int{16, 64, 128},
			DenseAttemptMax:  1200,
			ScalarAttemptMax: 5000,
			Solves:           5,
			DTM:              dist.SpecV2{V: 2, Source: "poisson:nx=64,ny=64", PartsX: 2, PartsY: 2},
			DTMMaxTime:       2000,
			DTMTol:           1e-6,
			NonSPDSide:       128,
			NonSPDSolves:     5,
		}
	}
	return ScaleSparseParams{
		Sides:            []int{32, 64, 128, 256, 384},
		DenseAttemptMax:  1200,
		ScalarAttemptMax: 70000,
		Solves:           10,
		DTM:              dist.SpecV2{V: 2, Source: "poisson:nx=128,ny=128", PartsX: 2, PartsY: 2},
		DTMMaxTime:       4000,
		DTMTol:           1e-8,
		NonSPDSide:       256,
		NonSPDSolves:     10,
	}
}

// ScaleSparseRow is the measurement at one grid size.
type ScaleSparseRow struct {
	Side, N, NNZ int
	Backend      string // what the auto policy picked
	Supernodes   int    // supernode count when the supernodal backend ran
	NNZL         int
	FillRatio    float64 // nnz(L) / nnz(tril(A))
	FactorMS     float64
	SolveMS      float64 // per solve, averaged over Solves
	Residual     float64

	ScalarStatus   string  // "" when the scalar backend was not attempted
	ScalarFactorMS float64 // scalar up-looking sparse Cholesky, for comparison
	ScalarSpeedup  float64 // scalar factor time / auto factor time

	// The ordering comparison: the same system analysed symbolically under
	// the banded RCM ordering and under nested dissection, so the ND fill and
	// flop gains are measured columns rather than claims. OrdStatus is "" when
	// the comparison was not attempted (the auto policy stayed off the
	// supernodal backend at this size).
	OrdStatus string
	NDNNZL    int
	NDFlops   float64
	RCMNNZL   int
	RCMFlops  float64

	DenseBytes     int64 // what the dense backend would have to allocate
	DenseStatus    string
	DenseFactorMS  float64 // only when the dense backend was actually run
	DenseSpeedupVs float64 // dense factor time / auto factor time
}

// ScaleSparseNonSPD is the non-SPD leg of E6: a symmetric quasi-definite
// system past the dense memory cap, factorised through the auto policy (the
// supernodal backend's LDLᵀ mode).
type ScaleSparseNonSPD struct {
	N, NNZ, NNZL       int
	Backend, Ordering  string
	Mode               string
	Supernodes         int
	PosPivots          int
	NegPivots          int
	ZeroPivots         int
	FactorMS, SolveMS  float64
	Residual           float64
	DenseBytes         int64
	DenseWouldAllocate bool // whether the old dense-LU fallback could even run
}

// ScaleSparseResult is the E6 reproduction artifact.
type ScaleSparseResult struct {
	Rows   []ScaleSparseRow
	NonSPD *ScaleSparseNonSPD
	// DTM is the end-to-end leg, on DTMProcs subdomains.
	DTM      *core.Result
	DTMProcs int
}

// ScaleSparse runs E6.
func ScaleSparse(p ScaleSparseParams) (*ScaleSparseResult, error) {
	out := &ScaleSparseResult{}
	for _, side := range p.Sides {
		sys := sparse.Poisson2D(side, side, 0.05)
		n := sys.Dim()
		row := ScaleSparseRow{Side: side, N: n, NNZ: sys.A.NNZ(), DenseBytes: factor.DenseBytesNeeded(n)}

		start := time.Now()
		sol, err := factor.New(factor.Auto, sys.A)
		if err != nil {
			return nil, fmt.Errorf("experiments: auto factorisation of n=%d: %w", n, err)
		}
		row.FactorMS = float64(time.Since(start).Microseconds()) / 1000
		row.Backend = sol.Backend()
		switch f := sol.(type) {
		case *factor.Supernodal:
			row.NNZL = f.NNZL()
			row.Supernodes = f.Supernodes()
		case *factor.Cholesky:
			row.NNZL = f.NNZL()
		}
		row.FillRatio = float64(row.NNZL) / float64((sys.A.NNZ()+n)/2)

		x := sparse.NewVec(n)
		start = time.Now()
		for s := 0; s < p.Solves; s++ {
			sol.SolveTo(x, sys.B)
		}
		row.SolveMS = float64(time.Since(start).Microseconds()) / 1000 / float64(max(p.Solves, 1))
		row.Residual = sys.A.Residual(x, sys.B).Norm2() / sys.B.Norm2()

		// The scalar up-looking backend, where affordable and where the
		// comparison is meaningful (auto picked the supernodal kernels): the
		// measured baseline the supernodal backend is judged against.
		if n <= p.ScalarAttemptMax && row.Backend == factor.SparseSupernodal {
			start = time.Now()
			if _, serr := factor.New(factor.SparseCholesky, sys.A); serr != nil {
				return nil, fmt.Errorf("experiments: scalar sparse factorisation of n=%d: %w", n, serr)
			}
			row.ScalarFactorMS = float64(time.Since(start).Microseconds()) / 1000
			if row.FactorMS > 0 {
				row.ScalarSpeedup = row.ScalarFactorMS / row.FactorMS
			}
			row.ScalarStatus = "ok"
		}

		// The ordering comparison: the same grid analysed supernodally under
		// RCM (banded, path etree) and under nested dissection (separator
		// fill, bushy etree). Symbolic phase only — fill and flops are both
		// decided there, so the comparison costs milliseconds and stays out of
		// the measured factor/solve times. Run wherever the auto policy picked
		// the supernodal backend — the sizes where ordering quality decides
		// the factorisation cost.
		if row.Backend == factor.SparseSupernodal {
			rcm, rerr := factor.AnalyzeSupernodal(sys.A, factor.OrderRCM)
			nd, nerr := factor.AnalyzeSupernodal(sys.A, factor.OrderND)
			if rerr != nil || nerr != nil {
				return nil, fmt.Errorf("experiments: ordering comparison at n=%d: rcm %v, nd %v", n, rerr, nerr)
			}
			row.OrdStatus = "ok"
			row.RCMNNZL, row.RCMFlops = rcm.NNZL, rcm.Flops
			row.NDNNZL, row.NDFlops = nd.NNZL, nd.Flops
		}

		switch {
		case n <= p.DenseAttemptMax:
			start = time.Now()
			dsol, derr := factor.New(factor.DenseCholesky, sys.A)
			if derr != nil {
				return nil, fmt.Errorf("experiments: dense factorisation of n=%d: %w", n, derr)
			}
			row.DenseFactorMS = float64(time.Since(start).Microseconds()) / 1000
			if row.FactorMS > 0 {
				row.DenseSpeedupVs = row.DenseFactorMS / row.FactorMS
			}
			dsol.SolveTo(x, sys.B)
			row.DenseStatus = "ok"
		case factor.DenseFeasible(n) != nil:
			// The wall E6 exists to demonstrate: the dense backend refuses the
			// allocation outright; only the sparse backends reach this size.
			err := factor.DenseFeasible(n)
			if !errors.Is(err, factor.ErrDenseTooLarge) {
				return nil, fmt.Errorf("experiments: unexpected dense feasibility error: %w", err)
			}
			row.DenseStatus = fmt.Sprintf("FAILS TO ALLOCATE (%.1f GiB > cap)", float64(row.DenseBytes)/(1<<30))
		default:
			row.DenseStatus = "skipped (O(n³) factor too slow at this size)"
		}
		out.Rows = append(out.Rows, row)
	}

	if p.NonSPDSide > 0 {
		sys := sparse.SaddlePoisson2D(p.NonSPDSide, p.NonSPDSide, 1e-2)
		n := sys.Dim()
		leg := &ScaleSparseNonSPD{
			N:                  n,
			NNZ:                sys.A.NNZ(),
			DenseBytes:         factor.DenseBytesNeeded(n),
			DenseWouldAllocate: factor.DenseFeasible(n) == nil,
		}
		start := time.Now()
		sol, err := factor.New(factor.Auto, sys.A)
		if err != nil {
			return nil, fmt.Errorf("experiments: auto factorisation of the non-SPD n=%d system: %w", n, err)
		}
		leg.FactorMS = float64(time.Since(start).Microseconds()) / 1000
		leg.Backend = sol.Backend()
		if f, ok := sol.(*factor.Supernodal); ok {
			leg.NNZL = f.NNZL()
			leg.Ordering = f.Ordering().String()
			leg.Mode = f.Mode().String()
			leg.Supernodes = f.Supernodes()
			leg.PosPivots, leg.NegPivots, leg.ZeroPivots = f.Inertia()
		}
		x := sparse.NewVec(n)
		start = time.Now()
		for s := 0; s < p.NonSPDSolves; s++ {
			sol.SolveTo(x, sys.B)
		}
		leg.SolveMS = float64(time.Since(start).Microseconds()) / 1000 / float64(max(p.NonSPDSolves, 1))
		leg.Residual = sys.A.Residual(x, sys.B).Norm2() / sys.B.Norm2()
		out.NonSPD = leg
	}

	if p.DTM.Source != "" {
		prob, err := p.DTM.Build()
		if err != nil {
			return nil, err
		}
		outs, err := setup{prob: prob}.run(core.Config{
			CommonOptions: core.CommonOptions{Tol: p.DTMTol, Factor: factor.Settings{Backend: factor.SparseSupernodal}},
			MaxTime:       p.DTMMaxTime,
		}, leg{label: "DTM end-to-end"})
		if err != nil {
			return nil, err
		}
		out.DTM, out.DTMProcs = outs[0].Result, p.DTM.Parts()
	}
	return out, nil
}

// Render implements Renderer.
func (r *ScaleSparseResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "E6 — scale-sparse: supernodal whole-system factorisation vs the scalar kernels and the dense memory wall")
	fmt.Fprintf(w, "%8s %8s %-18s %9s %7s %7s %10s %10s %10s  %s\n",
		"n", "nnz(A)", "backend", "nnz(L)", "fill", "factor", "solve", "residual", "scalar", "dense backend")
	for _, row := range r.Rows {
		backend := row.Backend
		if row.Supernodes > 0 {
			backend = fmt.Sprintf("%s/%d", row.Backend, row.Supernodes)
		}
		scalar := "-"
		if row.ScalarStatus == "ok" {
			scalar = fmt.Sprintf("%.1fms=%.1fx", row.ScalarFactorMS, row.ScalarSpeedup)
		}
		fmt.Fprintf(w, "%8d %8d %-18s %9d %6.2fx %5.1fms %8.3fms %10.2e %10s  %s",
			row.N, row.NNZ, backend, row.NNZL, row.FillRatio, row.FactorMS, row.SolveMS, row.Residual,
			scalar, row.DenseStatus)
		if row.DenseStatus == "ok" {
			fmt.Fprintf(w, " (%.1fms, %.1fx the sparse factor)", row.DenseFactorMS, row.DenseSpeedupVs)
		}
		fmt.Fprintln(w)
		if row.OrdStatus == "ok" {
			fmt.Fprintf(w, "%8s nd vs rcm: nnz(L) %d vs %d (%.2fx), flops %.3g vs %.3g (%.2fx)\n",
				"", row.NDNNZL, row.RCMNNZL, float64(row.NDNNZL)/float64(row.RCMNNZL),
				row.NDFlops, row.RCMFlops, row.NDFlops/row.RCMFlops)
		}
	}
	if r.NonSPD != nil {
		l := r.NonSPD
		fmt.Fprintf(w, "\nnon-SPD leg (symmetric quasi-definite saddle system): n=%d, nnz=%d\n", l.N, l.NNZ)
		fmt.Fprintf(w, "  auto picked %s in %s mode (%s ordering, %d supernodes): nnz(L)=%d, inertia (%d+, %d-, %d zero), factor %.1fms, solve %.3fms, relative residual %.3g\n",
			l.Backend, l.Mode, l.Ordering, l.Supernodes, l.NNZL, l.PosPivots, l.NegPivots, l.ZeroPivots, l.FactorMS, l.SolveMS, l.Residual)
		if !l.DenseWouldAllocate {
			fmt.Fprintf(w, "  the pre-LDLT fallback chain could not run this system at all: dense LU would need %.1f GiB > cap\n",
				float64(l.DenseBytes)/(1<<30))
		}
	}
	if r.DTM != nil {
		fmt.Fprintf(w, "\nDTM end-to-end with %s local solvers: n=%d on %d processors: converged=%v at t=%.0f, %d local solves, %d messages, relative residual %.3g\n",
			factor.SparseSupernodal, len(r.DTM.X), r.DTMProcs, r.DTM.Converged, r.DTM.FinalTime, r.DTM.Solves, r.DTM.Messages, r.DTM.Residual)
	}
	return nil
}

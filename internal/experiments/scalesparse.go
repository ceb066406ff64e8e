package experiments

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/factor"
	"repro/internal/sparse"
)

// ScaleSparseParams configures the E6 scale-sparse experiment: the same
// Poisson-grid family at growing sizes factorised whole through the auto
// policy (which hands the large blocks to the supernodal blocked backend),
// with the dense backends' memory wall made explicit. Every column is exact:
// what the factorisation is (backend, supernodes, fill, the flops nested
// dissection saves over RCM, inertia) and how well it solves, never how long
// it took — timing is the benchmark's (bench/) and factor's microbenchmarks'.
type ScaleSparseParams struct {
	// Sides are the grid side lengths (each system has side² unknowns).
	Sides []int
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
}

// scaleSparseParams runs up to a 147456-unknown grid — a system whose dense
// factorisation would need ~500 GiB. Quick stops at 128² = 16384 unknowns,
// already past factor.MaxDenseBytes, so the dense-fails/sparse-completes
// contrast shows even there; its smallest size is one the dense backend
// would still fit.
func scaleSparseParams(quick bool) ScaleSparseParams {
	if quick {
		return ScaleSparseParams{
			Sides:      []int{16, 64, 128},
			DTM:        dist.SpecV2{V: 2, Source: "poisson:nx=64,ny=64", PartsX: 2, PartsY: 2},
			DTMMaxTime: 2000,
			DTMTol:     1e-6,
			NonSPDSide: 128,
		}
	}
	return ScaleSparseParams{
		Sides:      []int{32, 64, 128, 256, 384},
		DTM:        dist.SpecV2{V: 2, Source: "poisson:nx=128,ny=128", PartsX: 2, PartsY: 2},
		DTMMaxTime: 4000,
		DTMTol:     1e-8,
		NonSPDSide: 256,
	}
}

// ScaleSparseRow is the measurement at one grid size.
type ScaleSparseRow struct {
	N, NNZ     int
	Backend    string // what the auto policy picked
	Supernodes int    // supernode count when the supernodal backend ran
	NNZL       int
	FillRatio  float64 // nnz(L) / nnz(tril(A))
	Residual   float64

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

	DenseBytes  int64  // what the dense backend would have to allocate
	DenseStatus string // factor.DenseFeasible's verdict on it
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
		row := ScaleSparseRow{N: n, NNZ: sys.A.NNZ(), DenseBytes: factor.DenseBytesNeeded(n)}

		sol, err := factor.New(factor.Auto, sys.A)
		if err != nil {
			return nil, fmt.Errorf("experiments: auto factorisation of n=%d: %w", n, err)
		}
		row.Backend = sol.Backend()
		switch f := sol.(type) {
		case *factor.Supernodal:
			row.NNZL = f.NNZL()
			row.Supernodes = f.Supernodes()
		case *factor.Cholesky:
			row.NNZL = f.NNZL()
		}
		row.FillRatio = float64(row.NNZL) / float64((sys.A.NNZ()+n)/2)
		row.Residual = solveResidual(sys, sol)

		// The ordering comparison: the same grid analysed supernodally under
		// RCM (banded, path etree) and under nested dissection (separator
		// fill, bushy etree). Symbolic phase only — fill and flops are both
		// decided there. Run wherever the auto policy picked the supernodal
		// backend — the sizes where ordering quality decides the
		// factorisation cost.
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

		// The wall E6 exists to demonstrate: past the cap the dense backend
		// refuses the allocation outright; only the sparse backends reach
		// such a size.
		switch err := factor.DenseFeasible(n); {
		case err == nil:
			row.DenseStatus = fmt.Sprintf("fits (%.1f MiB)", float64(row.DenseBytes)/(1<<20))
		case errors.Is(err, factor.ErrDenseTooLarge):
			row.DenseStatus = fmt.Sprintf("FAILS TO ALLOCATE (%.1f GiB > cap)", float64(row.DenseBytes)/(1<<30))
		default:
			return nil, fmt.Errorf("experiments: unexpected dense feasibility error: %w", err)
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
		sol, err := factor.New(factor.Auto, sys.A)
		if err != nil {
			return nil, fmt.Errorf("experiments: auto factorisation of the non-SPD n=%d system: %w", n, err)
		}
		leg.Backend = sol.Backend()
		if f, ok := sol.(*factor.Supernodal); ok {
			leg.NNZL = f.NNZL()
			leg.Ordering = f.Ordering().String()
			leg.Mode = f.Mode().String()
			leg.Supernodes = f.Supernodes()
			leg.PosPivots, leg.NegPivots, leg.ZeroPivots = f.Inertia()
		}
		leg.Residual = solveResidual(sys, sol)
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

// solveResidual solves the system once with its factor and returns the
// relative residual ‖b − A·x‖₂/‖b‖₂.
func solveResidual(sys sparse.System, sol factor.LocalSolver) float64 {
	x := sparse.NewVec(sys.Dim())
	sol.SolveTo(x, sys.B)
	return sys.A.RelResidual(x, sys.B)
}

// Render implements Renderer.
func (r *ScaleSparseResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "E6 — scale-sparse: supernodal whole-system factorisation and the dense memory wall")
	fmt.Fprintf(w, "%8s %8s %-22s %9s %7s %10s  %s\n",
		"n", "nnz(A)", "backend", "nnz(L)", "fill", "residual", "dense backend")
	for _, row := range r.Rows {
		backend := row.Backend
		if row.Supernodes > 0 {
			backend = fmt.Sprintf("%s/%d", row.Backend, row.Supernodes)
		}
		fmt.Fprintf(w, "%8d %8d %-22s %9d %6.2fx %10.2e  %s\n",
			row.N, row.NNZ, backend, row.NNZL, row.FillRatio, row.Residual, row.DenseStatus)
		if row.OrdStatus == "ok" {
			fmt.Fprintf(w, "%8s nd vs rcm: nnz(L) %d vs %d (%.2fx), flops %.3g vs %.3g (%.2fx)\n",
				"", row.NDNNZL, row.RCMNNZL, float64(row.NDNNZL)/float64(row.RCMNNZL),
				row.NDFlops, row.RCMFlops, row.NDFlops/row.RCMFlops)
		}
	}
	if r.NonSPD != nil {
		l := r.NonSPD
		fmt.Fprintf(w, "\nnon-SPD leg (symmetric quasi-definite saddle system): n=%d, nnz=%d\n", l.N, l.NNZ)
		fmt.Fprintf(w, "  auto picked %s in %s mode (%s ordering, %d supernodes): nnz(L)=%d, inertia (%d+, %d-, %d zero), relative residual %.3g\n",
			l.Backend, l.Mode, l.Ordering, l.Supernodes, l.NNZL, l.PosPivots, l.NegPivots, l.ZeroPivots, l.Residual)
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

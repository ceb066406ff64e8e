package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/dense"
	"repro/internal/dtl"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/topology"
)

// paperTearing reproduces Example 4.1 exactly: the 4-unknown system of (3.2)
// is torn at V2 and V3 (global indices 1 and 2) with the paper's weight,
// source and edge splits, yielding the two subsystems (4.1) and (4.2).
func paperTearing(t *testing.T) (sparse.System, *partition.Result) {
	t.Helper()
	sys := sparse.PaperExample()
	g, err := graph.FromSystem(sys.A, sys.B)
	if err != nil {
		t.Fatalf("building electric graph: %v", err)
	}
	assign := partition.Assignment{Parts: 2, Assign: []int{0, 0, 1, 1}}
	opts := partition.Options{
		Boundary: []int{1, 2},
		VertexSplit: func(global int, parts []int, weight, source float64) ([]float64, []float64) {
			switch global {
			case 1: // V2: 6 -> 2.5 + 3.5, source 2 -> 0.8 + 1.2
				return []float64{2.5, 3.5}, []float64{0.8, 1.2}
			case 2: // V3: 7 -> 3.3 + 3.7, source 3 -> 1.6 + 1.4
				return []float64{3.3, 3.7}, []float64{1.6, 1.4}
			}
			t.Fatalf("unexpected split vertex %d", global)
			return nil, nil
		},
		EdgeSplit: func(u, v int, weight float64) (float64, float64) {
			if u == 1 && v == 2 {
				return -0.9, -1.1 // the −2 edge between V2 and V3
			}
			t.Fatalf("unexpected split edge {%d,%d}", u, v)
			return 0, 0
		},
	}
	res, err := partition.EVS(g, assign, opts)
	if err != nil {
		t.Fatalf("EVS: %v", err)
	}
	return sys, res
}

// paperImpedances are the Example 5.1 choices: Z = 0.2 between V2a/V2b and
// Z = 0.1 between V3a/V3b.
func paperImpedances() dtl.ImpedanceStrategy {
	return dtl.PerVertex{Values: map[int]float64{1: 0.2, 2: 0.1}}
}

func TestPaperTearingReproducesSubsystems(t *testing.T) {
	_, res := paperTearing(t)
	if got := res.NumParts(); got != 2 {
		t.Fatalf("NumParts = %d, want 2", got)
	}
	if got := len(res.Links); got != 2 {
		t.Fatalf("number of twin links = %d, want 2", got)
	}

	// Subdomain 0 must be (4.1) with vertex order V2a, V3a, V1.
	want0 := sparse.NewCSRFromDense([][]float64{
		{2.5, -0.9, -1},
		{-0.9, 3.3, -1},
		{-1, -1, 5},
	}, 0)
	wantB0 := sparse.Vec{0.8, 1.6, 1}
	sub0 := res.Subdomains[0]
	if sub0.NumPorts != 2 || sub0.Dim() != 3 {
		t.Fatalf("subdomain 0 has %d ports and dim %d, want 2 and 3", sub0.NumPorts, sub0.Dim())
	}
	if !sub0.A.EqualApprox(want0, 1e-12) {
		t.Errorf("subdomain 0 matrix mismatch:\ngot %v\nwant %v", sub0.A, want0)
	}
	if !sub0.B.Equal(wantB0, 1e-12) {
		t.Errorf("subdomain 0 rhs = %v, want %v", sub0.B, wantB0)
	}

	// Subdomain 1 must be (4.2) with vertex order V2b, V3b, V4.
	want1 := sparse.NewCSRFromDense([][]float64{
		{3.5, -1.1, -1},
		{-1.1, 3.7, -2},
		{-1, -2, 8},
	}, 0)
	wantB1 := sparse.Vec{1.2, 1.4, 4}
	sub1 := res.Subdomains[1]
	if !sub1.A.EqualApprox(want1, 1e-12) {
		t.Errorf("subdomain 1 matrix mismatch:\ngot %v\nwant %v", sub1.A, want1)
	}
	if !sub1.B.Equal(wantB1, 1e-12) {
		t.Errorf("subdomain 1 rhs = %v, want %v", sub1.B, wantB1)
	}

	// The reconstruction invariant: the two subsystems sum back to (3.2).
	sys := sparse.PaperExample()
	a, b := res.Reconstruct()
	if !a.EqualApprox(sys.A, 1e-12) {
		t.Errorf("reconstructed matrix differs from the original")
	}
	if !b.Equal(sys.B, 1e-12) {
		t.Errorf("reconstructed rhs = %v, want %v", b, sys.B)
	}
}

func TestPaperLocalSystemMatchesEquation54(t *testing.T) {
	sys, res := paperTearing(t)
	topo := topology.TwoProcessorPaper()
	prob, err := NewProblem(sys, res, topo, nil)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	subs, _, err := prob.BuildSubdomains(paperImpedances(), "")
	if err != nil {
		t.Fatalf("BuildSubdomains: %v", err)
	}

	// With Z2 = 0.2 and Z3 = 0.1 the local matrix of subgraph 1 (equation 5.4)
	// has 2.5 + 1/0.2 = 7.5 and 3.3 + 1/0.1 = 13.3 on the port diagonal; the
	// local matrix of subgraph 2 (equation 5.5) has 3.5 + 5 = 8.5 and
	// 3.7 + 10 = 13.7. We verify through the behaviour of the factorised
	// solver: solving with zero incoming waves must equal solving those
	// matrices directly.
	check := func(sub *Subdomain, local [][]float64, rhs sparse.Vec) {
		t.Helper()
		want, err := dense.SolveExact(sparse.NewCSRFromDense(local, 0), rhs)
		if err != nil {
			t.Fatalf("reference solve: %v", err)
		}
		sub.Solve()
		if !sub.X().Equal(want, 1e-10) {
			t.Errorf("subdomain %d initial solve = %v, want %v", sub.Part(), sub.X(), want)
		}
	}
	check(subs[0], [][]float64{
		{7.5, -0.9, -1},
		{-0.9, 13.3, -1},
		{-1, -1, 5},
	}, sparse.Vec{0.8, 1.6, 1})
	check(subs[1], [][]float64{
		{8.5, -1.1, -1},
		{-1.1, 13.7, -2},
		{-1, -2, 8},
	}, sparse.Vec{1.2, 1.4, 4})
}

func TestDTMPaperExampleConverges(t *testing.T) {
	sys, res := paperTearing(t)
	exact, err := dense.SolveExact(sys.A, sys.B)
	if err != nil {
		t.Fatalf("exact solve: %v", err)
	}
	prob, err := NewProblem(sys, res, topology.TwoProcessorPaper(), nil)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	result, err := Solve(context.Background(), prob, Config{
		CommonOptions: CommonOptions{
			Impedance:   paperImpedances(),
			Exact:       exact,
			Tol:         1e-10,
			RecordTrace: true,
		},
		MaxTime: 2000, // microseconds, as in Example 5.1
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !result.Converged {
		t.Fatalf("DTM did not converge within the time horizon (final error %g)", result.RMSError)
	}
	if result.RMSError > 1e-8 {
		t.Errorf("final RMS error = %g, want <= 1e-8", result.RMSError)
	}
	if result.Residual > 1e-8 {
		t.Errorf("final relative residual = %g, want <= 1e-8", result.Residual)
	}
	if !result.X.Equal(exact, 1e-7) {
		t.Errorf("solution = %v, want %v", result.X, exact)
	}
	// The error trace must be (weakly) heading down: the error at the end must
	// be far below the error at the start, as in Fig. 8.
	if len(result.Trace) < 2 {
		t.Fatalf("expected a non-trivial trace, got %d points", len(result.Trace))
	}
	first, last := result.Trace[0], result.Trace[len(result.Trace)-1]
	if !(last.RMSError < first.RMSError/10) {
		t.Errorf("trace does not show convergence: first error %g, last error %g", first.RMSError, last.RMSError)
	}
}

func TestDTMPaperExampleImpedanceDoesNotChangeFixedPoint(t *testing.T) {
	sys, res := paperTearing(t)
	exact, err := dense.SolveExact(sys.A, sys.B)
	if err != nil {
		t.Fatalf("exact solve: %v", err)
	}
	for _, z := range []float64{0.01, 0.1, 1, 10} {
		prob, err := NewProblem(sys, res, topology.TwoProcessorPaper(), nil)
		if err != nil {
			t.Fatalf("NewProblem: %v", err)
		}
		result, err := Solve(context.Background(), prob, Config{
			CommonOptions: CommonOptions{
				Impedance: dtl.Constant{Z: z},
				Exact:     exact,
				Tol:       1e-11,
			},
			MaxTime: 20000,
		})
		if err != nil {
			t.Fatalf("Solve(context.Background(), z=%g): %v", z, err)
		}
		if result.RMSError > 1e-7 {
			t.Errorf("z=%g: final RMS error %g, want <= 1e-7 (Theorem 6.1: any positive impedance converges)", z, result.RMSError)
		}
	}
}

func TestPaperExampleTheoremHypotheses(t *testing.T) {
	sys, res := paperTearing(t)
	prob, err := NewProblem(sys, res, topology.TwoProcessorPaper(), nil)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	report := CheckTheorem(prob)
	if !report.OriginalSPD {
		t.Errorf("the paper example must be SPD")
	}
	if !report.Satisfied {
		t.Errorf("Theorem 6.1 hypotheses not satisfied: %v", report)
	}
}

func TestPaperExampleExactSolutionSanity(t *testing.T) {
	// Independent sanity check of the reference solver on the 4×4 system:
	// A·x must reproduce b to machine precision.
	sys := sparse.PaperExample()
	exact, err := dense.SolveExact(sys.A, sys.B)
	if err != nil {
		t.Fatalf("exact solve: %v", err)
	}
	r := sys.A.Residual(exact, sys.B)
	if r.NormInf() > 1e-12 {
		t.Errorf("residual of the reference solution = %g, want ~0", r.NormInf())
	}
	if math.IsNaN(exact.Norm2()) {
		t.Errorf("reference solution contains NaN")
	}
}

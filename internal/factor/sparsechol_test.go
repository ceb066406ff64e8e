package factor

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// TestSparseDenseLUAgreement is the cross-backend property test: on random
// grid-sparsity SPD systems the sparse Cholesky (with RCM), the dense
// Cholesky, and dense LU must agree to ~1e-10 relative on the same solves.
func TestSparseDenseLUAgreement(t *testing.T) {
	for _, tc := range []struct {
		nx, ny int
		seed   int64
	}{
		{5, 5, 1}, {9, 7, 2}, {13, 13, 3}, {17, 17, 4}, {21, 19, 5},
	} {
		t.Run(fmt.Sprintf("%dx%d-seed%d", tc.nx, tc.ny, tc.seed), func(t *testing.T) {
			sys := sparse.RandomGridSPD(tc.nx, tc.ny, tc.seed)
			n := sys.Dim()
			solvers := map[string]LocalSolver{}
			for _, backend := range []string{DenseCholesky, DenseLU, SparseCholesky} {
				s, err := New(backend, sys.A)
				if err != nil {
					t.Fatalf("%s: %v", backend, err)
				}
				solvers[backend] = s
			}
			// Several right-hand sides per factor: the factor-once/solve-many
			// contract, with the system's own b plus random loads.
			rhs := []sparse.Vec{sys.B}
			for trial := int64(0); trial < 3; trial++ {
				rhs = append(rhs, sparse.RandomVec(n, tc.seed*100+trial))
			}
			for ri, b := range rhs {
				ref := Solve(solvers[DenseLU], b)
				scale := ref.Norm2()
				if scale == 0 {
					scale = 1
				}
				for _, backend := range []string{DenseCholesky, SparseCholesky} {
					x := Solve(solvers[backend], b)
					if d := x.Sub(ref).Norm2() / scale; d > 1e-10 {
						t.Errorf("rhs %d: %s deviates from LU by %g (rel)", ri, backend, d)
					}
				}
				// And every backend must actually solve the system.
				for backend, s := range solvers {
					x := Solve(s, b)
					if r := sys.A.Residual(x, b).Norm2() / b.Norm2(); r > 1e-10 {
						t.Errorf("rhs %d: %s relative residual %g", ri, backend, r)
					}
				}
			}
		})
	}
}

func TestSparseCholeskyOrderings(t *testing.T) {
	sys := sparse.RandomGridSPD(11, 11, 42)
	natural, err := newCholesky(sys.A, OrderNatural)
	if err != nil {
		t.Fatalf("natural: %v", err)
	}
	rcm, err := newCholesky(sys.A, OrderRCM)
	if err != nil {
		t.Fatalf("rcm: %v", err)
	}
	xa, xb := natural.Solve(sys.B), rcm.Solve(sys.B)
	if d := xa.Sub(xb).Norm2() / xa.Norm2(); d > 1e-12 {
		t.Errorf("natural and RCM solves differ by %g", d)
	}
	// On a grid the natural (row-major) order is already banded; RCM must not
	// blow the factor up and usually shrinks it.
	if rcm.NNZL() > natural.NNZL()*11/10 {
		t.Errorf("RCM fill %d is much worse than natural fill %d", rcm.NNZL(), natural.NNZL())
	}
}

func TestSparseCholeskyNotPositiveDefinite(t *testing.T) {
	a := sparse.NewCSRFromDense([][]float64{
		{1, 2, 0},
		{2, 1, 0},
		{0, 0, 1},
	}, 0)
	_, err := newCholesky(a, OrderRCM)
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Errorf("indefinite matrix: err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestSparseCholeskySolveToAliasing(t *testing.T) {
	sys := sparse.Poisson2D(8, 8, 0.05)
	s, err := newCholesky(sys.A, OrderRCM)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Solve(sys.B)
	x := sys.B.Clone()
	s.SolveTo(x, x) // x aliases b
	if x.MaxAbsDiff(want) != 0 {
		t.Error("aliased SolveTo differs from Solve")
	}
}

func TestSparseCholeskyMatchesDenseFactorisation(t *testing.T) {
	// Deterministic byte-for-byte repeatability of factor and solve.
	sys := sparse.RandomGridSPD(9, 9, 7)
	s1, err := newCholesky(sys.A, OrderRCM)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := newCholesky(sys.A, OrderRCM)
	if err != nil {
		t.Fatal(err)
	}
	x1, x2 := s1.Solve(sys.B), s2.Solve(sys.B)
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("solve is not deterministic at %d: %g vs %g", i, x1[i], x2[i])
		}
	}
	// And the factorisation reproduces A = L·Lᵀ: check through a dense solve.
	ref, err := dense.SolveExact(sys.A, sys.B)
	if err != nil {
		t.Fatal(err)
	}
	if d := x1.Sub(ref).Norm2() / ref.Norm2(); d > 1e-11 {
		t.Errorf("sparse solve deviates from dense reference by %g", d)
	}
}

func TestSparseCholeskySingleton(t *testing.T) {
	a := sparse.NewCSRFromDense([][]float64{{4}}, 0)
	s, err := newCholesky(a, OrderRCM)
	if err != nil {
		t.Fatal(err)
	}
	x := s.Solve(sparse.Vec{8})
	if x[0] != 2 {
		t.Errorf("1x1 solve got %g, want 2", x[0])
	}
}

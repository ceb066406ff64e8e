package iterative

import (
	"testing"

	"repro/internal/factor"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// TestBuildBlocksNonSPDBlockFallsBackToLU is the regression test for the
// deduplicated Cholesky → ErrNotPositiveDefinite → LU fallback, now living in
// factor.Auto: a diagonal block that is symmetric indefinite (so Cholesky
// must refuse it) still gets a working factorisation.
func TestBuildBlocksNonSPDBlockFallsBackToLU(t *testing.T) {
	// Part 0 owns {0,1} with the indefinite block [[1,2],[2,1]] (eigenvalues
	// 3 and -1); part 1 owns {2,3} with the SPD identity. A weak symmetric
	// coupling keeps the parts adjacent without changing definiteness much.
	coo := sparse.NewCOO(4, 4)
	coo.Add(0, 0, 1)
	coo.AddSym(0, 1, 2)
	coo.Add(1, 1, 1)
	coo.Add(2, 2, 1)
	coo.Add(3, 3, 1)
	coo.AddSym(1, 2, 0.01)
	a := coo.ToCSR()
	b := sparse.Vec{5, 4, 1, 1}
	assign := partition.GridBlocks(4, 1, 2, 1)

	blocks, err := buildBlocks(a, b, assign, factor.Settings{})
	if err != nil {
		t.Fatalf("buildBlocks with a non-SPD diagonal block: %v", err)
	}
	if got := blocks[0].solver.Backend(); got != factor.DenseLU {
		t.Errorf("indefinite block factorised by %q, want %q", got, factor.DenseLU)
	}
	if got := blocks[1].solver.Backend(); got != factor.DenseCholesky {
		t.Errorf("SPD block factorised by %q, want %q", got, factor.DenseCholesky)
	}

	// The block update against a zero global iterate is the plain block solve
	// B·x = b_local; for block 0 that is [[1,2],[2,1]] x = [5,4] -> x = [1,2].
	out := sparse.NewVec(2)
	blocks[0].solveLocal(sparse.NewVec(4), out)
	if out.MaxAbsDiff(sparse.Vec{1, 2}) > 1e-12 {
		t.Errorf("non-SPD block solve got %v, want [1 2]", out)
	}
}

// TestBlockJacobiExplicitBackends pins that the synchronous block-Jacobi
// solver accepts every Cholesky-capable backend by name and produces the same
// solution with each.
func TestBlockJacobiExplicitBackends(t *testing.T) {
	sys := sparse.Poisson2D(12, 12, 0.05)
	assign := partition.GridBlocks(sys.Dim(), 1, 4, 1)
	var ref sparse.Vec
	for _, backend := range []string{factor.DenseCholesky, factor.SparseCholesky, factor.SparseSupernodal, factor.Auto} {
		x, st, err := BlockJacobi(sys.A, sys.B, assign, Config{
			MaxIterations: 4000, Tol: 1e-10, Factor: factor.Settings{Backend: backend},
		})
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if !st.Converged {
			t.Fatalf("%s: did not converge (residual %g)", backend, st.Residual)
		}
		if ref == nil {
			ref = x
			continue
		}
		if d := x.Sub(ref).Norm2() / ref.Norm2(); d > 1e-9 {
			t.Errorf("%s deviates from first backend by %g", backend, d)
		}
	}

	// The same sweep with the ordering forced to nested dissection: every
	// sparse backend must still converge to the same solution (the ordering
	// changes the factors, not the algebra).
	for _, backend := range []string{factor.SparseCholesky, factor.SparseSupernodal} {
		x, st, err := BlockJacobi(sys.A, sys.B, assign, Config{
			MaxIterations: 4000, Tol: 1e-10, Factor: factor.Settings{Backend: backend, Ordering: factor.OrderND},
		})
		if err != nil {
			t.Fatalf("%s under nd ordering: %v", backend, err)
		}
		if !st.Converged {
			t.Fatalf("%s under nd ordering: did not converge (residual %g)", backend, st.Residual)
		}
		if d := x.Sub(ref).Norm2() / ref.Norm2(); d > 1e-9 {
			t.Errorf("%s under nd ordering deviates from reference by %g", backend, d)
		}
	}
}

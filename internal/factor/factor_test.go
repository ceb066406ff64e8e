package factor

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/sparse"
)

func TestBackendsRegistered(t *testing.T) {
	want := []string{Auto, DenseCholesky, DenseLU, SparseCholesky, SparseSupernodal}
	if got := Backends(); !slices.Equal(got, want) {
		t.Errorf("Backends() = %v, want %v", got, want)
	}
	if Known("no-such-backend") {
		t.Error("Known accepted an unregistered backend")
	}
	if _, err := New("no-such-backend", sparse.Identity(3)); err == nil {
		t.Error("New accepted an unregistered backend")
	}
	def, err := New("", sparse.Poisson2D(5, 5, 0.05).A)
	if err != nil {
		t.Fatalf("New with an empty backend: %v", err)
	}
	if got := def.Backend(); got != DenseCholesky {
		t.Errorf("an empty backend factorised a small SPD block with %q, want auto's %q", got, DenseCholesky)
	}
	if err := (Settings{Backend: "no-such-backend"}).Validate(); err == nil {
		t.Error("Settings.Validate accepted an unregistered backend")
	}
	if err := (Settings{Ordering: Ordering(99)}).Validate(); err == nil {
		t.Error("Settings.Validate accepted an unknown ordering")
	}
	if err := (Settings{}).Validate(); err != nil {
		t.Errorf("the zero Settings must validate: %v", err)
	}
}

// TestAutoFallsBackToLUOnNonSPD is the regression test for the deduplicated
// Cholesky → ErrNotPositiveDefinite → LU fallback: a symmetric indefinite
// (but nonsingular) local block must still be factorised and solved.
func TestAutoFallsBackToLUOnNonSPD(t *testing.T) {
	// Symmetric, nonsingular, indefinite (eigenvalues 3 and -1).
	a := sparse.NewCSRFromDense([][]float64{
		{1, 2},
		{2, 1},
	}, 0)
	s, err := New(Auto, a)
	if err != nil {
		t.Fatalf("Auto on an indefinite block: %v", err)
	}
	if s.Backend() != DenseLU {
		t.Errorf("Auto picked %q for an indefinite block, want %q", s.Backend(), DenseLU)
	}
	b := sparse.Vec{5, 4}
	x := Solve(s, b)
	// Exact solution of [[1,2],[2,1]] x = [5,4] is x = [1, 2].
	if x.MaxAbsDiff(sparse.Vec{1, 2}) > 1e-12 {
		t.Errorf("LU fallback solve got %v, want [1 2]", x)
	}
}

func TestAutoPicksDenseForSmallSparseForLarge(t *testing.T) {
	small := sparse.Poisson2D(5, 5, 0.05)
	s, err := New(Auto, small.A)
	if err != nil {
		t.Fatalf("Auto(small): %v", err)
	}
	if s.Backend() != DenseCholesky {
		t.Errorf("Auto picked %q for n=25, want %q", s.Backend(), DenseCholesky)
	}
	large := sparse.Poisson2D(20, 20, 0.05) // n=400 >= autoSparseMinDim, density ~1%
	s, err = New(Auto, large.A)
	if err != nil {
		t.Fatalf("Auto(large): %v", err)
	}
	if s.Backend() != SparseCholesky {
		t.Errorf("Auto picked %q for n=400 sparse, want %q", s.Backend(), SparseCholesky)
	}
	for _, sys := range []sparse.System{small, large} {
		sol, err := New(Auto, sys.A)
		if err != nil {
			t.Fatal(err)
		}
		x := sparse.NewVec(sys.Dim())
		sol.SolveTo(x, sys.B)
		if r := sys.A.Residual(x, sys.B).Norm2() / sys.B.Norm2(); r > 1e-10 {
			t.Errorf("auto solve of %s has relative residual %g", sys.Name, r)
		}
	}
}

// TestDenseGuard pins the clean failure the E6 experiment demonstrates: a
// dense backend refuses (without allocating) a matrix beyond MaxDenseBytes,
// while the auto policy routes the same matrix to the sparse backend.
func TestDenseGuard(t *testing.T) {
	// The guard's arithmetic at a cap small enough to straddle: 24·n² bytes
	// against 1 MiB admits n = 209 and refuses n = 210.
	if err := denseFeasible(209, 1<<20); err != nil {
		t.Errorf("n=209 under a 1 MiB cap: %v, want feasible", err)
	}
	if err := denseFeasible(210, 1<<20); !errors.Is(err, ErrDenseTooLarge) {
		t.Errorf("n=210 under a 1 MiB cap: %v, want ErrDenseTooLarge", err)
	}
	// A sparse identity far beyond the real cap is cheap to build.
	n := 20000
	if DenseFeasible(n) == nil {
		t.Fatalf("MaxDenseBytes %d admits n=%d; guard not exercised", MaxDenseBytes, n)
	}
	a := sparse.Identity(n)
	for _, backend := range []string{DenseCholesky, DenseLU} {
		_, err := New(backend, a)
		if !errors.Is(err, ErrDenseTooLarge) {
			t.Errorf("%s on n=%d: err = %v, want ErrDenseTooLarge", backend, n, err)
		}
	}
	s, err := New(Auto, a)
	if err != nil {
		t.Fatalf("Auto on huge sparse identity: %v", err)
	}
	if s.Backend() != SparseSupernodal {
		t.Errorf("Auto picked %q beyond the dense cap, want %q", s.Backend(), SparseSupernodal)
	}
	b := sparse.NewVec(n)
	b.Fill(3)
	x := Solve(s, b)
	if x.MaxAbsDiff(b) > 1e-14 {
		t.Error("identity solve is not the right-hand side")
	}
}

// TestAutoRoutesLargeNonSPDToSparseLDLT is the regression test for the bug
// where the auto policy treated ErrNotPositiveDefinite from the sparse
// Cholesky exactly like the dense one — falling straight to dense LU — so a
// block that was both large and merely SNND/indefinite died at
// ErrDenseTooLarge. With the chain sparse Cholesky → supernodal LDLᵀ → dense
// LU the same block factorises sparsely.
func TestAutoRoutesLargeNonSPDToSparseLDLT(t *testing.T) {
	for _, tc := range []struct {
		side        int
		pastTheWall bool
	}{
		// Below autoSupernodalMinDim: scalar Cholesky → supernodal LDLᵀ.
		{side: 20}, // n = 420
		// Past the dense memory wall (n = 9702 needs 2.1 GiB), where the old
		// chain's landing spot, dense LU, cannot be allocated; at this size
		// the supernodal backend runs the same Cholesky → LDLᵀ chain itself.
		{side: 98, pastTheWall: true},
	} {
		sys := sparse.SaddlePoisson2D(tc.side, tc.side, 1e-2) // indefinite
		n := sys.Dim()
		if _, err := New(SparseCholesky, sys.A); !errors.Is(err, ErrNotPositiveDefinite) {
			t.Fatalf("n=%d: sparse Cholesky on the saddle system: %v, want ErrNotPositiveDefinite", n, err)
		}
		if tc.pastTheWall {
			if _, err := New(DenseLU, sys.A); !errors.Is(err, ErrDenseTooLarge) {
				t.Fatalf("n=%d: dense LU: %v, want ErrDenseTooLarge", n, err)
			}
		}
		s, err := New(Auto, sys.A)
		if err != nil {
			t.Fatalf("n=%d: Auto on a large non-SPD block: %v", n, err)
		}
		if sn, ok := s.(*Supernodal); !ok || sn.Mode() != ModeLDLT {
			t.Errorf("n=%d: Auto picked %q, want %q in LDLT mode", n, s.Backend(), SparseSupernodal)
		}
		x := Solve(s, sys.B)
		if r := sys.A.Residual(x, sys.B).Norm2() / sys.B.Norm2(); r > 1e-10 {
			t.Errorf("n=%d: auto solve has relative residual %g", n, r)
		}
	}
}

// TestAutoFallsThroughToDenseLUWhenLDLTFails covers the last link of the
// scalar-band chain: a singular-to-LDLT block (zero diagonal pivots that 1×1
// pivoting cannot pass) still reaches dense LU when that is feasible.
func TestAutoFallsThroughToDenseLUWhenLDLTFails(t *testing.T) {
	// An anti-diagonal permutation-like matrix: symmetric, nonsingular, but
	// every leading principal minor up to n/2 is singular, so un-pivoted LDLᵀ
	// meets a zero pivot immediately. Sized past autoSparseMinDim with low
	// density, and below autoSupernodalMinDim, so the auto policy takes the
	// sparse Cholesky path.
	n := 2 * autoSparseMinDim
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n/2; i++ {
		coo.AddSym(i, n-1-i, 1)
	}
	a := coo.ToCSR()
	if _, err := newSupernodal(a, OrderAuto, ModeLDLT); !errors.Is(err, ErrSingular) {
		t.Fatalf("supernodal LDLT on the anti-diagonal: %v, want ErrSingular", err)
	}
	s, err := New(Auto, a)
	if err != nil {
		t.Fatalf("Auto on the anti-diagonal: %v", err)
	}
	if s.Backend() != DenseLU {
		t.Errorf("Auto picked %q, want %q", s.Backend(), DenseLU)
	}
	b := sparse.NewVec(n)
	b.Fill(2)
	x := Solve(s, b)
	if x.MaxAbsDiff(b) > 1e-12 { // the anti-diagonal is an involution
		t.Error("anti-diagonal solve should mirror the right-hand side")
	}
}

func TestSolverDims(t *testing.T) {
	sys := sparse.Poisson2D(7, 6, 0.05)
	for _, backend := range Backends() {
		s, err := New(backend, sys.A)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if s.Dim() != sys.Dim() {
			t.Errorf("%s: Dim() = %d, want %d", backend, s.Dim(), sys.Dim())
		}
	}
}

package factor

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// The tests of this file pin the package's one sparse LDLᵀ, the supernodal
// backend's LDLᵀ mode, against references that share no code with it: dense
// LU, the scalar sparse Cholesky, and exact quantities.

// randomQuasiDefinite builds a random symmetric quasi-definite (hence SNND-
// adjacent but indefinite) saddle system [[A, B], [Bᵀ, -C]] with A, C random
// SPD and B random sparse — the class of matrices the sparse LDLᵀ exists for.
func randomQuasiDefinite(nA, nC int, seed int64) sparse.System {
	rng := rand.New(rand.NewSource(seed))
	top := sparse.RandomSPD(nA, 0.05, seed)
	bottom := sparse.RandomSPD(nC, 0.2, seed+1)
	n := nA + nC
	coo := sparse.NewCOO(n, n)
	top.A.Each(func(i, j int, v float64) { coo.Add(i, j, v) })
	bottom.A.Each(func(i, j int, v float64) { coo.Add(nA+i, nA+j, -v) })
	for k := 0; k < nC; k++ {
		for i := 0; i < nA; i++ {
			if rng.Float64() < 3/float64(nA) {
				coo.AddSym(i, nA+k, rng.NormFloat64())
			}
		}
	}
	b := sparse.RandomVec(n, seed+2)
	return sparse.System{A: coo.ToCSR(), B: b, Name: "random-quasi-definite"}
}

// TestLDLTMatchesDenseLUOnSNND: on random symmetric non-positive-definite
// systems LDLᵀ mode must agree with the dense partial-pivoting LU to 1e-10,
// under every ordering.
func TestLDLTMatchesDenseLUOnSNND(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		sys := randomQuasiDefinite(120, 30, seed)
		exact, err := dense.SolveExact(sys.A, sys.B)
		if err != nil {
			t.Fatalf("seed %d: dense LU reference: %v", seed, err)
		}
		for _, ord := range []Ordering{OrderNatural, OrderRCM, OrderAMD, OrderND, OrderAuto} {
			s, err := newSupernodal(sys.A, ord, ModeLDLT)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, ord, err)
			}
			x := s.Solve(sys.B)
			if d := x.MaxAbsDiff(exact); d > 1e-10 {
				t.Errorf("seed %d %s: LDLT disagrees with dense LU by %g", seed, ord, d)
			}
		}
	}
}

// TestLDLTMatchesCholeskyOnSPD checks the definite case degenerates correctly:
// on SPD systems LDLᵀ mode (all-positive pivots) and the scalar sparse
// Cholesky agree.
func TestLDLTMatchesCholeskyOnSPD(t *testing.T) {
	for _, sys := range []sparse.System{
		sparse.Poisson2D(17, 13, 0.05),
		sparse.RandomSPD(250, 0.03, 9),
	} {
		chol, err := newCholesky(sys.A, OrderAuto)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		ldlt, err := newSupernodal(sys.A, OrderAuto, ModeLDLT)
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		pos, neg, zero := ldlt.Inertia()
		if neg != 0 || zero != 0 || pos != sys.Dim() {
			t.Errorf("%s: SPD system has inertia (%d+, %d-, %d zero)", sys.Name, pos, neg, zero)
		}
		xc, xl := chol.Solve(sys.B), ldlt.Solve(sys.B)
		if d := xc.MaxAbsDiff(xl); d > 1e-10 {
			t.Errorf("%s: LDLT and Cholesky disagree by %g", sys.Name, d)
		}
	}
}

func TestLDLTInertiaOfSaddleSystem(t *testing.T) {
	nx, ny := 15, 12
	sys := sparse.SaddlePoisson2D(nx, ny, 1e-2)
	s, err := newSupernodal(sys.A, OrderAuto, ModeLDLT)
	if err != nil {
		t.Fatal(err)
	}
	pos, neg, zero := s.Inertia()
	if pos != nx*ny || neg != ny || zero != 0 {
		t.Errorf("saddle inertia = (%d+, %d-, %d zero), want (%d+, %d-, 0 zero)", pos, neg, zero, nx*ny, ny)
	}
}

func TestLDLTSolveToleratesAliasing(t *testing.T) {
	sys := sparse.SaddlePoisson2D(9, 9, 1e-2)
	s, err := newSupernodal(sys.A, OrderAuto, ModeLDLT)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Solve(sys.B)
	x := sys.B.Clone()
	s.SolveTo(x, x)
	if d := x.MaxAbsDiff(want); d > 0 {
		t.Errorf("aliased solve differs by %g", d)
	}
}

func TestLDLTIsDeterministic(t *testing.T) {
	sys := randomQuasiDefinite(80, 20, 42)
	first, err := newSupernodal(sys.A, OrderAuto, ModeLDLT)
	if err != nil {
		t.Fatal(err)
	}
	x0 := first.Solve(sys.B)
	for run := 0; run < 3; run++ {
		again, err := newSupernodal(sys.A, OrderAuto, ModeLDLT)
		if err != nil {
			t.Fatal(err)
		}
		if d := again.Solve(sys.B).MaxAbsDiff(x0); d > 0 {
			t.Errorf("run %d: solution differs by %g (must be byte-identical)", run, d)
		}
	}
}

func TestLDLTRejectsSingularAndNonSquare(t *testing.T) {
	// Exactly singular: a zero row/column.
	coo := sparse.NewCOO(3, 3)
	coo.Add(0, 0, 2)
	coo.AddSym(0, 1, 1)
	coo.Add(1, 1, 2)
	// Vertex 2 has no entries at all.
	if _, err := newSupernodal(coo.ToCSR(), OrderNatural, ModeLDLT); !errors.Is(err, ErrSingular) {
		t.Errorf("singular matrix: err = %v, want ErrSingular", err)
	}
	rect := sparse.NewCOO(2, 3).ToCSR()
	if _, err := newSupernodal(rect, OrderNatural, ModeLDLT); err == nil {
		t.Error("non-square matrix was accepted")
	}
}

// TestLDLTHandlesNegativeLeadingPivot pins the 1×1-pivot point: a matrix whose
// very first pivot is negative (so Cholesky dies immediately) factorises fine.
func TestLDLTHandlesNegativeLeadingPivot(t *testing.T) {
	a := sparse.NewCSRFromDense([][]float64{
		{-2, 1, 0},
		{1, -3, 1},
		{0, 1, 4},
	}, 0)
	if _, err := newCholesky(a, OrderNatural); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("Cholesky on a negative-pivot matrix: %v, want ErrNotPositiveDefinite", err)
	}
	s, err := newSupernodal(a, OrderNatural, ModeLDLT)
	if err != nil {
		t.Fatal(err)
	}
	pos, neg, zero := s.Inertia()
	if pos != 1 || neg != 2 || zero != 0 {
		t.Errorf("inertia = (%d+, %d-, %d zero), want (1+, 2-, 0 zero)", pos, neg, zero)
	}
	b := sparse.Vec{1, 2, 3}
	x := s.Solve(b)
	if r := a.Residual(x, b).NormInf(); r > 1e-12 {
		t.Errorf("residual %g", r)
	}
}

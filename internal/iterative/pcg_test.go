package iterative

import (
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

func TestJacobiPreconditionerApply(t *testing.T) {
	a := sparse.NewCSRFromDense([][]float64{{2, 0}, {0, 4}}, 0)
	m, err := NewJacobiPreconditioner(a)
	if err != nil {
		t.Fatalf("NewJacobiPreconditioner: %v", err)
	}
	dst := sparse.NewVec(2)
	m.Apply(dst, sparse.Vec{2, 2})
	if !dst.Equal(sparse.Vec{1, 0.5}, 1e-14) {
		t.Errorf("Apply = %v, want [1 0.5]", dst)
	}
}

func TestJacobiPreconditionerRejectsBadDiagonal(t *testing.T) {
	a := sparse.NewCSRFromDense([][]float64{{0, 1}, {1, 2}}, 0)
	if _, err := NewJacobiPreconditioner(a); err == nil {
		t.Errorf("zero diagonal must be rejected")
	}
	neg := sparse.NewCSRFromDense([][]float64{{-1, 0}, {0, 2}}, 0)
	if _, err := NewJacobiPreconditioner(neg); err == nil {
		t.Errorf("negative diagonal must be rejected")
	}
}

func TestPCGWithNilPreconditionerIsCG(t *testing.T) {
	sys, exact := smallSystem(t)
	x, st, err := PCG(sys.A, sys.B, nil, Config{MaxIterations: 500, Tol: 1e-12})
	if err != nil || !st.Converged {
		t.Fatalf("PCG(nil): %v converged=%v", err, st.Converged)
	}
	if !x.Equal(exact, 1e-8) {
		t.Errorf("solution error %g", x.MaxAbsDiff(exact))
	}
}

func TestPCGConvergesFasterWithJacobiPreconditioner(t *testing.T) {
	// A badly scaled SPD system: the diagonal spans several orders of
	// magnitude, which slows plain CG but is absorbed by the preconditioner.
	base := sparse.Poisson2D(12, 12, 0.05)
	scale := sparse.NewVec(base.Dim())
	for i := range scale {
		scale[i] = 1 + float64(i%7)*30
	}
	coo := sparse.NewCOO(base.Dim(), base.Dim())
	base.A.Each(func(i, j int, v float64) {
		coo.Add(i, j, v*scale[i]*scale[j])
	})
	sys := sparse.System{A: coo.ToCSR(), B: base.B, Name: "scaled-poisson"}

	cfg := Config{MaxIterations: 4000, Tol: 1e-10}
	xp, plain, err := CG(sys.A, sys.B, cfg)
	if err != nil || !plain.Converged {
		t.Fatalf("CG failed: %v", err)
	}
	jac, err := NewJacobiPreconditioner(sys.A)
	if err != nil {
		t.Fatalf("NewJacobiPreconditioner: %v", err)
	}
	xj, withJacobi, err := PCG(sys.A, sys.B, jac, cfg)
	if err != nil || !withJacobi.Converged {
		t.Fatalf("PCG(jacobi) failed: %v", err)
	}
	if withJacobi.Iterations >= plain.Iterations {
		t.Errorf("Jacobi preconditioning should help on a badly scaled system: %d vs %d iterations",
			withJacobi.Iterations, plain.Iterations)
	}
	// Both agree on the answer.
	if !xj.Equal(xp, 1e-6) {
		t.Errorf("plain and preconditioned solutions disagree by %g", xj.MaxAbsDiff(xp))
	}
}

func TestPCGValidation(t *testing.T) {
	sys, _ := smallSystem(t)
	jac, err := NewJacobiPreconditioner(sys.A)
	if err != nil {
		t.Fatalf("NewJacobiPreconditioner: %v", err)
	}
	if _, _, err := PCG(sys.A, sys.B, jac, Config{}); err == nil {
		t.Errorf("missing iteration bound must be rejected")
	}
}

// Property: PCG with the Jacobi preconditioner and plain CG agree on random
// SPD systems.
func TestPCGAgreesWithCGProperty(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := 5 + int(rawN%25)
		sys := sparse.RandomSPD(n, 0.15, seed)
		jac, err := NewJacobiPreconditioner(sys.A)
		if err != nil {
			return false
		}
		xp, stp, err := PCG(sys.A, sys.B, jac, Config{MaxIterations: 10 * n, Tol: 1e-12})
		if err != nil || !stp.Converged {
			return false
		}
		xc, stc, err := CG(sys.A, sys.B, Config{MaxIterations: 10 * n, Tol: 1e-12})
		if err != nil || !stc.Converged {
			return false
		}
		return xp.Equal(xc, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

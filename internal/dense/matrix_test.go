package dense

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

func TestNewMatrixIsZero(t *testing.T) {
	m := New(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("dims = %dx%d", m.Rows(), m.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("At(%d,%d) = %g, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestMatrixSetAtAddf(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 1, 3)
	m.Addf(0, 1, 1.5)
	if m.At(0, 1) != 4.5 {
		t.Errorf("At(0,1) = %g, want 4.5", m.At(0, 1))
	}
}

func TestFromRowsAndClone(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Errorf("Clone aliases the original")
	}
	if !m.EqualApprox(FromRows([][]float64{{1, 2}, {3, 4}}), 0) {
		t.Errorf("FromRows round trip failed")
	}
}

func TestMatrixMulAgainstKnownProduct(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{0, 1}, {1, 0}})
	got := a.Mul(b)
	want := FromRows([][]float64{{2, 1}, {4, 3}})
	if !got.EqualApprox(want, 1e-14) {
		t.Errorf("Mul = %v, want %v", got, want)
	}
}

func TestMatrixMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := a.MulVec(sparse.Vec{1, 1, 1})
	if !got.Equal(sparse.Vec{6, 15}, 1e-14) {
		t.Errorf("MulVec = %v", got)
	}
}

func TestMatrixTransposeAndSymmetry(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := a.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 || tr.At(2, 1) != 6 {
		t.Errorf("Transpose wrong: %v", tr)
	}
	// A symmetric matrix is its own transpose; an asymmetric one is not.
	sym := FromRows([][]float64{{2, -1}, {-1, 2}})
	if !sym.Transpose().EqualApprox(sym, 0) {
		t.Errorf("symmetric matrix misreported")
	}
	if a2 := FromRows([][]float64{{1, 2}, {3, 4}}); a2.Transpose().EqualApprox(a2, 1e-12) {
		t.Errorf("asymmetric matrix misreported")
	}
}

func TestMatrixStringIsNonEmpty(t *testing.T) {
	if s := FromRows([][]float64{{1}}).String(); !strings.Contains(s, "1") {
		t.Errorf("String = %q", s)
	}
}

func TestFromCSRMatchesSparse(t *testing.T) {
	csr := sparse.NewCSRFromDense([][]float64{{2, -1, 0}, {-1, 2, -1}, {0, -1, 2}}, 0)
	m := FromCSR(csr)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != csr.At(i, j) {
				t.Errorf("FromCSR(%d,%d) = %g, want %g", i, j, m.At(i, j), csr.At(i, j))
			}
		}
	}
}

// Property: (A·B)ᵀ = Bᵀ·Aᵀ for random small matrices.
func TestMatrixMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		m := 1 + rng.Intn(6)
		k := 1 + rng.Intn(6)
		a := New(n, m)
		b := New(m, k)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		for i := 0; i < m; i++ {
			for j := 0; j < k; j++ {
				b.Set(i, j, rng.NormFloat64())
			}
		}
		left := a.Mul(b).Transpose()
		right := b.Transpose().Mul(a.Transpose())
		return left.EqualApprox(right, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func randomSPDMatrix(rng *rand.Rand, n int) *Matrix {
	// B·Bᵀ + n·I is SPD.
	b := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	a := b.Mul(b.Transpose())
	for i := 0; i < n; i++ {
		a.Addf(i, i, float64(n))
	}
	return a
}

func TestCholeskySolvesKnownSystem(t *testing.T) {
	a := FromRows([][]float64{
		{4, -1, 0},
		{-1, 4, -1},
		{0, -1, 4},
	})
	chol, err := NewCholesky(a)
	if err != nil {
		t.Fatalf("NewCholesky: %v", err)
	}
	if chol.Dim() != 3 {
		t.Errorf("Dim = %d", chol.Dim())
	}
	xWant := sparse.Vec{1, 2, -1}
	b := a.MulVec(xWant)
	x := chol.Solve(b)
	if !x.Equal(xWant, 1e-12) {
		t.Errorf("Solve = %v, want %v", x, xWant)
	}
	// SolveTo writes into the provided buffer.
	buf := sparse.NewVec(3)
	chol.SolveTo(buf, b)
	if !buf.Equal(xWant, 1e-12) {
		t.Errorf("SolveTo = %v", buf)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 3}, {3, 1}}) // eigenvalues 4 and -2
	if _, err := NewCholesky(a); err == nil {
		t.Errorf("expected an error for an indefinite matrix")
	}
}

func TestCholeskyCSRMatchesDense(t *testing.T) {
	csr := sparse.Tridiagonal(10, 3, -1).A
	cholCSR, err := NewCholesky(FromCSR(csr))
	if err != nil {
		t.Fatalf("NewCholesky(FromCSR): %v", err)
	}
	b := sparse.RandomVec(10, 4)
	x := cholCSR.Solve(b)
	r := csr.Residual(x, b)
	if r.NormInf() > 1e-10 {
		t.Errorf("residual = %g", r.NormInf())
	}
}

func TestLUSolvesAndDeterminant(t *testing.T) {
	a := FromRows([][]float64{
		{0, 2, 1}, // zero pivot forces partial pivoting
		{1, 1, 1},
		{2, 0, 3},
	})
	lu, err := NewLU(a)
	if err != nil {
		t.Fatalf("NewLU: %v", err)
	}
	if lu.Dim() != 3 {
		t.Errorf("Dim = %d", lu.Dim())
	}
	xWant := sparse.Vec{3, -1, 2}
	b := a.MulVec(xWant)
	if got := lu.Solve(b); !got.Equal(xWant, 1e-10) {
		t.Errorf("Solve = %v, want %v", got, xWant)
	}
	// det by cofactor expansion: 0*(3-0) - 2*(3-2) + 1*(0-2) = -4.
	if got := lu.Det(); math.Abs(got-(-4)) > 1e-10 {
		t.Errorf("Det = %g, want -4", got)
	}
	buf := sparse.NewVec(3)
	lu.SolveTo(buf, b)
	if !buf.Equal(xWant, 1e-10) {
		t.Errorf("SolveTo = %v", buf)
	}
}

func TestLURejectsSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := NewLU(a); err == nil {
		t.Errorf("expected an error for a singular matrix")
	}
}

func TestNewLUCSR(t *testing.T) {
	sys := sparse.PaperExample()
	lu, err := NewLUCSR(sys.A)
	if err != nil {
		t.Fatalf("NewLUCSR: %v", err)
	}
	x := lu.Solve(sys.B)
	if r := sys.A.Residual(x, sys.B); r.NormInf() > 1e-12 {
		t.Errorf("residual = %g", r.NormInf())
	}
}

func TestSolveExactMatchesManualSolution(t *testing.T) {
	// 2x2 system with a hand-computed solution: [[2,1],[1,3]] x = [3,5] ->
	// x = [(9-5)/5, (10-3)/5] = [0.8, 1.4].
	a := sparse.NewCSRFromDense([][]float64{{2, 1}, {1, 3}}, 0)
	x, err := SolveExact(a, sparse.Vec{3, 5})
	if err != nil {
		t.Fatalf("SolveExact: %v", err)
	}
	if !x.Equal(sparse.Vec{0.8, 1.4}, 1e-12) {
		t.Errorf("x = %v, want [0.8 1.4]", x)
	}
}

// Property: Cholesky and LU agree on random SPD systems, and the solution's
// residual is tiny.
func TestFactorizationsAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := randomSPDMatrix(rng, n)
		b := make(sparse.Vec, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		chol, err := NewCholesky(a)
		if err != nil {
			return false
		}
		lu, err := NewLU(a)
		if err != nil {
			return false
		}
		x1 := chol.Solve(b)
		x2 := lu.Solve(b)
		if !x1.Equal(x2, 1e-7) {
			return false
		}
		r := a.MulVec(x1).Sub(b)
		return r.NormInf() <= 1e-8*math.Max(1, b.NormInf())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

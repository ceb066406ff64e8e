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

func TestIdentityMatrix(t *testing.T) {
	id := Identity(3)
	x := sparse.Vec{1, -2, 3}
	if !id.MulVec(x).Equal(x, 0) {
		t.Errorf("I·x != x")
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
	sym := FromRows([][]float64{{2, -1}, {-1, 2}})
	if !sym.IsSymmetric(0) {
		t.Errorf("symmetric matrix misreported")
	}
	if a2 := FromRows([][]float64{{1, 2}, {3, 4}}); a2.IsSymmetric(1e-12) {
		t.Errorf("asymmetric matrix misreported")
	}
}

func TestMatrixMaxAbs(t *testing.T) {
	a := FromRows([][]float64{{1, -7}, {3, 4}})
	if a.MaxAbs() != 7 {
		t.Errorf("MaxAbs = %g", a.MaxAbs())
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

func TestSymEigenOnKnownMatrices(t *testing.T) {
	// Diagonal matrix: eigenvalues are the diagonal, ascending.
	d := FromRows([][]float64{{3, 0, 0}, {0, 1, 0}, {0, 0, 2}})
	vals, _, err := SymEigen(d, false)
	if err != nil {
		t.Fatalf("SymEigen: %v", err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(vals[i]-want[i]) > 1e-12 {
			t.Errorf("eigenvalue %d = %g, want %g", i, vals[i], want[i])
		}
	}

	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := SymEigen(a, true)
	if err != nil {
		t.Fatalf("SymEigen: %v", err)
	}
	if math.Abs(vals[0]-1) > 1e-10 || math.Abs(vals[1]-3) > 1e-10 {
		t.Errorf("eigenvalues = %v, want [1 3]", vals)
	}
	// A·v = λ·v for each column.
	for k := 0; k < 2; k++ {
		v := sparse.Vec{vecs.At(0, k), vecs.At(1, k)}
		av := a.MulVec(v)
		lv := v.Clone()
		lv.Scale(vals[k])
		if !av.Equal(lv, 1e-10) {
			t.Errorf("eigenpair %d does not satisfy A·v = λ·v", k)
		}
	}
}

func TestSymEigenRejectsNonSymmetric(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {0, 1}})
	if _, _, err := SymEigen(a, false); err == nil {
		t.Errorf("expected an error for a non-symmetric matrix")
	}
}

// Property: the eigenvalues returned by SymEigen sum to the trace and their
// product matches the determinant (for small random symmetric matrices).
func TestSymEigenTraceDetProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, _, err := SymEigen(a, false)
		if err != nil {
			return false
		}
		trace := 0.0
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
		}
		sum := 0.0
		prod := 1.0
		for _, v := range vals {
			sum += v
			prod *= v
		}
		if math.Abs(sum-trace) > 1e-8*math.Max(1, math.Abs(trace)) {
			return false
		}
		lu, err := NewLU(a)
		if err != nil {
			// Singular matrices: the determinant is ~0 and so must the product be.
			return math.Abs(prod) < 1e-6
		}
		det := lu.Det()
		return math.Abs(prod-det) <= 1e-6*math.Max(1, math.Abs(det))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

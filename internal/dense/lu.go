package dense

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/sparse"
)

// ErrSingular is returned when an LU factorisation meets a (numerically) zero pivot.
var ErrSingular = errors.New("dense: matrix is singular")

// LU is an LU factorisation with partial pivoting, P A = L U. It is the
// fallback local solver for subsystems that are merely SNND (so Cholesky may
// fail by a hair) and the reference direct solver used to compute exact
// solutions in tests and experiments.
type LU struct {
	n    int
	lu   *Matrix // L (unit lower, below diagonal) and U (upper incl. diagonal) packed together
	piv  []int   // row permutation: row i of PA is row piv[i] of A
	sign int
}

// NewLU factorises the square matrix a with partial pivoting.
func NewLU(a *Matrix) (*LU, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("dense: LU of non-square %dx%d matrix", a.Rows(), a.Cols())
	}
	n := a.Rows()
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Find pivot.
		p := k
		maxv := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > maxv {
				maxv = v
				p = i
			}
		}
		if maxv == 0 || math.IsNaN(maxv) {
			return nil, fmt.Errorf("%w: zero pivot at column %d", ErrSingular, k)
		}
		if p != k {
			swapRows(lu, p, k)
			piv[p], piv[k] = piv[k], piv[p]
			sign = -sign
		}
		pivVal := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivVal
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Addf(i, j, -m*lu.At(k, j))
			}
		}
	}
	return &LU{n: n, lu: lu, piv: piv, sign: sign}, nil
}

// NewLUCSR factorises a sparse matrix by densifying it.
func NewLUCSR(a *sparse.CSR) (*LU, error) { return NewLU(FromCSR(a)) }

func swapRows(m *Matrix, a, b int) {
	for j := 0; j < m.Cols(); j++ {
		va, vb := m.At(a, j), m.At(b, j)
		m.Set(a, j, vb)
		m.Set(b, j, va)
	}
}

// Dim returns the dimension of the factorised matrix.
func (f *LU) Dim() int { return f.n }

// Solve solves A x = b and returns x.
func (f *LU) Solve(b sparse.Vec) sparse.Vec {
	x := sparse.NewVec(f.n)
	f.SolveTo(x, b)
	return x
}

// SolveTo solves A x = b into the provided x. Like Cholesky.SolveTo it is a
// factor-once/solve-many hot path (the fallback solver for merely-SNND
// subdomains), so both sweeps run over direct row sub-slices of the packed
// factor instead of per-element At calls.
func (f *LU) SolveTo(x, b sparse.Vec) {
	n := f.n
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("dense: LU.Solve dimension mismatch n=%d len(b)=%d len(x)=%d", n, len(b), len(x)))
	}
	// Apply permutation: x = P b.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	lud := f.lu.data
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := lud[i*n : i*n+i]
		s := x[i]
		for k, xk := range x[:i] {
			s -= row[k] * xk
		}
		x[i] = s
	}
	// Backward substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		row := lud[i*n : (i+1)*n]
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
}

// Det returns the determinant of the factorised matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// SolveExact is a convenience wrapper: it densifies a sparse system, LU-solves
// it, and returns the solution. It is the reference "ground truth" used when
// measuring RMS error against the exact solution in the experiments.
func SolveExact(a *sparse.CSR, b sparse.Vec) (sparse.Vec, error) {
	f, err := NewLUCSR(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

package dense

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/sparse"
)

// ErrNotPositiveDefinite is returned when a Cholesky factorisation encounters
// a non-positive pivot, i.e. the matrix is not (numerically) SPD.
var ErrNotPositiveDefinite = errors.New("dense: matrix is not positive definite")

// Cholesky is the lower-triangular factor L of an SPD matrix A = L Lᵀ.
// The factor-once / solve-many pattern of DTM's local systems (eq. 5.9 in the
// paper) is exactly what this type provides.
type Cholesky struct {
	n int
	l *Matrix
	// lt is the row-major transpose of l, cached so the backward substitution
	// walks memory with unit stride instead of striding down a column.
	lt []float64
}

// NewCholesky factorises the SPD matrix a. It returns ErrNotPositiveDefinite
// when a pivot is not strictly positive.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("dense: Cholesky of non-square %dx%d matrix", a.Rows(), a.Cols())
	}
	n := a.Rows()
	l := New(n, n)
	for j := 0; j < n; j++ {
		// Diagonal entry.
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: pivot %d is %g", ErrNotPositiveDefinite, j, d)
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		// Column below the diagonal.
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	lt := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k <= i; k++ {
			lt[k*n+i] = l.data[i*n+k]
		}
	}
	return &Cholesky{n: n, l: l, lt: lt}, nil
}

// Dim returns the dimension of the factorised matrix.
func (c *Cholesky) Dim() int { return c.n }

// Solve solves A x = b using the precomputed factor (forward then backward
// substitution) and returns x.
func (c *Cholesky) Solve(b sparse.Vec) sparse.Vec {
	x := sparse.NewVec(c.n)
	c.SolveTo(x, b)
	return x
}

// SolveTo solves A x = b into the provided x. It is the per-solve hot path of
// every DTM subdomain, so both sweeps index the factor's backing arrays
// directly through row sub-slices (letting the compiler hoist the bounds
// checks) instead of going through Matrix.At element by element.
func (c *Cholesky) SolveTo(x, b sparse.Vec) {
	n := c.n
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("dense: Cholesky.Solve dimension mismatch n=%d len(b)=%d len(x)=%d", n, len(b), len(x)))
	}
	ld := c.l.data
	// Forward substitution: L y = b (y stored in x).
	for i := 0; i < n; i++ {
		row := ld[i*n : i*n+i+1]
		s := b[i]
		for k, xk := range x[:i] {
			s -= row[k] * xk
		}
		x[i] = s / row[i]
	}
	// Backward substitution: Lᵀ x = y, over the cached transpose so the inner
	// loop is a contiguous read.
	for i := n - 1; i >= 0; i-- {
		row := c.lt[i*n : (i+1)*n]
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
}

// SolveTrailingTo solves S x = b into x, where k = len(b) and S is the Schur
// complement of A's leading (n−k)×(n−k) block onto its trailing k unknowns,
// S = A₂₂ − A₂₁ A₁₁⁻¹ A₁₂ — equivalently x = (A⁻¹)₂₂ b. It needs nothing the
// factorisation has not already computed: the trailing k×k block of L is the
// Cholesky factor of S, so this is SolveTo confined to that block, k² flops
// where a full solve takes n².
func (c *Cholesky) SolveTrailingTo(x, b sparse.Vec) {
	n, k := c.n, len(b)
	if k > n || len(x) != k {
		panic(fmt.Sprintf("dense: Cholesky.SolveTrailingTo dimension mismatch n=%d len(b)=%d len(x)=%d", n, k, len(x)))
	}
	m := n - k
	ld := c.l.data
	for i := 0; i < k; i++ {
		row := ld[(m+i)*n+m : (m+i)*n+m+i+1]
		s := b[i]
		for j, xj := range x[:i] {
			s -= row[j] * xj
		}
		x[i] = s / row[i]
	}
	for i := k - 1; i >= 0; i-- {
		row := c.lt[(m+i)*n+m : (m+i+1)*n]
		s := x[i]
		for j := i + 1; j < k; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
}

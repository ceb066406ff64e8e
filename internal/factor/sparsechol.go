package factor

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/sparse"
)

// Cholesky is the sparse factor L of the symmetrically permuted SPD
// matrix P·A·Pᵀ = L·Lᵀ, stored column-compressed with the diagonal entry
// first in every column. The symbolic phase (elimination tree and per-column
// counts) sizes the factor exactly, the numeric phase is the classic
// up-looking algorithm — one sparse triangular solve per row — and the solves
// are factor-once/solve-many like the dense backends.
//
// Like the symmetric dense factorisations it reads only the lower triangle of
// the input, so a numerically unsymmetric matrix is treated as if its lower
// triangle were mirrored.
type Cholesky struct {
	n       int
	order   Ordering // the resolved concrete ordering (never OrderAuto)
	perm    Perm     // perm[new] = old; nil when the ordering is the identity
	colPtr  []int
	rowIdx  []int32
	vals    []float64
	scratch sync.Pool // *sparse.Vec per-call solve scratch (SolveTo is reentrant)
}

// NewCholesky factorises the sparse SPD matrix a under the given ordering
// (OrderAuto resolves per the grid-vs-irregular policy). It returns
// ErrNotPositiveDefinite when a pivot is not strictly positive, leaving the
// caller (the auto policy) to fall back to the supernodal LDLᵀ or dense LU.
func NewCholesky(a *sparse.CSR, order Ordering) (*Cholesky, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("factor: sparse Cholesky of non-square %dx%d matrix", a.Rows(), a.Cols())
	}
	n := a.Rows()
	s := &Cholesky{n: n, order: resolveOrdering(a, order)}
	s.scratch.New = func() any { v := sparse.NewVec(n); return &v }
	c := a
	if n > 1 {
		if p := fillReducing(a, s.order); p != nil {
			s.perm = p
			c = a.PermuteSym(p)
		}
	}

	parent := etree(c)

	// Symbolic phase: per-column counts of L via one ereach sweep, then exact
	// allocation. mark/stack/pattern are shared with the numeric phase.
	mark := make([]int, n)
	stack := make([]int, n)
	pattern := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	count := make([]int, n)
	for k := 0; k < n; k++ {
		top := ereach(c, k, parent, mark, stack, pattern)
		count[k]++ // diagonal
		for _, j := range pattern[top:] {
			count[j]++
		}
	}
	s.colPtr = make([]int, n+1)
	for j := 0; j < n; j++ {
		s.colPtr[j+1] = s.colPtr[j] + count[j]
	}
	s.rowIdx = make([]int32, s.colPtr[n])
	s.vals = make([]float64, s.colPtr[n])

	// Numeric phase (up-looking): for every row k solve the sparse triangular
	// system L(0:k-1,0:k-1)·l = C(0:k-1,k) over the ereach pattern, then take
	// the square-root pivot. fill[j] tracks the next free slot of column j;
	// the diagonal lands first in each column because column k receives its
	// first entry at step k.
	for i := range mark {
		mark[i] = -1
	}
	fill := make([]int, n)
	copy(fill, s.colPtr[:n])
	x := make([]float64, n)
	for k := 0; k < n; k++ {
		top := ereach(c, k, parent, mark, stack, pattern)
		d := 0.0
		cols, vals := c.RowView(k)
		for t, j := range cols {
			if j > k {
				break
			}
			if j == k {
				d = vals[t]
			} else {
				x[j] = vals[t]
			}
		}
		for _, j := range pattern[top:] {
			lkj := x[j] / s.vals[s.colPtr[j]]
			x[j] = 0
			for p := s.colPtr[j] + 1; p < fill[j]; p++ {
				x[s.rowIdx[p]] -= s.vals[p] * lkj
			}
			d -= lkj * lkj
			s.rowIdx[fill[j]] = int32(k)
			s.vals[fill[j]] = lkj
			fill[j]++
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: pivot %d is %g", ErrNotPositiveDefinite, k, d)
		}
		s.rowIdx[fill[k]] = int32(k)
		s.vals[fill[k]] = math.Sqrt(d)
		fill[k]++
	}
	return s, nil
}

// etree computes the elimination tree of the pattern-symmetric matrix c using
// ancestor path compression (parent[i] = -1 for roots).
func etree(c *sparse.CSR) []int {
	n := c.Rows()
	parent := make([]int, n)
	ancestor := make([]int, n)
	for i := range parent {
		parent[i], ancestor[i] = -1, -1
	}
	for k := 0; k < n; k++ {
		cols, _ := c.RowView(k)
		for _, j := range cols {
			if j >= k {
				break
			}
			for i := j; i != -1 && i < k; {
				next := ancestor[i]
				ancestor[i] = k
				if next == -1 {
					parent[i] = k
					break
				}
				i = next
			}
		}
	}
	return parent
}

// ereach computes the nonzero pattern of row k of L — the reach of the lower
// row pattern of C through the elimination tree — in topological order. The
// pattern is written to out[top:] and top is returned; mark is stamped with k.
func ereach(c *sparse.CSR, k int, parent, mark, stack, out []int) int {
	top := len(out)
	mark[k] = k
	cols, _ := c.RowView(k)
	for _, j := range cols {
		if j >= k {
			break
		}
		l := 0
		for i := j; i != -1 && i < k && mark[i] != k; i = parent[i] {
			stack[l] = i
			l++
			mark[i] = k
		}
		for l > 0 {
			l--
			top--
			out[top] = stack[l]
		}
	}
	return top
}

// Dim returns the dimension of the factorised matrix.
func (s *Cholesky) Dim() int { return s.n }

// Backend implements LocalSolver.
func (s *Cholesky) Backend() string { return SparseCholesky }

// NNZL returns the number of stored entries of the factor L.
func (s *Cholesky) NNZL() int { return len(s.vals) }

// FactorBytes returns the factor's resident memory footprint (values, row
// indices, column pointers, permutation).
func (s *Cholesky) FactorBytes() int64 {
	return int64(len(s.vals))*8 + int64(len(s.rowIdx))*4 + int64(len(s.colPtr)+len(s.perm))*8
}

// Ordering returns the concrete fill-reducing ordering the factorisation
// resolved to (OrderRCM or OrderAMD when built with OrderAuto).
func (s *Cholesky) Ordering() Ordering { return s.order }

// Solve solves A·x = b and returns x.
func (s *Cholesky) Solve(b sparse.Vec) sparse.Vec {
	x := sparse.NewVec(s.n)
	s.SolveTo(x, b)
	return x
}

// SolveTo solves A·x = b into x: permute, forward-substitute down the columns
// of L, backward-substitute up Lᵀ, permute back. x may alias b. SolveTo is
// reentrant — the scratch is per call — so one factor may serve concurrent
// solves.
func (s *Cholesky) SolveTo(x, b sparse.Vec) {
	n := s.n
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("factor: sparse Cholesky solve dimension mismatch n=%d len(b)=%d len(x)=%d", n, len(b), len(x)))
	}
	wp := s.scratch.Get().(*sparse.Vec)
	w := *wp
	if s.perm != nil {
		for i, old := range s.perm {
			w[i] = b[old]
		}
	} else {
		copy(w, b)
	}
	// Forward: L y = P b, column-oriented so every column is a contiguous scan.
	for j := 0; j < n; j++ {
		start, end := s.colPtr[j], s.colPtr[j+1]
		wj := w[j] / s.vals[start]
		w[j] = wj
		for p := start + 1; p < end; p++ {
			w[s.rowIdx[p]] -= s.vals[p] * wj
		}
	}
	// Backward: Lᵀ z = y, reading the same columns as dot products.
	for j := n - 1; j >= 0; j-- {
		start, end := s.colPtr[j], s.colPtr[j+1]
		sum := w[j]
		for p := start + 1; p < end; p++ {
			sum -= s.vals[p] * w[s.rowIdx[p]]
		}
		w[j] = sum / s.vals[start]
	}
	if s.perm != nil {
		for i, old := range s.perm {
			x[old] = w[i]
		}
	} else {
		copy(x, w)
	}
	s.scratch.Put(wp)
}

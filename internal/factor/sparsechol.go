package factor

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/sparse"
)

// Cholesky is the sparse factor L of the symmetrically permuted SPD
// matrix P·A·Pᵀ = L·Lᵀ, stored column-compressed with the diagonal entry
// first in every column. The symbolic phase (an Analysis: elimination tree
// and per-column counts) sizes the factor exactly, the numeric phase is the
// classic up-looking algorithm — one sparse triangular solve per row — and
// the solves are factor-once/solve-many like the dense backends.
//
// Like the symmetric dense factorisations it reads only the lower triangle of
// the input, so a numerically unsymmetric matrix is treated as if its lower
// triangle were mirrored.
type Cholesky struct {
	n       int
	order   Ordering // the resolved concrete ordering (never OrderAuto)
	perm    Perm     // perm[new] = old; nil when the ordering is the identity
	an      *Analysis
	colPtr  []int
	rowIdx  []int32
	vals    []float64
	scratch sync.Pool // *sparse.Vec per-call solve scratch (SolveTo is reentrant)
}

// NewCholesky factorises a, which must have the analysed off-diagonal
// pattern, under the analysis's fill-reducing permutation (not its
// postorder: the up-looking kernel's floating-point order follows the
// labels). The analysis sizes L exactly — its column counts, relabelled from
// the postorder — and its elimination tree drives the numeric phase.
func (an *Analysis) NewCholesky(a *sparse.CSR) (*Cholesky, error) {
	if err := an.check(a); err != nil {
		return nil, err
	}
	n := an.n
	s := &Cholesky{n: n, order: an.order, perm: an.fill, an: an}
	s.scratch.New = func() any { v := sparse.NewVec(n); return &v }
	s.colPtr = make([]int, n+1)
	for i, cnt := range an.count {
		j := i
		if an.post != nil {
			j = int(an.post[i])
		}
		s.colPtr[j+1] = int(cnt)
	}
	for j := 0; j < n; j++ {
		s.colPtr[j+1] += s.colPtr[j]
	}
	s.rowIdx = make([]int32, s.colPtr[n])
	s.vals = make([]float64, s.colPtr[n])

	// Numeric phase (up-looking): for every row k solve the sparse triangular
	// system L(0:k-1,0:k-1)·l = C(0:k-1,k) over the ereach pattern, then take
	// the square-root pivot. fill[j] tracks the next free slot of column j;
	// the diagonal lands first in each column because column k receives its
	// first entry at step k.
	w := getWorkspace()
	defer w.release()
	c := lowerRows(a, an.fill, w)
	parent := an.parent
	mark, stack, pattern := w.filled(n, -1), w.take(n), w.take(n)
	fill := w.intBuf(n)
	copy(fill, s.colPtr[:n])
	x := w.floats(n)
	for k := 0; k < n; k++ {
		top := ereach(c, k, parent, mark, stack, pattern)
		d := 0.0
		for t := c.ptr[k]; t < c.ptr[k+1]; t++ {
			if j := c.idx[t]; int(j) == k {
				d = c.val[t]
			} else {
				x[j] = c.val[t]
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

// lowerCSR is the lower triangle of C = PAPᵀ, diagonal included, row by row
// in ascending column order: row k is idx/val[ptr[k]:ptr[k+1]].
type lowerCSR struct {
	ptr []int32
	idx []int32
	val []float64
}

// lowerRows builds the lower triangle of PAPᵀ (perm nil: of a) from the
// workspace: row k is row perm[k] of a restricted to the columns that map at
// or below k, the entries and values the up-looking kernel reads of the
// permuted matrix. Two counting passes — the entries bucketed by column with
// rows ascending, then by row with columns ascending — order every row
// without a comparison sort.
func lowerRows(a *sparse.CSR, perm Perm, w *workspace) lowerCSR {
	n := a.Rows()
	var inv []int32
	if perm != nil {
		inv = inverse(perm, w.take(n))
	}
	col := func(c int) int32 {
		if inv != nil {
			return inv[c]
		}
		return int32(c)
	}
	row := func(k int) ([]int, []float64) {
		if perm != nil {
			return a.RowView(perm[k])
		}
		return a.RowView(k)
	}
	// Entry counts per row and per column of the lower triangle.
	rowPtr, colPtr := w.filled(n+1, 0), w.filled(n+1, 0)
	for k := 0; k < n; k++ {
		cols, _ := row(k)
		for _, c := range cols {
			if j := col(c); int(j) <= k {
				rowPtr[k+1]++
				colPtr[j+1]++
			}
		}
	}
	for k := 0; k < n; k++ {
		rowPtr[k+1] += rowPtr[k]
		colPtr[k+1] += colPtr[k]
	}
	nnz := int(rowPtr[n])
	// Bucket by column, rows ascending ...
	cursor := w.take(n)
	copy(cursor, colPtr[:n])
	byColRow, byColVal := w.take(nnz), w.takeFloats(nnz)
	for k := 0; k < n; k++ {
		cols, vals := row(k)
		for t, c := range cols {
			if j := col(c); int(j) <= k {
				byColRow[cursor[j]] = int32(k)
				byColVal[cursor[j]] = vals[t]
				cursor[j]++
			}
		}
	}
	// ... then by row, columns ascending.
	copy(cursor, rowPtr[:n])
	out := lowerCSR{ptr: rowPtr, idx: w.take(nnz), val: w.takeFloats(nnz)}
	for j := 0; j < n; j++ {
		for t := colPtr[j]; t < colPtr[j+1]; t++ {
			k := byColRow[t]
			out.idx[cursor[k]] = int32(j)
			out.val[cursor[k]] = byColVal[t]
			cursor[k]++
		}
	}
	return out
}

// ereach computes the nonzero pattern of row k of L — the reach of the lower
// row pattern of C through the elimination tree — in topological order. The
// pattern is written to out[top:] and top is returned; mark is stamped with k.
func ereach(c lowerCSR, k int, parent, mark, stack, out []int32) int {
	top := len(out)
	k32 := int32(k)
	mark[k] = k32
	for _, j := range c.idx[c.ptr[k]:c.ptr[k+1]] {
		if j >= k32 {
			break
		}
		l := 0
		for i := j; i != -1 && i < k32 && mark[i] != k32; i = parent[i] {
			stack[l] = i
			l++
			mark[i] = k32
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

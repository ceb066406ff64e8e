package sparse

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// CSR is a sparse matrix in compressed-sparse-row form. It is immutable once
// built (all mutating constructors return new matrices), which makes it safe
// to share between the concurrently running subdomain solvers.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// NewCSRFromDense builds a CSR matrix from a dense row-major [][]float64.
// Entries with absolute value below dropTol are not stored.
func NewCSRFromDense(a [][]float64, dropTol float64) *CSR {
	rows := len(a)
	cols := 0
	if rows > 0 {
		cols = len(a[0])
	}
	coo := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		if len(a[i]) != cols {
			panic("sparse: NewCSRFromDense ragged input")
		}
		for j := 0; j < cols; j++ {
			if math.Abs(a[i][j]) > dropTol {
				coo.Add(i, j, a[i][j])
			}
		}
	}
	return coo.ToCSR()
}

// Identity returns the n×n identity matrix.
func Identity(n int) *CSR {
	coo := NewCOO(n, n)
	coo.Grow(n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1)
	}
	return coo.ToCSR()
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored non-zeros.
func (m *CSR) NNZ() int { return len(m.vals) }

// At returns the value at (i, j), zero if not stored. O(log nnz(row i)).
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("sparse: At index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	k := lo + sort.SearchInts(m.colIdx[lo:hi], j)
	if k < hi && m.colIdx[k] == j {
		return m.vals[k]
	}
	return 0
}

// RowView returns the column indices and values of row i (in column order) as
// slices sharing the matrix's backing arrays. Callers must not mutate them.
// It is the allocation-free access path the sparse factorisations iterate on.
func (m *CSR) RowView(i int) ([]int, []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.vals[lo:hi]
}

// Row calls fn(col, val) for each stored entry of row i in column order.
func (m *CSR) Row(i int, fn func(col int, val float64)) {
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		fn(m.colIdx[k], m.vals[k])
	}
}

// Each calls fn(row, col, val) for every stored entry.
func (m *CSR) Each(fn func(i, j int, v float64)) {
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			fn(i, m.colIdx[k], m.vals[k])
		}
	}
}

// MulVec computes y = A x and returns y as a new vector.
func (m *CSR) MulVec(x Vec) Vec {
	y := NewVec(m.rows)
	m.MulVecTo(y, x)
	return y
}

// MulVecTo computes y = A x into the provided y (which must have length Rows).
func (m *CSR) MulVecTo(y, x Vec) {
	if len(x) != m.cols {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: %dx%d by %d", m.rows, m.cols, len(x)))
	}
	if len(y) != m.rows {
		panic(fmt.Sprintf("sparse: MulVecTo output length %d, want %d", len(y), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.vals[k] * x[m.colIdx[k]]
		}
		y[i] = s
	}
}

// Residual returns b - A x.
func (m *CSR) Residual(x, b Vec) Vec {
	r := m.MulVec(x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return r
}

// RelResidual returns the relative residual ‖b − A x‖₂ / ‖b‖₂ every solver
// reports; for b = 0 it divides by 1, giving the absolute residual.
func (m *CSR) RelResidual(x, b Vec) float64 {
	bn := b.Norm2()
	if bn == 0 {
		bn = 1
	}
	return m.Residual(x, b).Norm2() / bn
}

// PermuteSym returns B = A(p, p), i.e. B(i, j) = A(p[i], p[j]), for a square
// matrix and a permutation in the perm[new] = old convention. Row i of B is
// row p[i] of A gathered with its columns relabelled, then sorted by its new
// columns (stably, so a row with a repeated column keeps their order). The
// factorisation backends permute every block they reorder, so this is on the
// factor-once hot path. It panics when p is not a permutation of 0..n-1.
func (m *CSR) PermuteSym(p []int) *CSR {
	n := m.rows
	if m.cols != n || len(p) != n {
		panic(fmt.Sprintf("sparse: PermuteSym of %dx%d matrix with %d-permutation", m.rows, m.cols, len(p)))
	}
	inv := make([]int, n)
	for i := range inv {
		inv[i] = -1
	}
	for newIdx, oldIdx := range p {
		if oldIdx < 0 || oldIdx >= n {
			panic(fmt.Sprintf("sparse: PermuteSym p[%d] = %d outside [0,%d)", newIdx, oldIdx, n))
		}
		if inv[oldIdx] >= 0 {
			panic(fmt.Sprintf("sparse: PermuteSym p[%d] = %d repeats p[%d]", newIdx, oldIdx, inv[oldIdx]))
		}
		inv[oldIdx] = newIdx
	}
	rowPtr := make([]int, n+1)
	colIdx := make([]int, len(m.colIdx))
	vals := make([]float64, len(m.vals))
	k := 0
	for i, old := range p {
		lo := k
		for q := m.rowPtr[old]; q < m.rowPtr[old+1]; q++ {
			colIdx[k], vals[k] = inv[m.colIdx[q]], m.vals[q]
			k++
		}
		sortRow(colIdx[lo:k], vals[lo:k])
		rowPtr[i+1] = k
	}
	return &CSR{rows: n, cols: n, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// AddDiag returns A + diag(d) as a new matrix, built row by row in one pass.
// It stores what COO.ToCSR would for A's entries followed by d's: stored zeros
// of A and zeros of d are dropped, a diagonal present in both holds A's value
// plus d's, and a diagonal that cancels to zero is not stored.
func (m *CSR) AddDiag(d Vec) *CSR {
	if len(d) != m.rows || m.rows != m.cols {
		panic("sparse: AddDiag requires a square matrix and matching diagonal length")
	}
	rowPtr := make([]int, m.rows+1)
	colIdx := make([]int, len(m.vals)+len(d))
	vals := make([]float64, len(m.vals)+len(d))
	w := 0
	for i := 0; i < m.rows; i++ {
		k, end := m.rowPtr[i], m.rowPtr[i+1]
		for ; k < end && m.colIdx[k] < i; k++ {
			if v := m.vals[k]; v != 0 {
				colIdx[w], vals[w] = m.colIdx[k], v
				w++
			}
		}
		diag := d[i]
		if k < end && m.colIdx[k] == i {
			if v := m.vals[k]; v != 0 {
				diag = v + d[i]
			}
			k++
		}
		if diag != 0 {
			colIdx[w], vals[w] = i, diag
			w++
		}
		for ; k < end; k++ {
			if v := m.vals[k]; v != 0 {
				colIdx[w], vals[w] = m.colIdx[k], v
				w++
			}
		}
		rowPtr[i+1] = w
	}
	return &CSR{rows: m.rows, cols: m.cols, rowPtr: rowPtr, colIdx: colIdx[:w], vals: vals[:w]}
}

// IsSymmetric reports whether |A(i,j) - A(j,i)| <= tol for every entry; a
// difference that is NaN fails the test. Rows are visited in ascending order
// and each entry above the diagonal is paired with its mirror below through a
// cursor into the mirror's row that only moves forward, so every entry is read
// once as itself and at most once as a mirror: O(nnz) in all.
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	// next[j] is the first entry of row j below the diagonal that no mirror
	// has claimed yet. An entry the cursor steps over has no mirror, so it is
	// compared with zero.
	next := slices.Clone(m.rowPtr[:m.rows])
	for i := 0; i < m.rows; i++ {
		k, end := next[i], m.rowPtr[i+1]
		for ; k < end && m.colIdx[k] < i; k++ {
			if !(math.Abs(m.vals[k]) <= tol) {
				return false
			}
		}
		if k < end && m.colIdx[k] == i {
			if v := m.vals[k]; !(math.Abs(v-v) <= tol) {
				return false
			}
			k++
		}
		for ; k < end; k++ {
			j, v := m.colIdx[k], m.vals[k]
			q, qend := next[j], m.rowPtr[j+1]
			for ; q < qend && m.colIdx[q] < i; q++ {
				if !(math.Abs(m.vals[q]) <= tol) {
					return false
				}
			}
			mirror := 0.0
			if q < qend && m.colIdx[q] == i {
				mirror = m.vals[q]
				q++
			}
			next[j] = q
			if !(math.Abs(v-mirror) <= tol) {
				return false
			}
		}
	}
	return true
}

// IsDiagonallyDominant reports whether A is (weakly) diagonally dominant, and
// strictly dominant in at least one row when strictSomewhere is required by the
// caller (the second return value reports the number of strictly dominant rows).
func (m *CSR) IsDiagonallyDominant() (weak bool, strictRows int) {
	if m.rows != m.cols {
		return false, 0
	}
	weak = true
	for i := 0; i < m.rows; i++ {
		var diag, off float64
		m.Row(i, func(j int, v float64) {
			if j == i {
				diag = v
			} else {
				off += math.Abs(v)
			}
		})
		if diag < off-1e-12 {
			weak = false
		}
		if diag > off+1e-12 {
			strictRows++
		}
	}
	return weak, strictRows
}

// Submatrix extracts the submatrix with the given row and column index sets
// (in the given order). Index i of the result corresponds to rowIdx[i] of m.
func (m *CSR) Submatrix(rowIdx, colIdx []int) *CSR {
	colPos := make(map[int]int, len(colIdx))
	for p, j := range colIdx {
		colPos[j] = p
	}
	coo := NewCOO(len(rowIdx), len(colIdx))
	for p, i := range rowIdx {
		m.Row(i, func(j int, v float64) {
			if q, ok := colPos[j]; ok {
				coo.Add(p, q, v)
			}
		})
	}
	return coo.ToCSR()
}

// ToDense returns the matrix as a dense row-major slice of slices.
func (m *CSR) ToDense() [][]float64 {
	out := make([][]float64, m.rows)
	for i := range out {
		out[i] = make([]float64, m.cols)
	}
	m.Each(func(i, j int, v float64) { out[i][j] = v })
	return out
}

// MaxAbs returns the largest absolute value of any stored entry.
func (m *CSR) MaxAbs() float64 {
	var mx float64
	for _, v := range m.vals {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// EqualApprox reports whether A and B have the same shape and agree entry-wise
// within tol.
func (m *CSR) EqualApprox(b *CSR, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	ok := true
	m.Each(func(i, j int, v float64) {
		if !ok {
			return
		}
		if math.Abs(v-b.At(i, j)) > tol {
			ok = false
		}
	})
	if !ok {
		return false
	}
	b.Each(func(i, j int, v float64) {
		if !ok {
			return
		}
		if math.Abs(v-m.At(i, j)) > tol {
			ok = false
		}
	})
	return ok
}

// String renders small matrices densely for debugging; larger matrices render
// as a summary line.
func (m *CSR) String() string {
	if m.rows*m.cols > 400 {
		return fmt.Sprintf("CSR{%dx%d, nnz=%d}", m.rows, m.cols, m.NNZ())
	}
	s := fmt.Sprintf("CSR %dx%d:\n", m.rows, m.cols)
	d := m.ToDense()
	for i := range d {
		for j := range d[i] {
			s += fmt.Sprintf("%9.4g ", d[i][j])
		}
		s += "\n"
	}
	return s
}

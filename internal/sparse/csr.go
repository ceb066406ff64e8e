package sparse

import (
	"fmt"
	"math"
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

// PermuteSym returns B = A(p, p), i.e. B(i, j) = A(p[i], p[j]), for a square
// matrix and a permutation in the perm[new] = old convention. It runs in
// O(nnz) with two counting passes (no comparison sort): the first pass builds
// Bᵀ with sorted rows by scanning B's rows in ascending order, the second
// transposes it back the same way. The factorisation backends permute every
// block they reorder, so this is on the factor-once hot path.
func (m *CSR) PermuteSym(p []int) *CSR {
	n := m.rows
	if m.cols != n || len(p) != n {
		panic(fmt.Sprintf("sparse: PermuteSym of %dx%d matrix with %d-permutation", m.rows, m.cols, len(p)))
	}
	inv := make([]int, n)
	for newIdx, oldIdx := range p {
		inv[oldIdx] = newIdx
	}
	nnz := len(m.vals)

	// Pass 1: build T = Bᵀ. Scanning new rows i in ascending order and
	// appending each entry (i, inv[c]) to T's row inv[c] leaves every T row
	// with ascending column indices.
	tPtr := make([]int, n+1)
	for _, c := range m.colIdx {
		tPtr[inv[c]+1]++
	}
	for i := 0; i < n; i++ {
		tPtr[i+1] += tPtr[i]
	}
	tCol := make([]int, nnz)
	tVal := make([]float64, nnz)
	tFill := make([]int, n)
	copy(tFill, tPtr[:n])
	for i := 0; i < n; i++ {
		old := p[i]
		for q := m.rowPtr[old]; q < m.rowPtr[old+1]; q++ {
			r := inv[m.colIdx[q]]
			tCol[tFill[r]] = i
			tVal[tFill[r]] = m.vals[q]
			tFill[r]++
		}
	}

	// Pass 2: transpose T back into B; scanning T's rows in order sorts B's.
	bPtr := make([]int, n+1)
	for _, c := range tCol {
		bPtr[c+1]++
	}
	for i := 0; i < n; i++ {
		bPtr[i+1] += bPtr[i]
	}
	bCol := make([]int, nnz)
	bVal := make([]float64, nnz)
	bFill := make([]int, n)
	copy(bFill, bPtr[:n])
	for i := 0; i < n; i++ {
		for q := tPtr[i]; q < tPtr[i+1]; q++ {
			r := tCol[q]
			bCol[bFill[r]] = i
			bVal[bFill[r]] = tVal[q]
			bFill[r]++
		}
	}
	return &CSR{rows: n, cols: n, rowPtr: bPtr, colIdx: bCol, vals: bVal}
}

// AddDiag returns A + diag(d) as a new matrix.
func (m *CSR) AddDiag(d Vec) *CSR {
	if len(d) != m.rows || m.rows != m.cols {
		panic("sparse: AddDiag requires a square matrix and matching diagonal length")
	}
	coo := NewCOO(m.rows, m.cols)
	coo.Grow(m.NNZ() + len(d))
	m.Each(func(i, j int, v float64) { coo.Add(i, j, v) })
	for i, v := range d {
		coo.Add(i, i, v)
	}
	return coo.ToCSR()
}

// IsSymmetric reports whether |A(i,j) - A(j,i)| <= tol for every entry.
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	sym := true
	m.Each(func(i, j int, v float64) {
		if !sym {
			return
		}
		if math.Abs(v-m.At(j, i)) > tol {
			sym = false
		}
	})
	return sym
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

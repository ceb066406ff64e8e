// Package dense provides the dense linear-algebra kernels the DTM reproduction
// relies on: dense matrices and Cholesky / LU factorisations with
// factor-once/solve-many triangular solves, behind factor's dense-cholesky and
// dense-lu backends and the small-system reference solve (SolveExact).
package dense

import (
	"fmt"
	"math"

	"repro/internal/sparse"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zero rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("dense: New negative dimension %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of rows.
func FromRows(rows [][]float64) *Matrix {
	r := len(rows)
	c := 0
	if r > 0 {
		c = len(rows[0])
	}
	m := New(r, c)
	for i := 0; i < r; i++ {
		if len(rows[i]) != c {
			panic("dense: FromRows ragged input")
		}
		copy(m.data[i*c:(i+1)*c], rows[i])
	}
	return m
}

// FromCSR converts a sparse matrix to dense form.
func FromCSR(a *sparse.CSR) *Matrix {
	m := New(a.Rows(), a.Cols())
	a.Each(func(i, j int, v float64) { m.Set(i, j, v) })
	return m
}

// Rows returns the row count.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Matrix) Cols() int { return m.cols }

// At returns the (i, j) entry.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the (i, j) entry.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Addf adds v to the (i, j) entry.
func (m *Matrix) Addf(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// MulVec computes y = M x.
func (m *Matrix) MulVec(x sparse.Vec) sparse.Vec {
	if len(x) != m.cols {
		panic(fmt.Sprintf("dense: MulVec dimension mismatch %dx%d by %d", m.rows, m.cols, len(x)))
	}
	y := sparse.NewVec(m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// Mul returns M * B.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("dense: Mul dimension mismatch %dx%d by %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := New(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.cols; j++ {
				out.Addf(i, j, a*b.At(k, j))
			}
		}
	}
	return out
}

// Transpose returns Mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// EqualApprox reports whether M and B agree entry-wise within tol.
func (m *Matrix) EqualApprox(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix %dx%d:\n", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			s += fmt.Sprintf("%10.5g ", m.At(i, j))
		}
		s += "\n"
	}
	return s
}

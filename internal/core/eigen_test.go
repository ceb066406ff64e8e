package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// SymEigen computes all eigenvalues (and optionally eigenvectors) of a dense
// symmetric matrix using the cyclic Jacobi rotation method. It is the oracle
// FuzzTheoremClass holds classify to, and LemmaA2 decomposes √Z·A·√Z with it.
//
// The returned eigenvalues are sorted in ascending order; eigenvector column k
// of the returned matrix corresponds to eigenvalue k. If wantVectors is false
// the vector matrix is nil.
func SymEigen(a *dense.Matrix, wantVectors bool) ([]float64, *dense.Matrix, error) {
	if a.Rows() != a.Cols() {
		return nil, nil, fmt.Errorf("SymEigen of non-square %dx%d matrix", a.Rows(), a.Cols())
	}
	if !finite(a) {
		return nil, nil, fmt.Errorf("SymEigen of a matrix with a NaN or infinite entry")
	}
	if !isSymmetric(a, 1e-9*(1+maxAbs(a))) {
		return nil, nil, fmt.Errorf("SymEigen requires a symmetric matrix")
	}
	n := a.Rows()
	w := a.Clone()
	var v *dense.Matrix
	if wantVectors {
		v = identity(n)
	}

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off <= 1e-14*(1+maxAbs(w)) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				// Compute the Jacobi rotation that annihilates (p,q).
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				applyJacobiRotation(w, p, q, c, s)
				if wantVectors {
					// v = v * G(p, q, theta)
					for i := 0; i < n; i++ {
						vip := v.At(i, p)
						viq := v.At(i, q)
						v.Set(i, p, c*vip-s*viq)
						v.Set(i, q, s*vip+c*viq)
					}
				}
			}
		}
	}

	eig := make([]float64, n)
	for i := 0; i < n; i++ {
		eig[i] = w.At(i, i)
	}
	// Sort eigenvalues ascending, permuting eigenvectors accordingly.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return eig[order[a]] < eig[order[b]] })
	sortedEig := make([]float64, n)
	var sortedV *dense.Matrix
	if wantVectors {
		sortedV = dense.New(n, n)
	}
	for k, idx := range order {
		sortedEig[k] = eig[idx]
		if wantVectors {
			for i := 0; i < n; i++ {
				sortedV.Set(i, k, v.At(i, idx))
			}
		}
	}
	return sortedEig, sortedV, nil
}

// applyJacobiRotation applies the two-sided rotation G(p,q)ᵀ W G(p,q) in place.
func applyJacobiRotation(w *dense.Matrix, p, q int, c, s float64) {
	n := w.Rows()
	for i := 0; i < n; i++ {
		if i == p || i == q {
			continue
		}
		wip := w.At(i, p)
		wiq := w.At(i, q)
		w.Set(i, p, c*wip-s*wiq)
		w.Set(p, i, c*wip-s*wiq)
		w.Set(i, q, s*wip+c*wiq)
		w.Set(q, i, s*wip+c*wiq)
	}
	wpp := w.At(p, p)
	wqq := w.At(q, q)
	wpq := w.At(p, q)
	w.Set(p, p, c*c*wpp-2*s*c*wpq+s*s*wqq)
	w.Set(q, q, s*s*wpp+2*s*c*wpq+c*c*wqq)
	w.Set(p, q, 0)
	w.Set(q, p, 0)
}

func offDiagNorm(w *dense.Matrix) float64 {
	var s float64
	n := w.Rows()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s += w.At(i, j) * w.At(i, j)
		}
	}
	return math.Sqrt(2 * s)
}

// identity returns the n×n identity.
func identity(n int) *dense.Matrix {
	m := dense.New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// finite reports whether m has no NaN and no ±Inf entry.
func finite(m *dense.Matrix) bool {
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if v := m.At(i, j); math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// isSymmetric reports whether m is square and |m(i,j) − m(j,i)| ≤ tol for
// every entry.
func isSymmetric(m *dense.Matrix, tol float64) bool {
	if m.Rows() != m.Cols() {
		return false
	}
	for i := 0; i < m.Rows(); i++ {
		for j := i + 1; j < m.Cols(); j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// maxAbs returns the largest absolute entry of m.
func maxAbs(m *dense.Matrix) float64 {
	var mx float64
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if a := math.Abs(m.At(i, j)); a > mx {
				mx = a
			}
		}
	}
	return mx
}

func TestSymEigenOnKnownMatrices(t *testing.T) {
	// Diagonal matrix: eigenvalues are the diagonal, ascending.
	d := dense.FromRows([][]float64{{3, 0, 0}, {0, 1, 0}, {0, 0, 2}})
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
	a := dense.FromRows([][]float64{{2, 1}, {1, 2}})
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
	a := dense.FromRows([][]float64{{1, 2}, {0, 1}})
	if _, _, err := SymEigen(a, false); err == nil {
		t.Errorf("expected an error for a non-symmetric matrix")
	}
	// A NaN pair passes a tolerance test (NaN − NaN > tol is false), and the
	// rotations would spread it to every eigenvalue.
	nan := dense.FromRows([][]float64{{1, math.NaN()}, {math.NaN(), 1}})
	if vals, _, err := SymEigen(nan, false); err == nil {
		t.Errorf("expected an error for a NaN entry, got eigenvalues %v", vals)
	}
}

// Property: the eigenvalues returned by SymEigen sum to the trace and their
// product matches the determinant (for small random symmetric matrices).
func TestSymEigenTraceDetProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := dense.New(n, n)
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
		lu, err := dense.NewLU(a)
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

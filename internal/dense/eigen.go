package dense

import (
	"fmt"
	"math"
	"sort"
)

// SymEigen computes all eigenvalues (and optionally eigenvectors) of a dense
// symmetric matrix using the cyclic Jacobi rotation method. It is used to
// certify the SPD / SNND hypotheses of the paper's Theorem 6.1 on small and
// medium subgraph matrices and to study how the characteristic impedance
// interacts with the spectrum of Z·A (Lemma A.2).
//
// The returned eigenvalues are sorted in ascending order; eigenvector column k
// of the returned matrix corresponds to eigenvalue k. If wantVectors is false
// the vector matrix is nil.
func SymEigen(a *Matrix, wantVectors bool) ([]float64, *Matrix, error) {
	if a.Rows() != a.Cols() {
		return nil, nil, fmt.Errorf("dense: SymEigen of non-square %dx%d matrix", a.Rows(), a.Cols())
	}
	if !a.IsSymmetric(1e-9 * (1 + a.MaxAbs())) {
		return nil, nil, fmt.Errorf("dense: SymEigen requires a symmetric matrix")
	}
	n := a.Rows()
	w := a.Clone()
	var v *Matrix
	if wantVectors {
		v = Identity(n)
	}

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := offDiagNorm(w)
		if off <= 1e-14*(1+w.MaxAbs()) {
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
	var sortedV *Matrix
	if wantVectors {
		sortedV = New(n, n)
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
func applyJacobiRotation(w *Matrix, p, q int, c, s float64) {
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

func offDiagNorm(w *Matrix) float64 {
	var s float64
	n := w.Rows()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s += w.At(i, j) * w.At(i, j)
		}
	}
	return math.Sqrt(2 * s)
}

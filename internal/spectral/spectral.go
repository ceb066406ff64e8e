// Package spectral provides cheap spectral estimates for sparse symmetric
// matrices: Gershgorin bounds, power iteration, and definiteness
// certification. The DTM convergence-theorem checker (Theorem 6.1 in the
// paper: at least one subgraph SPD, all others SNND) uses these to certify
// large subgraphs without densifying them, falling back to a dense eigenvalue
// solve only for small blocks.
package spectral

import (
	"math"
	"math/rand"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// GershgorinBounds returns lower and upper bounds on the eigenvalues of the
// symmetric matrix a from the union of its Gershgorin discs.
func GershgorinBounds(a *sparse.CSR) (lo, hi float64) {
	n := a.Rows()
	if n == 0 {
		return 0, 0
	}
	lo = math.Inf(1)
	hi = math.Inf(-1)
	for i := 0; i < n; i++ {
		var diag, radius float64
		a.Row(i, func(j int, v float64) {
			if j == i {
				diag = v
			} else {
				radius += math.Abs(v)
			}
		})
		if diag-radius < lo {
			lo = diag - radius
		}
		if diag+radius > hi {
			hi = diag + radius
		}
	}
	return lo, hi
}

// PowerIteration estimates the largest-magnitude eigenvalue of the symmetric
// matrix a using at most maxIter iterations, starting from a seeded random
// vector. It returns the Rayleigh-quotient estimate and the number of
// iterations performed.
func PowerIteration(a *sparse.CSR, maxIter int, tol float64, seed int64) (float64, int) {
	n := a.Rows()
	if n == 0 {
		return 0, 0
	}
	rng := rand.New(rand.NewSource(seed))
	x := sparse.NewVec(n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	norm := x.Norm2()
	if norm == 0 {
		x[0] = 1
		norm = 1
	}
	x.Scale(1 / norm)
	y := sparse.NewVec(n)
	prev := math.Inf(1)
	for it := 1; it <= maxIter; it++ {
		a.MulVecTo(y, x)
		lambda := x.Dot(y)
		ny := y.Norm2()
		if ny == 0 {
			return 0, it
		}
		for i := range x {
			x[i] = y[i] / ny
		}
		if math.Abs(lambda-prev) <= tol*(1+math.Abs(lambda)) {
			return lambda, it
		}
		prev = lambda
	}
	return prev, maxIter
}

// SmallestEigenEstimate estimates the smallest eigenvalue of a symmetric
// matrix via a shifted power iteration on (hi*I - A), where hi is a Gershgorin
// upper bound: the dominant eigenvalue of the shifted matrix is hi - λ_min.
func SmallestEigenEstimate(a *sparse.CSR, maxIter int, tol float64, seed int64) float64 {
	_, hi := GershgorinBounds(a)
	n := a.Rows()
	if n == 0 {
		return 0
	}
	shift := hi + 1
	// Build shift*I - A.
	coo := sparse.NewCOO(n, n)
	a.Each(func(i, j int, v float64) { coo.Add(i, j, -v) })
	for i := 0; i < n; i++ {
		coo.Add(i, i, shift)
	}
	shifted := coo.ToCSR()
	lambdaShifted, _ := PowerIteration(shifted, maxIter, tol, seed)
	return shift - lambdaShifted
}

// Definiteness classifies a symmetric matrix.
type Definiteness int

// Definiteness classes, from Theorem 6.1's hypotheses.
const (
	// Indefinite means at least one eigenvalue is certainly negative.
	Indefinite Definiteness = iota
	// SNND (symmetric non-negative definite) means all eigenvalues are >= -tol.
	SNND
	// SPD means all eigenvalues are certainly > 0.
	SPD
)

// String implements fmt.Stringer.
func (d Definiteness) String() string {
	switch d {
	case SPD:
		return "SPD"
	case SNND:
		return "SNND"
	default:
		return "indefinite"
	}
}

// Classify determines whether the symmetric matrix a is SPD, SNND or
// indefinite. It tries certificates in increasing order of cost:
//
//  1. Gershgorin / diagonal dominance (sufficient for SPD or SNND).
//  2. Sparse-to-dense Cholesky for matrices up to denseLimit unknowns.
//  3. Dense symmetric eigenvalues for matrices up to denseLimit unknowns.
//  4. A power-iteration estimate of the smallest eigenvalue (approximate, used
//     only for large matrices where exact certification is impractical).
//
// tol is the tolerance for treating tiny negative eigenvalues as zero.
func Classify(a *sparse.CSR, tol float64, denseLimit int) Definiteness {
	if a.Rows() != a.Cols() {
		return Indefinite
	}
	if a.Rows() == 0 {
		return SPD
	}
	lo, _ := GershgorinBounds(a)
	if lo > tol {
		return SPD
	}
	if a.Rows() <= denseLimit {
		d := dense.FromCSR(a)
		if dense.IsSPD(d) {
			return SPD
		}
		minEig, err := dense.MinEigenvalue(d)
		if err == nil {
			switch {
			case minEig > tol:
				return SPD
			case minEig >= -tol:
				return SNND
			default:
				return Indefinite
			}
		}
	}
	if lo >= -tol {
		// Gershgorin already certifies non-negativity within tolerance.
		return SNND
	}
	minEig := SmallestEigenEstimate(a, 200, 1e-10, 1)
	switch {
	case minEig > tol:
		return SPD
	case minEig >= -tol:
		return SNND
	default:
		return Indefinite
	}
}

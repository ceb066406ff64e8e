package core

// The paper's convergence theory (Section 6 and the Appendix) as executable
// checks for the two-subdomain case the proof is written for. Given an EVS
// split A = A₁ + A₂ of an SPD matrix and a positive diagonal
// characteristic-impedance matrix Z, they verify numerically:
//
//   - Lemma A.2: √Z·Aⱼ·√Z is symmetric, so Z·Aⱼ is similar to a real diagonal
//     matrix with the eigenvalues tᵢ of √Z·Aⱼ·√Z;
//   - the Λ bounds the proof relies on: every eigenvalue of
//     Λ₁ = (I+T₁)(I−T₁)⁻¹ has magnitude > 1 and every eigenvalue of
//     Λ₂ = (I−T₂)(I+T₂)⁻¹ has magnitude < 1 whenever A₁ is SPD and A₂ is SPD
//     (or, in the boundary case, SNND gives magnitudes ≤ 1);
//   - the key step of the contradiction argument: the matrix
//     K(s) = Q₁Λ₁Q₁ᵀ − E_τ(s)·Q₂Λ₂Q₂ᵀ·E_σ(s), with E the diagonal delay
//     factors e^{−sτᵢ}, is non-singular for every s on the closed right
//     half-plane — checked on a grid of points of the imaginary axis (the
//     boundary of that region, where the argument is tight);
//   - the conclusion in its discrete-time form: the synchronous (VTM, unit
//     delay) wave-iteration operator of the two coupled subdomains has
//     spectral radius < 1, so the iteration contracts to the exact solution.
//
// No binary runs them. theory_test.go checks them on Example 4.1's port
// blocks and on random SPD splits, and TestTheoryPredictsVTMContraction holds
// the operator's spectral radius to EngineVTM's measured contraction.

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// Split describes the two-subdomain tearing A = A₁ + A₂ of the Appendix,
// together with the characteristic impedances of the r DTLPs (one per torn
// vertex; the Appendix assumes every vertex is split, so A₁, A₂ and Z all have
// dimension r).
type Split struct {
	// A1 and A2 are the two subgraph matrices; their sum is the original A.
	A1, A2 *dense.Matrix
	// Z holds the characteristic impedances (strictly positive).
	Z sparse.Vec
	// TauForward and TauBackward are the propagation delays of the DTLs from
	// subdomain 1 to 2 and from 2 to 1, per line. Only their positivity matters
	// for the theory; they enter the K(s) non-singularity check.
	TauForward, TauBackward sparse.Vec
}

// Validate checks the structural assumptions of the Appendix.
func (s Split) Validate() error {
	if s.A1 == nil || s.A2 == nil {
		return fmt.Errorf("theory: both subgraph matrices are required")
	}
	r := s.A1.Rows()
	if s.A1.Cols() != r || s.A2.Rows() != r || s.A2.Cols() != r {
		return fmt.Errorf("theory: A1 and A2 must be square matrices of the same dimension")
	}
	if !finite(s.A1) || !finite(s.A2) {
		return fmt.Errorf("theory: A1 and A2 must have finite entries")
	}
	if !isSymmetric(s.A1, 1e-10) || !isSymmetric(s.A2, 1e-10) {
		return fmt.Errorf("theory: A1 and A2 must be symmetric")
	}
	if len(s.Z) != r {
		return fmt.Errorf("theory: Z has length %d, want %d", len(s.Z), r)
	}
	for i, z := range s.Z {
		if z <= 0 || math.IsNaN(z) {
			return fmt.Errorf("theory: impedance %d must be positive, got %g", i, z)
		}
	}
	for _, taus := range []sparse.Vec{s.TauForward, s.TauBackward} {
		if taus == nil {
			continue
		}
		if len(taus) != r {
			return fmt.Errorf("theory: delay vector has length %d, want %d", len(taus), r)
		}
		for i, tau := range taus {
			if tau <= 0 || math.IsNaN(tau) {
				return fmt.Errorf("theory: delay %d must be positive, got %g", i, tau)
			}
		}
	}
	return nil
}

// Dim returns the number of torn vertices r.
func (s Split) Dim() int { return s.A1.Rows() }

// delays returns the forward and backward delay vectors, defaulting to unit
// delays when unset.
func (s Split) delays() (fw, bw sparse.Vec) {
	r := s.Dim()
	fw, bw = s.TauForward, s.TauBackward
	if fw == nil {
		fw = sparse.NewVec(r)
		fw.Fill(1)
	}
	if bw == nil {
		bw = sparse.NewVec(r)
		bw.Fill(1)
	}
	return fw, bw
}

// scaled returns √Z·A·√Z, the symmetric matrix of Lemma A.2.
func scaled(a *dense.Matrix, z sparse.Vec) *dense.Matrix {
	r := a.Rows()
	out := dense.New(r, r)
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			out.Set(i, j, math.Sqrt(z[i])*a.At(i, j)*math.Sqrt(z[j]))
		}
	}
	return out
}

// LemmaA2 computes the eigen-decomposition √Z·A·√Z = Q·T·Qᵀ of Lemma A.2 for
// one subgraph matrix and returns the eigenvalues T (ascending) and the
// orthonormal eigenvector matrix Q. The eigenvalues are exactly the
// eigenvalues of Z·A, which is what the lemma asserts.
func LemmaA2(a *dense.Matrix, z sparse.Vec) (t []float64, q *dense.Matrix, err error) {
	if len(z) != a.Rows() {
		return nil, nil, fmt.Errorf("theory: Z has length %d, want %d", len(z), a.Rows())
	}
	return SymEigen(scaled(a, z), true)
}

// LambdaSpectra returns the eigenvalues of Λ₁ = (I+T₁)(I−T₁)⁻¹ and of
// Λ₂ = (I−T₂)(I+T₂)⁻¹ for the split, in the same ascending order as the
// underlying Tⱼ spectra. A singular (I−T₁) — an eigenvalue of Z·A₁ exactly
// equal to 1 — is reported as an error; perturbing Z infinitesimally removes
// it, which is why the theorem can take the impedances to be arbitrary.
func LambdaSpectra(s Split) (lambda1, lambda2 []float64, err error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	t1, _, err := LemmaA2(s.A1, s.Z)
	if err != nil {
		return nil, nil, err
	}
	t2, _, err := LemmaA2(s.A2, s.Z)
	if err != nil {
		return nil, nil, err
	}
	lambda1 = make([]float64, len(t1))
	for i, t := range t1 {
		if math.Abs(1-t) < 1e-14 {
			return nil, nil, fmt.Errorf("theory: an eigenvalue of Z·A1 equals 1; (I−T1) is singular for this Z")
		}
		lambda1[i] = (1 + t) / (1 - t)
	}
	lambda2 = make([]float64, len(t2))
	for i, t := range t2 {
		lambda2[i] = (1 - t) / (1 + t)
	}
	return lambda1, lambda2, nil
}

// LambdaReport summarises the Λ bounds the proof uses.
type LambdaReport struct {
	// MinAbsLambda1 is min |λ(Λ₁)|; the proof needs it to exceed 1.
	MinAbsLambda1 float64
	// MaxAbsLambda2 is max |λ(Λ₂)|; the proof needs it to stay below 1
	// (≤ 1 in the SNND boundary case).
	MaxAbsLambda2 float64
	// Holds reports whether MinAbsLambda1 > MaxAbsLambda2, the strict gap the
	// contradiction in the Appendix exploits.
	Holds bool
}

// CheckLambdaBounds evaluates the Λ bounds for a split.
func CheckLambdaBounds(s Split) (LambdaReport, error) {
	l1, l2, err := LambdaSpectra(s)
	if err != nil {
		return LambdaReport{}, err
	}
	rep := LambdaReport{MinAbsLambda1: math.Inf(1)}
	for _, v := range l1 {
		if a := math.Abs(v); a < rep.MinAbsLambda1 {
			rep.MinAbsLambda1 = a
		}
	}
	for _, v := range l2 {
		if a := math.Abs(v); a > rep.MaxAbsLambda2 {
			rep.MaxAbsLambda2 = a
		}
	}
	rep.Holds = rep.MinAbsLambda1 > rep.MaxAbsLambda2
	return rep, nil
}

// KMatrix assembles K(s) = Q₁Λ₁Q₁ᵀ − E_τ(s)·Q₂Λ₂Q₂ᵀ·E_σ(s) at one complex
// frequency s, the matrix whose non-singularity on the closed right half-plane
// is the heart of the Appendix proof.
func KMatrix(s Split, sPoint complex128) ([][]complex128, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	l1, l2, err := LambdaSpectra(s)
	if err != nil {
		return nil, err
	}
	_, q1, err := LemmaA2(s.A1, s.Z)
	if err != nil {
		return nil, err
	}
	_, q2, err := LemmaA2(s.A2, s.Z)
	if err != nil {
		return nil, err
	}
	r := s.Dim()
	h1 := similarity(q1, l1)
	h2 := similarity(q2, l2)
	fw, bw := s.delays()
	k := make([][]complex128, r)
	for i := range k {
		k[i] = make([]complex128, r)
		ei := cmplx.Exp(-sPoint * complex(fw[i], 0))
		for j := 0; j < r; j++ {
			ej := cmplx.Exp(-sPoint * complex(bw[j], 0))
			k[i][j] = complex(h1.At(i, j), 0) - ei*complex(h2.At(i, j), 0)*ej
		}
	}
	return k, nil
}

// similarity returns Q·diag(vals)·Qᵀ.
func similarity(q *dense.Matrix, vals []float64) *dense.Matrix {
	r := q.Rows()
	out := dense.New(r, r)
	for i := 0; i < r; i++ {
		for j := 0; j < r; j++ {
			sum := 0.0
			for k := 0; k < r; k++ {
				sum += q.At(i, k) * vals[k] * q.At(j, k)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

// KReport summarises the non-singularity sweep of K(s) along the imaginary
// axis (the boundary of the right half-plane, where the proof's inequality is
// tightest).
type KReport struct {
	// Points is the number of frequencies checked.
	Points int
	// MinPivot is the smallest absolute pivot met by the LU elimination of any
	// K(iω) over the sweep, normalised by the matrix scale — a cheap lower
	// witness of non-singularity.
	MinPivot float64
	// NonSingular reports whether every sampled K(iω) was comfortably
	// non-singular.
	NonSingular bool
}

// CheckKNonSingular sweeps K(iω) over a frequency grid ω ∈ [0, maxOmega]
// (plus the limiting point ω = 0 itself) and reports the smallest normalised
// pivot found. points must be at least 2.
func CheckKNonSingular(s Split, maxOmega float64, points int) (KReport, error) {
	if points < 2 || maxOmega <= 0 {
		return KReport{}, fmt.Errorf("theory: CheckKNonSingular needs maxOmega > 0 and at least 2 points")
	}
	rep := KReport{MinPivot: math.Inf(1)}
	for p := 0; p < points; p++ {
		omega := maxOmega * float64(p) / float64(points-1)
		k, err := KMatrix(s, complex(0, omega))
		if err != nil {
			return KReport{}, err
		}
		pivot := smallestPivot(k)
		if pivot < rep.MinPivot {
			rep.MinPivot = pivot
		}
		rep.Points++
	}
	rep.NonSingular = rep.MinPivot > 1e-9
	return rep, nil
}

// smallestPivot performs complex Gaussian elimination with partial pivoting
// and returns the smallest pivot magnitude normalised by the largest entry of
// the matrix; a value near zero means the matrix is (numerically) singular.
func smallestPivot(m [][]complex128) float64 {
	n := len(m)
	a := make([][]complex128, n)
	scale := 0.0
	for i := range m {
		a[i] = append([]complex128(nil), m[i]...)
		for _, v := range m[i] {
			if c := cmplx.Abs(v); c > scale {
				scale = c
			}
		}
	}
	if scale == 0 {
		return 0
	}
	minPivot := math.Inf(1)
	for k := 0; k < n; k++ {
		p := k
		for i := k + 1; i < n; i++ {
			if cmplx.Abs(a[i][k]) > cmplx.Abs(a[p][k]) {
				p = i
			}
		}
		a[k], a[p] = a[p], a[k]
		pivot := cmplx.Abs(a[k][k]) / scale
		if pivot < minPivot {
			minPivot = pivot
		}
		if pivot == 0 {
			return 0
		}
		for i := k + 1; i < n; i++ {
			f := a[i][k] / a[k][k]
			for j := k; j < n; j++ {
				a[i][j] -= f * a[k][j]
			}
		}
	}
	return minPivot
}

// VTMIterationOperator builds the synchronous (unit-delay) wave-iteration
// operator of the two coupled subdomains with zero sources: one sweep maps the
// incoming-wave vector (r₁, r₂) ∈ ℝ^{2r} to the waves each side receives at
// the next step. Its spectral radius below one is the discrete-time face of
// the convergence theorem.
func VTMIterationOperator(s Split) (*dense.Matrix, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	r := s.Dim()
	// Local solve operators (Aⱼ + Z⁻¹)⁻¹·Z⁻¹: the response of each subdomain's
	// port potentials to its incoming waves (equation (5.9) with zero sources).
	solve := func(a *dense.Matrix) (*dense.LU, error) {
		m := a.Clone()
		for i := 0; i < r; i++ {
			m.Addf(i, i, 1/s.Z[i])
		}
		return dense.NewLU(m)
	}
	lu1, err := solve(s.A1)
	if err != nil {
		return nil, fmt.Errorf("theory: subdomain 1 local system: %w", err)
	}
	lu2, err := solve(s.A2)
	if err != nil {
		return nil, fmt.Errorf("theory: subdomain 2 local system: %w", err)
	}

	op := dense.New(2*r, 2*r)
	apply := func(col int, r1, r2 sparse.Vec) {
		// u_j = (A_j + Z^{-1})^{-1} Z^{-1} r_j ; outgoing wave w_j = 2 u_j − r_j;
		// next incoming waves: r1' = w2, r2' = w1.
		rhs1 := sparse.NewVec(r)
		rhs2 := sparse.NewVec(r)
		for i := 0; i < r; i++ {
			rhs1[i] = r1[i] / s.Z[i]
			rhs2[i] = r2[i] / s.Z[i]
		}
		u1 := lu1.Solve(rhs1)
		u2 := lu2.Solve(rhs2)
		for i := 0; i < r; i++ {
			w1 := 2*u1[i] - r1[i]
			w2 := 2*u2[i] - r2[i]
			op.Set(i, col, w2)
			op.Set(r+i, col, w1)
		}
	}
	for col := 0; col < 2*r; col++ {
		r1 := sparse.NewVec(r)
		r2 := sparse.NewVec(r)
		if col < r {
			r1[col] = 1
		} else {
			r2[col-r] = 1
		}
		apply(col, r1, r2)
	}
	return op, nil
}

// SpectralRadiusEstimate estimates the spectral radius of a (generally
// non-symmetric) real matrix by the growth rate of repeated application to a
// deterministic starting vector: ρ ≈ ‖Mᵏ·x‖^(1/k) for large k, averaged over
// the last few steps to dampen the oscillation complex eigenvalue pairs cause.
func SpectralRadiusEstimate(m *dense.Matrix, iterations int) float64 {
	n := m.Rows()
	if n == 0 {
		return 0
	}
	if iterations < 8 {
		iterations = 8
	}
	x := make(sparse.Vec, n)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(n)) * (1 + 0.01*float64(i%7))
	}
	var lastRates []float64
	for k := 1; k <= iterations; k++ {
		y := m.MulVec(x)
		norm := y.Norm2()
		if norm == 0 {
			return 0
		}
		if k > iterations-6 {
			lastRates = append(lastRates, norm)
		}
		y.Scale(1 / norm)
		x = y
	}
	// Geometric mean of the last per-step growth factors.
	prod := 1.0
	for _, r := range lastRates {
		prod *= r
	}
	return math.Pow(prod, 1/float64(len(lastRates)))
}

// SplitReport bundles every check of this file for one split.
type SplitReport struct {
	Lambda         LambdaReport
	K              KReport
	SpectralRadius float64
	// Converges reports whether all three checks point the same way: the Λ gap
	// holds, K(iω) stays non-singular, and the synchronous iteration contracts.
	Converges bool
}

// CheckSplit runs every check of this file on a split with sensible
// defaults (a [0, 50/τ_min] frequency sweep with 64 points, 400 power
// iterations for the spectral radius).
func CheckSplit(s Split) (SplitReport, error) {
	if err := s.Validate(); err != nil {
		return SplitReport{}, err
	}
	lrep, err := CheckLambdaBounds(s)
	if err != nil {
		return SplitReport{}, err
	}
	fw, bw := s.delays()
	minTau := math.Inf(1)
	for i := range fw {
		if fw[i] < minTau {
			minTau = fw[i]
		}
		if bw[i] < minTau {
			minTau = bw[i]
		}
	}
	krep, err := CheckKNonSingular(s, 50/minTau, 64)
	if err != nil {
		return SplitReport{}, err
	}
	op, err := VTMIterationOperator(s)
	if err != nil {
		return SplitReport{}, err
	}
	rho := SpectralRadiusEstimate(op, 400)
	return SplitReport{
		Lambda:         lrep,
		K:              krep,
		SpectralRadius: rho,
		Converges:      lrep.Holds && krep.NonSingular && rho < 1,
	}, nil
}

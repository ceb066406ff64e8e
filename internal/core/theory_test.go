package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// paperSplit is the Appendix-style two-subdomain split of the paper's running
// example after eliminating the inner vertices would be overkill here; instead
// we use the port blocks of Example 4.1 directly: the split diagonal weights
// and the split boundary edge of V2 and V3 (the inner vertices do not change
// the structure of the theory checks).
func paperSplit() Split {
	a1 := dense.FromRows([][]float64{
		{2.5, -0.9},
		{-0.9, 3.3},
	})
	a2 := dense.FromRows([][]float64{
		{3.5, -1.1},
		{-1.1, 3.7},
	})
	return Split{
		A1:          a1,
		A2:          a2,
		Z:           sparse.Vec{0.2, 0.1},
		TauForward:  sparse.Vec{6.7, 6.7},
		TauBackward: sparse.Vec{2.9, 2.9},
	}
}

// randomSPDSplit builds a random SPD matrix of size r and splits it into two
// SPD halves with a random convex combination of the diagonal and an even
// split of the off-diagonals plus a positive margin on both sides.
func randomSPDSplit(rng *rand.Rand, r int) Split {
	a1 := dense.New(r, r)
	a2 := dense.New(r, r)
	for i := 0; i < r; i++ {
		for j := i + 1; j < r; j++ {
			w := -rng.Float64()
			a1.Set(i, j, w/2)
			a1.Set(j, i, w/2)
			a2.Set(i, j, w/2)
			a2.Set(j, i, w/2)
		}
	}
	for i := 0; i < r; i++ {
		rowAbs := 0.0
		for j := 0; j < r; j++ {
			if j != i {
				rowAbs += math.Abs(a1.At(i, j)) + math.Abs(a2.At(i, j))
			}
		}
		share := 0.3 + 0.4*rng.Float64()
		margin := 0.2 + rng.Float64()
		a1.Set(i, i, share*(rowAbs+margin))
		a2.Set(i, i, (1-share)*(rowAbs+margin))
	}
	z := make(sparse.Vec, r)
	fw := make(sparse.Vec, r)
	bw := make(sparse.Vec, r)
	for i := range z {
		z[i] = 0.05 + 2*rng.Float64()
		fw[i] = 0.5 + 5*rng.Float64()
		bw[i] = 0.5 + 5*rng.Float64()
	}
	return Split{A1: a1, A2: a2, Z: z, TauForward: fw, TauBackward: bw}
}

func TestSplitValidate(t *testing.T) {
	good := paperSplit()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid split rejected: %v", err)
	}
	cases := map[string]func(*Split){
		"nil matrix":     func(s *Split) { s.A1 = nil },
		"size mismatch":  func(s *Split) { s.A2 = identity(3) },
		"asymmetric":     func(s *Split) { s.A1 = dense.FromRows([][]float64{{1, 2}, {0, 1}}) },
		"NaN entry":      func(s *Split) { s.A1 = dense.FromRows([][]float64{{2.5, math.NaN()}, {math.NaN(), 3.3}}) },
		"bad Z length":   func(s *Split) { s.Z = sparse.Vec{1} },
		"negative Z":     func(s *Split) { s.Z = sparse.Vec{1, -1} },
		"zero delay":     func(s *Split) { s.TauForward = sparse.Vec{0, 1} },
		"bad delay size": func(s *Split) { s.TauBackward = sparse.Vec{1} },
	}
	for name, mutate := range cases {
		s := paperSplit()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected a validation error", name)
		}
	}
}

func TestLemmaA2EigenvaluesMatchZA(t *testing.T) {
	s := paperSplit()
	tvals, q, err := LemmaA2(s.A1, s.Z)
	if err != nil {
		t.Fatalf("LemmaA2: %v", err)
	}
	// Q must be orthonormal.
	if !q.Transpose().Mul(q).EqualApprox(identity(2), 1e-10) {
		t.Errorf("eigenvector matrix is not orthonormal")
	}
	// The eigenvalues of √Z·A·√Z are the eigenvalues of Z·A (Lemma A.2): check
	// via the characteristic polynomial of Z·A, i.e. det(Z·A − tI) = 0.
	za := dense.New(2, 2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			za.Set(i, j, s.Z[i]*s.A1.At(i, j))
		}
	}
	trace := za.At(0, 0) + za.At(1, 1)
	det := za.At(0, 0)*za.At(1, 1) - za.At(0, 1)*za.At(1, 0)
	for _, tv := range tvals {
		if math.Abs(tv*tv-trace*tv+det) > 1e-10 {
			t.Errorf("eigenvalue %g of √Z·A·√Z is not an eigenvalue of Z·A", tv)
		}
	}
	// All eigenvalues are positive because A1 is SPD and Z positive.
	for _, tv := range tvals {
		if tv <= 0 {
			t.Errorf("eigenvalue %g must be positive", tv)
		}
	}
}

func TestLambdaBoundsOnPaperSplit(t *testing.T) {
	rep, err := CheckLambdaBounds(paperSplit())
	if err != nil {
		t.Fatalf("CheckLambdaBounds: %v", err)
	}
	if rep.MinAbsLambda1 <= 1 {
		t.Errorf("min |Λ1| = %g, the Appendix needs it > 1", rep.MinAbsLambda1)
	}
	if rep.MaxAbsLambda2 >= 1 {
		t.Errorf("max |Λ2| = %g, the Appendix needs it < 1", rep.MaxAbsLambda2)
	}
	if !rep.Holds {
		t.Errorf("the Λ gap must hold for the paper's SPD split")
	}
}

func TestKMatrixNonSingularOnImaginaryAxis(t *testing.T) {
	rep, err := CheckKNonSingular(paperSplit(), 20, 80)
	if err != nil {
		t.Fatalf("CheckKNonSingular: %v", err)
	}
	if rep.Points != 80 {
		t.Errorf("points = %d", rep.Points)
	}
	if !rep.NonSingular {
		t.Errorf("K(iw) became (numerically) singular: min pivot %g", rep.MinPivot)
	}
}

func TestKMatrixAtZeroMatchesRealOperator(t *testing.T) {
	// At s = 0 the delay factors are 1 and K must be exactly H1 − H2, which is
	// real; its imaginary parts must vanish.
	s := paperSplit()
	k, err := KMatrix(s, 0)
	if err != nil {
		t.Fatalf("KMatrix: %v", err)
	}
	for i := range k {
		for j := range k[i] {
			if math.Abs(imag(k[i][j])) > 1e-12 {
				t.Errorf("K(0)[%d][%d] has an imaginary part %g", i, j, imag(k[i][j]))
			}
		}
	}
}

func TestCheckKNonSingularValidation(t *testing.T) {
	if _, err := CheckKNonSingular(paperSplit(), 0, 10); err == nil {
		t.Errorf("zero sweep range must be rejected")
	}
	if _, err := CheckKNonSingular(paperSplit(), 10, 1); err == nil {
		t.Errorf("a single-point sweep must be rejected")
	}
}

func TestVTMIterationOperatorContracts(t *testing.T) {
	s := paperSplit()
	op, err := VTMIterationOperator(s)
	if err != nil {
		t.Fatalf("VTMIterationOperator: %v", err)
	}
	if op.Rows() != 4 || op.Cols() != 4 {
		t.Fatalf("operator is %dx%d, want 4x4", op.Rows(), op.Cols())
	}
	rho := SpectralRadiusEstimate(op, 500)
	if rho >= 1 {
		t.Errorf("spectral radius %g, the synchronous special case must contract", rho)
	}
	if rho <= 0 {
		t.Errorf("spectral radius estimate %g is not positive", rho)
	}
}

func TestSpectralRadiusEstimateOnKnownMatrices(t *testing.T) {
	// Diagonal matrix: radius is the largest |entry|.
	d := dense.FromRows([][]float64{{0.5, 0}, {0, -0.8}})
	if got := SpectralRadiusEstimate(d, 300); math.Abs(got-0.8) > 1e-3 {
		t.Errorf("spectral radius of diag(0.5,-0.8) = %g, want 0.8", got)
	}
	// A rotation scaled by 0.9 has spectral radius 0.9 (complex pair).
	rot := dense.FromRows([][]float64{{0, -0.9}, {0.9, 0}})
	if got := SpectralRadiusEstimate(rot, 400); math.Abs(got-0.9) > 5e-3 {
		t.Errorf("spectral radius of the scaled rotation = %g, want 0.9", got)
	}
}

func TestCheckSplitOnPaperExample(t *testing.T) {
	rep, err := CheckSplit(paperSplit())
	if err != nil {
		t.Fatalf("CheckSplit: %v", err)
	}
	if !rep.Converges {
		t.Errorf("all convergence checks must pass for the paper split: %+v", rep)
	}
	if rep.SpectralRadius >= 1 || !rep.Lambda.Holds || !rep.K.NonSingular {
		t.Errorf("inconsistent report: %+v", rep)
	}
}

func TestCheckSplitDetectsIndefiniteSplit(t *testing.T) {
	// An indefinite A2 violates the theorem's hypotheses; at least one of the
	// checks must fail (the Λ2 bound blows past 1).
	s := paperSplit()
	s.A2 = dense.FromRows([][]float64{{1, 3}, {3, 1}})
	rep, err := CheckSplit(s)
	if err != nil {
		t.Fatalf("CheckSplit: %v", err)
	}
	if rep.Lambda.MaxAbsLambda2 < 1 {
		t.Errorf("an indefinite A2 must push |Λ2| past 1, got %g", rep.Lambda.MaxAbsLambda2)
	}
}

// Property: for random SPD two-way splits with random positive impedances and
// delays, every check of the convergence theory holds.
func TestTheoremChecksHoldForRandomSPDSplitsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := 2 + rng.Intn(6)
		s := randomSPDSplit(rng, r)
		rep, err := CheckSplit(s)
		if err != nil {
			return false
		}
		return rep.Converges
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: the Λ spectra react to Z exactly as the formulas say — scaling all
// impedances scales T and therefore moves Λ monotonically, but never breaks
// the |Λ1| > 1 > |Λ2| gap for SPD splits.
func TestLambdaGapStableUnderImpedanceScalingProperty(t *testing.T) {
	f := func(seed int64, rawScale uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSPDSplit(rng, 3)
		scale := 0.1 + float64(rawScale%50)/10
		for i := range s.Z {
			s.Z[i] *= scale
		}
		rep, err := CheckLambdaBounds(s)
		if err != nil {
			// An eigenvalue of Z·A1 hitting exactly 1 is measure-zero; treat it
			// as a pass rather than a counterexample.
			return true
		}
		return rep.Holds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

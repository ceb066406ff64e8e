package spectral

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

func TestGershgorinBoundsDiagonalMatrix(t *testing.T) {
	a := sparse.NewCSRFromDense([][]float64{{1, 0}, {0, 5}}, 0)
	lo, hi := GershgorinBounds(a)
	if lo != 1 || hi != 5 {
		t.Errorf("bounds = [%g, %g], want [1, 5]", lo, hi)
	}
}

func TestGershgorinBoundsContainSpectrum(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3; the discs give [1, 3].
	a := sparse.NewCSRFromDense([][]float64{{2, 1}, {1, 2}}, 0)
	lo, hi := GershgorinBounds(a)
	if lo > 1 || hi < 3 {
		t.Errorf("bounds [%g, %g] do not contain the spectrum [1, 3]", lo, hi)
	}
}

func TestPowerIterationTridiagonal(t *testing.T) {
	// The n-point 1-D Laplacian [2,-1] has λ_max = 2 + 2·cos(π/(n+1)).
	n := 20
	a := sparse.Tridiagonal(n, 2, -1).A
	want := 2 + 2*math.Cos(math.Pi/float64(n+1))
	got, iters := PowerIteration(a, 5000, 1e-12, 3)
	if iters <= 0 {
		t.Errorf("no iterations performed")
	}
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("largest eigenvalue estimate = %g, want %g", got, want)
	}
}

func TestSmallestEigenEstimateTridiagonal(t *testing.T) {
	n := 20
	a := sparse.Tridiagonal(n, 2, -1).A
	want := 2 - 2*math.Cos(math.Pi/float64(n+1))
	got := SmallestEigenEstimate(a, 20000, 1e-12, 3)
	if math.Abs(got-want) > 1e-4 {
		t.Errorf("smallest eigenvalue estimate = %g, want %g", got, want)
	}
}

func TestDefinitenessString(t *testing.T) {
	if SPD.String() == SNND.String() || SNND.String() == Indefinite.String() {
		t.Errorf("definiteness classes must have distinct names")
	}
	for _, d := range []Definiteness{SPD, SNND, Indefinite} {
		if d.String() == "" {
			t.Errorf("empty name for class %d", d)
		}
	}
}

func TestClassifyKnownMatrices(t *testing.T) {
	cases := []struct {
		name string
		a    *sparse.CSR
		want Definiteness
	}{
		{"identity", sparse.Identity(4), SPD},
		{"tridiagonal SPD", sparse.Tridiagonal(8, 2.5, -1).A, SPD},
		{"laplacian SNND", sparse.NewCSRFromDense([][]float64{
			{1, -1, 0},
			{-1, 2, -1},
			{0, -1, 1},
		}, 0), SNND},
		{"indefinite", sparse.NewCSRFromDense([][]float64{{1, 3}, {3, 1}}, 0), Indefinite},
		{"negative diagonal", sparse.NewCSRFromDense([][]float64{{-1, 0}, {0, 2}}, 0), Indefinite},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Classify(tc.a, 1e-10, 64); got != tc.want {
				t.Errorf("Classify = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestClassifyLargeMatrixAvoidsDensePath(t *testing.T) {
	// denseLimit of 4 forces the approximate (power-iteration / Gershgorin)
	// path on this 50-unknown SPD matrix; the classification must still not be
	// Indefinite.
	a := sparse.Tridiagonal(50, 2.5, -1).A
	if got := Classify(a, 1e-9, 4); got == Indefinite {
		t.Errorf("strictly dominant SPD matrix classified as indefinite via the approximate path")
	}
}

// Property: for random diagonally dominant SPD systems, Classify never says
// Indefinite and the Gershgorin bounds always bracket the power-iteration
// estimate of the extreme eigenvalue.
func TestClassifyRandomSPDProperty(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := 3 + int(rawN%30)
		sys := sparse.RandomSPD(n, 0.15, seed)
		if Classify(sys.A, 1e-10, 128) == Indefinite {
			return false
		}
		lo, hi := GershgorinBounds(sys.A)
		lmax, _ := PowerIteration(sys.A, 2000, 1e-10, seed)
		return lmax <= hi+1e-8 && lmax >= lo-1e-8 && lo > -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: shifting a matrix by +c·I shifts its Gershgorin bounds by c.
func TestGershgorinShiftProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		sys := sparse.RandomSPD(n, 0.3, seed)
		c := 1 + rng.Float64()*5
		shift := sparse.NewVec(n)
		shift.Fill(c)
		lo1, hi1 := GershgorinBounds(sys.A)
		lo2, hi2 := GershgorinBounds(sys.A.AddDiag(shift))
		return math.Abs(lo2-lo1-c) < 1e-9 && math.Abs(hi2-hi1-c) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

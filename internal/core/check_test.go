package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dense"
	"repro/internal/factor"
	"repro/internal/sparse"
	"repro/internal/topology"
)

// neumannLaplacian is the graph Laplacian of the nx×ny grid plus shift·I:
// singular with λ_min = 0 when shift is 0, and λ_min = shift otherwise.
func neumannLaplacian(nx, ny int, shift float64) *sparse.CSR {
	n := nx * ny
	coo := sparse.NewCOO(n, n)
	edge := func(i, j int) {
		coo.Add(i, i, 1)
		coo.Add(j, j, 1)
		coo.AddSym(i, j, -1)
	}
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			i := ix + iy*nx
			coo.Add(i, i, shift)
			if ix+1 < nx {
				edge(i, i+1)
			}
			if iy+1 < ny {
				edge(i, i+nx)
			}
		}
	}
	return coo.ToCSR()
}

// TestCheckTheoremClassesAreExact classifies matrices of known spectrum with
// CheckTheorem's tolerance rule. The first three rows are ones the Gershgorin,
// dense-Cholesky and power-iteration certificates it replaced got wrong with
// tolerance 1e-9 and a dense limit of 400.
func TestCheckTheoremClassesAreExact(t *testing.T) {
	cases := []struct {
		name string
		a    *sparse.CSR
		want Definiteness
	}{
		// Was SPD: the dense Cholesky finished on a tiny positive pivot.
		{"singular 5x5 Neumann Laplacian", neumannLaplacian(5, 5, 0), SNND},
		// Was SNND: Gershgorin's lower bound is 0, λ_min ≈ 4.5e-3.
		{"Poisson2D 65x65", sparse.Poisson2D(65, 65, 0).A, SPD},
		// Was SPD: the power-iteration estimate of λ_min = −1e-3.
		{"65x65 Neumann Laplacian - 1e-3 I", neumannLaplacian(65, 65, -1e-3), Indefinite},
		{"singular 65x65 Neumann Laplacian", neumannLaplacian(65, 65, 0), SNND},
		{"identity", sparse.Identity(4), SPD},
		{"tridiagonal SPD", sparse.Tridiagonal(8, 2.5, -1).A, SPD},
		{"laplacian SNND", sparse.NewCSRFromDense([][]float64{
			{1, -1, 0},
			{-1, 2, -1},
			{0, -1, 1},
		}, 0), SNND},
		{"indefinite", sparse.NewCSRFromDense([][]float64{{1, 3}, {3, 1}}, 0), Indefinite},
		{"negative diagonal", sparse.NewCSRFromDense([][]float64{{-1, 0}, {0, 2}}, 0), Indefinite},
		{"non-symmetric", sparse.NewCSRFromDense([][]float64{{2, 1}, {0, 2}}, 0), Indefinite},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := classify(tc.a, theoremTol(tc.a)); got != tc.want {
				t.Errorf("class = %v, want %v", got, tc.want)
			}
		})
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

// Property: a random strictly diagonally dominant system, whose diagonal
// margin keeps λ_min ≥ 0.5, is SPD at every size up to 200 unknowns.
func TestClassifyRandomSPDProperty(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		a := sparse.RandomSPD(1+int(rawN)%200, 0.05, seed).A
		return classify(a, theoremTol(a)) == SPD
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// FuzzTheoremClass checks classify against the smallest eigenvalue of a
// dense symmetric eigensolve on random symmetric matrices of up to 24
// unknowns: SPD above τ, SNND in (−τ, τ], indefinite at or below −τ. Inputs
// whose λ_min lies within 100τ of ±τ are too close to a class boundary for
// either rounding to decide and are skipped.
func FuzzTheoremClass(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(30), int8(40))
	f.Add(int64(2), uint8(23), uint8(10), int8(0))
	f.Add(int64(3), uint8(12), uint8(60), int8(-20))
	f.Add(int64(4), uint8(0), uint8(0), int8(1))
	f.Add(int64(5), uint8(17), uint8(5), int8(24))
	f.Fuzz(func(t *testing.T, seed int64, size, density uint8, shift int8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size)%24
		p := float64(density%64) / 64
		coo := sparse.NewCOO(n, n)
		for i := 0; i < n; i++ {
			coo.Add(i, i, rng.NormFloat64()+float64(shift)/16)
			for j := i + 1; j < n; j++ {
				if rng.Float64() < p {
					coo.AddSym(i, j, rng.NormFloat64())
				}
			}
		}
		a := coo.ToCSR()
		eig, _, err := SymEigen(dense.FromCSR(a), false)
		if err != nil {
			t.Fatal(err)
		}
		lmin, tau := eig[0], theoremTol(a)
		if math.Abs(lmin-tau) <= 100*tau || math.Abs(lmin+tau) <= 100*tau {
			t.Skipf("λ_min = %g is within 100τ of ±τ = ±%g", lmin, tau)
		}
		want := Indefinite
		switch {
		case lmin > tau:
			want = SPD
		case lmin > -tau:
			want = SNND
		}
		if got := classify(a, tau); got != want {
			t.Errorf("n=%d: class %v, λ_min = %g and τ = %g say %v", n, got, lmin, tau, want)
		}
	})
}

// TestCheckTheoremOrdersEachMatrixOnce: CheckTheorem analyses A and every
// part once, and the shifted attempts A ∓ τI factorise on that one analysis
// — also when the SPD attempt fails and the SNND one follows.
func TestCheckTheoremOrdersEachMatrixOnce(t *testing.T) {
	calls := 0
	defer func(f func(*sparse.CSR, factor.Ordering) (*factor.Analysis, error)) { analyze = f }(analyze)
	counting := analyze
	analyze = func(a *sparse.CSR, o factor.Ordering) (*factor.Analysis, error) {
		calls++
		return counting(a, o)
	}
	prob, err := GridProblem(sparse.RandomGridSPD(65, 65, 7), 65, 65, 2, 2, topology.Uniform(4, 10, "uniform"))
	if err != nil {
		t.Fatal(err)
	}
	if r := CheckTheorem(prob); !r.Satisfied {
		t.Fatalf("grid65: %s", r)
	}
	if want := 1 + prob.Partition.NumParts(); calls != want {
		t.Errorf("CheckTheorem analysed %d matrices' patterns, want %d (A and every part once)", calls, want)
	}
	calls = 0
	a := neumannLaplacian(20, 20, 0)
	if c := classify(a, theoremTol(a)); c != SNND || calls != 1 {
		t.Errorf("singular Laplacian: class %v after %d analyses, want SNND after 1", c, calls)
	}
}

package sparse

import (
	"math"
	"testing"
	"testing/quick"
)

// checkSPDShape verifies the structural properties every generated SPD system
// must have: square, symmetric, weakly diagonally dominant with positive
// diagonal (a sufficient condition for positive semi-definiteness that all the
// generators in this package satisfy by construction).
func checkSPDShape(t *testing.T, sys System) {
	t.Helper()
	if sys.A.Rows() != sys.A.Cols() {
		t.Fatalf("%s: not square (%dx%d)", sys.Name, sys.A.Rows(), sys.A.Cols())
	}
	if sys.Dim() != len(sys.B) {
		t.Fatalf("%s: rhs length %d, dim %d", sys.Name, len(sys.B), sys.Dim())
	}
	if !sys.A.IsSymmetric(1e-12) {
		t.Errorf("%s: not symmetric", sys.Name)
	}
	weak, _ := sys.A.IsDiagonallyDominant()
	if !weak {
		t.Errorf("%s: not diagonally dominant", sys.Name)
	}
	for i := range sys.Dim() {
		if d := sys.A.At(i, i); d <= 0 {
			t.Errorf("%s: non-positive diagonal %g at %d", sys.Name, d, i)
		}
	}
	if n := sys.B.Norm2(); math.IsNaN(n) || math.IsInf(n, 0) {
		t.Errorf("%s: right-hand side is not finite", sys.Name)
	}
	if sys.Name == "" {
		t.Errorf("generated system has no name")
	}
}

func TestPaperExampleMatchesEquation32(t *testing.T) {
	sys := PaperExample()
	want := [][]float64{
		{5, -1, -1, 0},
		{-1, 6, -2, -1},
		{-1, -2, 7, -2},
		{0, -1, -2, 8},
	}
	if !sys.A.EqualApprox(NewCSRFromDense(want, 0), 0) {
		t.Errorf("PaperExample matrix does not match equation (3.2)")
	}
	if !sys.B.Equal(Vec{1, 2, 3, 4}, 0) {
		t.Errorf("PaperExample rhs = %v", sys.B)
	}
	checkSPDShape(t, sys)
}

func TestPoisson2DStructure(t *testing.T) {
	sys := Poisson2D(4, 3, 0.05)
	checkSPDShape(t, sys)
	if sys.Dim() != 12 {
		t.Fatalf("dim = %d, want 12", sys.Dim())
	}
	// Interior point (1,1) has index 5 and exactly 4 neighbours.
	if got := sys.A.rowPtr[5+1] - sys.A.rowPtr[5]; got != 5 {
		t.Errorf("interior row nnz = %d, want 5", got)
	}
	if got := sys.A.At(5, 5); !almostEqual(got, 4.05, 1e-12) {
		t.Errorf("interior diagonal = %g, want 4.05", got)
	}
	// Corner (0,0) has 2 neighbours.
	if got := sys.A.rowPtr[0+1] - sys.A.rowPtr[0]; got != 3 {
		t.Errorf("corner row nnz = %d, want 3", got)
	}
	// Neighbour couplings are -1 and there is no wrap-around between row ends:
	// grid point (3,0)=idx 3 and (0,1)=idx 4 are not adjacent.
	if got := sys.A.At(5, 4); got != -1 {
		t.Errorf("horizontal coupling = %g, want -1", got)
	}
	if got := sys.A.At(3, 4); got != 0 {
		t.Errorf("wrap-around coupling must be absent, got %g", got)
	}
}

func TestPoisson2DPaperSizes(t *testing.T) {
	// The paper's n = 289, 1089, 4225 are 17², 33², 65².
	for _, side := range []int{17, 33} {
		sys := Poisson2D(side, side, 0.05)
		if sys.Dim() != side*side {
			t.Errorf("Poisson2D(%d) dim = %d", side, sys.Dim())
		}
	}
}

func TestPoisson3DStructure(t *testing.T) {
	sys := Poisson3D(3, 3, 3, 0.1)
	checkSPDShape(t, sys)
	if sys.Dim() != 27 {
		t.Fatalf("dim = %d, want 27", sys.Dim())
	}
	// The centre point has 6 neighbours.
	centre := 1 + 3*(1+3*1)
	if got := sys.A.rowPtr[centre+1] - sys.A.rowPtr[centre]; got != 7 {
		t.Errorf("centre row nnz = %d, want 7", got)
	}
	if got := sys.A.At(centre, centre); !almostEqual(got, 6.1, 1e-12) {
		t.Errorf("centre diagonal = %g, want 6.1", got)
	}
}

func TestTridiagonalStructure(t *testing.T) {
	sys := Tridiagonal(5, 2.5, -1)
	checkSPDShape(t, sys)
	if sys.A.At(0, 1) != -1 || sys.A.At(3, 2) != -1 || sys.A.At(0, 2) != 0 {
		t.Errorf("tridiagonal pattern wrong: %v", sys.A)
	}
	if sys.A.NNZ() != 5+2*4 {
		t.Errorf("NNZ = %d, want 13", sys.A.NNZ())
	}
}

func TestRandomSPDPropertiesAndDeterminism(t *testing.T) {
	a := RandomSPD(60, 0.05, 7)
	b := RandomSPD(60, 0.05, 7)
	c := RandomSPD(60, 0.05, 8)
	checkSPDShape(t, a)
	if !a.A.EqualApprox(b.A, 0) || !a.B.Equal(b.B, 0) {
		t.Errorf("same seed must reproduce the same system")
	}
	if a.A.EqualApprox(c.A, 0) {
		t.Errorf("different seeds should differ")
	}
	// Strict dominance in every row (that is what makes it SPD).
	_, strict := a.A.IsDiagonallyDominant()
	if strict != a.Dim() {
		t.Errorf("only %d of %d rows strictly dominant", strict, a.Dim())
	}
}

func TestRandomGridSPDPattern(t *testing.T) {
	sys := RandomGridSPD(5, 4, 3)
	checkSPDShape(t, sys)
	if sys.Dim() != 20 {
		t.Fatalf("dim = %d", sys.Dim())
	}
	// The sparsity pattern must be exactly the 2-D grid: the interior point
	// (2,1) = 7 couples to 2, 6, 8, 12 only.
	if got := sys.A.rowPtr[7+1] - sys.A.rowPtr[7]; got != 5 {
		t.Errorf("interior row nnz = %d, want 5", got)
	}
	if sys.A.At(7, 13) != 0 || sys.A.At(7, 1) != 0 {
		t.Errorf("grid pattern violated")
	}
	// Off-diagonal weights are negative (graph-Laplacian-like).
	sys.A.Each(func(i, j int, v float64) {
		if i != j && v >= 0 {
			t.Errorf("off-diagonal (%d,%d) = %g, want < 0", i, j, v)
		}
	})
}

func TestResistorNetworkProperties(t *testing.T) {
	sys := ResistorNetwork(6, 5, 2)
	checkSPDShape(t, sys)
	if sys.Dim() != 30 {
		t.Fatalf("dim = %d", sys.Dim())
	}
	// Strictly dominant in every row thanks to the leak conductances.
	_, strict := sys.A.IsDiagonallyDominant()
	if strict != sys.Dim() {
		t.Errorf("only %d of %d rows strictly dominant", strict, sys.Dim())
	}
	// The current sources: injection at node 0, extraction at the far corner.
	if sys.B[0] != 1 || sys.B[sys.Dim()-1] != -0.5 {
		t.Errorf("current sources wrong: %v", sys.B[:2])
	}
}

func TestGeneratorPanicsOnInvalidSizes(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"Poisson2D", func() { Poisson2D(0, 3, 0) }},
		{"Poisson3D", func() { Poisson3D(2, -1, 2, 0) }},
		{"Tridiagonal", func() { Tridiagonal(0, 2, -1) }},
		{"RandomSPD n", func() { RandomSPD(0, 0.1, 1) }},
		{"RandomSPD density", func() { RandomSPD(5, 1.5, 1) }},
		{"RandomGridSPD", func() { RandomGridSPD(0, 2, 1) }},
		{"ResistorNetwork", func() { ResistorNetwork(3, 0, 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic on invalid input", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

// Property: every generated random system is symmetric and weakly diagonally
// dominant for arbitrary seeds and small sizes.
func TestRandomGeneratorsProperty(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := 2 + int(rawN%20)
		s1 := RandomSPD(n, 0.2, seed)
		s2 := RandomGridSPD(2+int(rawN%6), 2+int(rawN%5), seed)
		for _, s := range []System{s1, s2} {
			if !s.A.IsSymmetric(1e-12) {
				return false
			}
			if weak, _ := s.A.IsDiagonallyDominant(); !weak {
				return false
			}
			for i := range s.Dim() {
				if d := s.A.At(i, i); d <= 0 || math.IsNaN(d) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSaddlePoisson2DStructure(t *testing.T) {
	nx, ny := 11, 7
	sys := SaddlePoisson2D(nx, ny, 1e-2)
	n := nx * ny
	if sys.Dim() != n+ny {
		t.Fatalf("dimension %d, want %d grid unknowns + %d multipliers", sys.Dim(), n, ny)
	}
	if !sys.A.IsSymmetric(0) {
		t.Error("saddle system must be exactly symmetric")
	}
	// The leading n×n block is the shifted Laplacian; the trailing diagonal is
	// strictly negative (−gamma), so the matrix cannot be positive definite.
	for iy := 0; iy < ny; iy++ {
		if d := sys.A.At(n+iy, n+iy); d >= 0 {
			t.Errorf("multiplier diagonal %d is %g, want negative", iy, d)
		}
		// Each multiplier couples to every node of its grid row.
		cols, _ := sys.A.RowView(n + iy)
		if len(cols) != nx+1 {
			t.Errorf("multiplier row %d has %d entries, want %d", iy, len(cols), nx+1)
		}
	}
	// Deterministic construction.
	again := SaddlePoisson2D(nx, ny, 1e-2)
	if !sys.A.EqualApprox(again.A, 0) || sys.B.MaxAbsDiff(again.B) != 0 {
		t.Error("SaddlePoisson2D is not deterministic")
	}
}

func TestSaddlePoisson2DPanicsOnBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { SaddlePoisson2D(0, 3, 1e-2) },
		func() { SaddlePoisson2D(3, -1, 1e-2) },
		func() { SaddlePoisson2D(3, 3, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on invalid SaddlePoisson2D arguments")
				}
			}()
			fn()
		}()
	}
}

package sparse

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// denseMulVec is an independent reference for matrix-vector products.
func denseMulVec(a [][]float64, x Vec) Vec {
	y := NewVec(len(a))
	for i, row := range a {
		for j, v := range row {
			y[i] += v * x[j]
		}
	}
	return y
}

func testMatrix() ([][]float64, *CSR) {
	d := [][]float64{
		{4, -1, 0, 0},
		{-1, 4, -1, 0},
		{0, -1, 4, -1},
		{0, 0, -1, 4},
	}
	return d, NewCSRFromDense(d, 0)
}

func TestNewCSRFromDenseAndAt(t *testing.T) {
	d, m := testMatrix()
	if m.Rows() != 4 || m.Cols() != 4 {
		t.Fatalf("dims = %dx%d, want 4x4", m.Rows(), m.Cols())
	}
	if m.NNZ() != 10 {
		t.Errorf("NNZ = %d, want 10", m.NNZ())
	}
	for i := range d {
		for j := range d[i] {
			if got := m.At(i, j); got != d[i][j] {
				t.Errorf("At(%d,%d) = %g, want %g", i, j, got, d[i][j])
			}
		}
	}
}

func TestNewCSRFromDenseDropTolerance(t *testing.T) {
	m := NewCSRFromDense([][]float64{{1, 1e-15}, {0, 2}}, 1e-12)
	if m.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2 (tiny entry dropped)", m.NNZ())
	}
	if m.At(0, 1) != 0 {
		t.Errorf("dropped entry should read as 0")
	}
}

func TestCSRToDenseRoundTrip(t *testing.T) {
	d, m := testMatrix()
	back := m.ToDense()
	for i := range d {
		for j := range d[i] {
			if back[i][j] != d[i][j] {
				t.Errorf("ToDense[%d][%d] = %g, want %g", i, j, back[i][j], d[i][j])
			}
		}
	}
}

func TestCSRRowIteration(t *testing.T) {
	_, m := testMatrix()
	var cols []int
	var vals []float64
	m.Row(1, func(j int, v float64) {
		cols = append(cols, j)
		vals = append(vals, v)
	})
	if len(cols) != 3 {
		t.Fatalf("row 1 has %d entries, want 3", len(cols))
	}
	want := map[int]float64{0: -1, 1: 4, 2: -1}
	for k, j := range cols {
		if want[j] != vals[k] {
			t.Errorf("row 1 entry (%d) = %g, want %g", j, vals[k], want[j])
		}
	}
}

func TestCSREachVisitsEveryEntryOnce(t *testing.T) {
	_, m := testMatrix()
	count := 0
	sum := 0.0
	m.Each(func(i, j int, v float64) {
		count++
		sum += v
	})
	if count != m.NNZ() {
		t.Errorf("Each visited %d entries, want %d", count, m.NNZ())
	}
	if sum != 16-6 {
		t.Errorf("sum of entries = %g, want 10", sum)
	}
}

func TestCSRMulVecAgainstDense(t *testing.T) {
	d, m := testMatrix()
	x := Vec{1, 2, 3, 4}
	want := denseMulVec(d, x)
	if got := m.MulVec(x); !got.Equal(want, 1e-14) {
		t.Errorf("MulVec = %v, want %v", got, want)
	}
	y := NewVec(4)
	m.MulVecTo(y, x)
	if !y.Equal(want, 1e-14) {
		t.Errorf("MulVecTo = %v, want %v", y, want)
	}
}

func TestCSRAddDiag(t *testing.T) {
	_, m := testMatrix()
	shifted := m.AddDiag(Vec{1, 2, 3, 4})
	for i := 0; i < 4; i++ {
		if got := shifted.At(i, i); got != 4+float64(i+1) {
			t.Errorf("AddDiag diagonal %d = %g", i, got)
		}
	}
	// The original must not change.
	if m.At(0, 0) != 4 {
		t.Errorf("AddDiag modified the receiver")
	}
}

func TestCSRSubmatrix(t *testing.T) {
	_, m := testMatrix()
	s := m.Submatrix([]int{1, 2}, []int{1, 2})
	want := NewCSRFromDense([][]float64{{4, -1}, {-1, 4}}, 0)
	if !s.EqualApprox(want, 0) {
		t.Errorf("Submatrix = %v, want %v", s, want)
	}
	// Row/column reordering.
	r := m.Submatrix([]int{3, 0}, []int{0, 3})
	if r.At(0, 1) != 4 || r.At(1, 0) != 4 || r.At(0, 0) != 0 {
		t.Errorf("reordered submatrix wrong: %v", r)
	}
}

func TestCSRSymmetryChecks(t *testing.T) {
	_, m := testMatrix()
	if !m.IsSymmetric(0) {
		t.Errorf("test matrix is symmetric")
	}
	asym := NewCSRFromDense([][]float64{{1, 2}, {3, 1}}, 0)
	if asym.IsSymmetric(1e-12) {
		t.Errorf("asymmetric matrix misreported as symmetric")
	}
	if !asym.IsSymmetric(2) {
		t.Errorf("asymmetric matrix within tolerance 2 should pass")
	}
}

func TestCSRDiagonalDominance(t *testing.T) {
	_, m := testMatrix()
	weak, strict := m.IsDiagonallyDominant()
	if !weak {
		t.Errorf("test matrix is diagonally dominant")
	}
	if strict != 4 {
		t.Errorf("all 4 rows are strictly dominant, got %d", strict)
	}
	bad := NewCSRFromDense([][]float64{{1, 5}, {5, 1}}, 0)
	if weak, _ := bad.IsDiagonallyDominant(); weak {
		t.Errorf("non-dominant matrix misreported")
	}
}

func TestCSRMaxAbs(t *testing.T) {
	m := NewCSRFromDense([][]float64{{3, 0}, {0, -4}}, 0)
	if got := m.MaxAbs(); got != 4 {
		t.Errorf("MaxAbs = %g, want 4", got)
	}
}

func TestCSRResidual(t *testing.T) {
	_, m := testMatrix()
	x := Vec{1, 1, 1, 1}
	b := m.MulVec(x)
	r := m.Residual(x, b)
	if r.NormInf() != 0 {
		t.Errorf("residual of the exact solution = %v, want zeros", r)
	}
	r = m.Residual(NewVec(4), b)
	if !r.Equal(b, 0) {
		t.Errorf("residual at x=0 must equal b, got %v", r)
	}
}

func TestCSREqualApprox(t *testing.T) {
	_, m := testMatrix()
	n := m.AddDiag(NewVec(4))
	if !m.EqualApprox(n, 0) {
		t.Errorf("identical matrices must be equal")
	}
	p := m.AddDiag(Vec{1e-9, 0, 0, 0})
	if m.EqualApprox(p, 1e-12) {
		t.Errorf("perturbed matrix must differ at tight tolerance")
	}
	if !m.EqualApprox(p, 1e-6) {
		t.Errorf("perturbed matrix must match at loose tolerance")
	}
	q := NewCSRFromDense([][]float64{{1}}, 0)
	if m.EqualApprox(q, 1) {
		t.Errorf("different shapes are never equal")
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	if id.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3", id.NNZ())
	}
	x := Vec{5, -6, 7}
	if !id.MulVec(x).Equal(x, 0) {
		t.Errorf("identity times x must be x")
	}
}

func TestCSRStringMentionsShape(t *testing.T) {
	_, m := testMatrix()
	s := m.String()
	if !strings.Contains(s, "4") {
		t.Errorf("String() should mention the dimension, got %q", s)
	}
}

func TestCOOAddAccumulatesDuplicates(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(0, 0, 2.5)
	c.Add(1, 0, -1)
	m := c.ToCSR()
	if got := m.At(0, 0); got != 3.5 {
		t.Errorf("duplicate entries must accumulate: got %g, want 3.5", got)
	}
	if got := m.At(1, 0); got != -1 {
		t.Errorf("At(1,0) = %g", got)
	}
}

func TestCOOAddSym(t *testing.T) {
	c := NewCOO(3, 3)
	c.AddSym(0, 2, -4)
	c.AddSym(1, 1, 7) // diagonal: must not be doubled
	m := c.ToCSR()
	if m.At(0, 2) != -4 || m.At(2, 0) != -4 {
		t.Errorf("AddSym must set both triangles")
	}
	if m.At(1, 1) != 7 {
		t.Errorf("AddSym on the diagonal = %g, want 7", m.At(1, 1))
	}
}

func TestCOOOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("adding out of range must panic")
		}
	}()
	c := NewCOO(2, 2)
	c.Add(2, 0, 1)
}

// Property: for random sparse matrices, MulVec agrees with a dense reference.
func TestCSRMulVecProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(12)
		cols := 1 + rng.Intn(12)
		d := make([][]float64, rows)
		for i := range d {
			d[i] = make([]float64, cols)
			for j := range d[i] {
				if rng.Float64() < 0.35 {
					d[i][j] = math.Round(rng.NormFloat64()*8) / 4
				}
			}
		}
		m := NewCSRFromDense(d, 0)
		x := make(Vec, cols)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		return m.MulVec(x).Equal(denseMulVec(d, x), 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: COO accumulation order does not matter.
func TestCOOOrderInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		type entry struct {
			i, j int
			v    float64
		}
		var entries []entry
		for k := 0; k < 3*n; k++ {
			entries = append(entries, entry{rng.Intn(n), rng.Intn(n), rng.NormFloat64()})
		}
		a := NewCOO(n, n)
		for _, e := range entries {
			a.Add(e.i, e.j, e.v)
		}
		b := NewCOO(n, n)
		for k := len(entries) - 1; k >= 0; k-- {
			b.Add(entries[k].i, entries[k].j, entries[k].v)
		}
		return a.ToCSR().EqualApprox(b.ToCSR(), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWriteMatrixReadMatrixRoundTrip(t *testing.T) {
	_, m := testMatrix()
	var sb strings.Builder
	if err := WriteMatrix(&sb, m); err != nil {
		t.Fatalf("WriteMatrix: %v", err)
	}
	got, err := ReadMatrix(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ReadMatrix: %v", err)
	}
	if !got.EqualApprox(m, 0) {
		t.Errorf("round trip mismatch")
	}
}

func TestReadMatrixAcceptsCommentsAndBlankLines(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
# another comment style

2 2 2
1 1 3.5

2 2 -1
`
	m, err := ReadMatrix(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadMatrix: %v", err)
	}
	if m.At(0, 0) != 3.5 || m.At(1, 1) != -1 {
		t.Errorf("parsed entries wrong: %v", m)
	}
}

func TestReadMatrixErrors(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"short header":      "2 2\n",
		"non-numeric":       "a b c\n",
		"negative header":   "-1 2 0\n",
		"index out of rng":  "2 2 1\n3 1 5\n",
		"truncated entries": "2 2 2\n1 1 5\n",
		"bad entry fields":  "2 2 1\n1 1\n",
		"NaN diagonal":      "2 2 2\n1 1 nan\n2 2 1\n",
		"+Inf entry":        "2 2 1\n1 2 inf\n",
		"-Inf mirrored":     "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 -Inf\n",
		"NaN array entry":   "%%MatrixMarket matrix array real general\n1 2\n1\nNaN\n",
	}
	for name, in := range cases {
		if _, err := ReadMatrix(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

// TestCSRPermuteSym checks the linear-time symmetric permute against the
// definition B(i,j) = A(p[i], p[j]) on a random pattern-symmetric (but
// numerically unsymmetric) matrix, and that the produced rows are sorted.
func TestCSRPermuteSym(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewSource(7))
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, rng.NormFloat64())
	}
	for k := 0; k < 4*n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		// Pattern-symmetric, value-unsymmetric: PermuteSym must not mix the
		// (i,j) and (j,i) values up.
		coo.Add(i, j, rng.NormFloat64())
		coo.Add(j, i, rng.NormFloat64())
	}
	a := coo.ToCSR()

	p := rng.Perm(n)
	b := a.PermuteSym(p)
	if b.NNZ() != a.NNZ() {
		t.Fatalf("PermuteSym changed nnz: %d vs %d", b.NNZ(), a.NNZ())
	}
	for i := 0; i < n; i++ {
		cols, _ := b.RowView(i)
		for t2 := 1; t2 < len(cols); t2++ {
			if cols[t2-1] >= cols[t2] {
				t.Fatalf("row %d of the permuted matrix is not sorted: %v", i, cols)
			}
		}
		for j := 0; j < n; j++ {
			if got, want := b.At(i, j), a.At(p[i], p[j]); got != want {
				t.Fatalf("B(%d,%d) = %g, want A(p,p) = %g", i, j, got, want)
			}
		}
	}
}

func TestCSRPermuteSymPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    []int
		want string // in the panic message
	}{
		{"short", []int{0, 1}, "2-permutation"},
		{"repeated", []int{0, 2, 2, 1}, "p[2] = 2 repeats p[1]"},
		{"negative", []int{0, 1, -1, 3}, "p[2] = -1 outside [0,4)"},
		{"too large", []int{4, 1, 2, 3}, "p[0] = 4 outside [0,4)"},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Errorf("%s: PermuteSym(%v) panicked with %q, want it to name %q", tc.name, tc.p, msg, tc.want)
				}
			}()
			Identity(4).PermuteSym(tc.p)
		}()
	}
}

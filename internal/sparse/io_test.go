package sparse

import (
	"bytes"
	"strings"
	"testing"
)

func TestMatrixRoundTripGeneral(t *testing.T) {
	sys := RandomGridSPD(6, 5, 3)
	var buf bytes.Buffer
	if err := WriteMatrix(&buf, sys.A); err != nil {
		t.Fatalf("WriteMatrix: %v", err)
	}
	got, err := ReadMatrix(&buf)
	if err != nil {
		t.Fatalf("ReadMatrix: %v", err)
	}
	if !got.EqualApprox(sys.A, 0) {
		t.Error("general round trip does not reproduce the matrix exactly")
	}
}

func TestMatrixRoundTripSymmetric(t *testing.T) {
	sys := RandomGridSPD(7, 7, 11)
	var buf bytes.Buffer
	if err := WriteMatrixSym(&buf, sys.A); err != nil {
		t.Fatalf("WriteMatrixSym: %v", err)
	}
	text := buf.String()
	if !strings.Contains(text, "coordinate real symmetric") {
		t.Errorf("symmetric writer emitted banner %q", strings.SplitN(text, "\n", 2)[0])
	}
	got, err := ReadMatrix(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ReadMatrix(symmetric): %v", err)
	}
	if !got.EqualApprox(sys.A, 0) {
		t.Error("symmetric round trip does not reproduce the matrix exactly")
	}
	// The symmetric file must be materially smaller than the general one.
	var gen bytes.Buffer
	if err := WriteMatrix(&gen, sys.A); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= gen.Len() {
		t.Errorf("symmetric file (%d bytes) is not smaller than general (%d bytes)", buf.Len(), gen.Len())
	}
}

func TestReadMatrixPattern(t *testing.T) {
	text := `%%MatrixMarket matrix coordinate pattern symmetric
3 3 4
1 1
2 2
3 3
3 1
`
	m, err := ReadMatrix(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ReadMatrix(pattern): %v", err)
	}
	if m.NNZ() != 5 {
		t.Errorf("pattern symmetric matrix has %d entries, want 5 (diagonal + mirrored pair)", m.NNZ())
	}
	if m.At(0, 2) != 1 || m.At(2, 0) != 1 {
		t.Error("pattern entries are not 1 / not mirrored")
	}
}

func TestReadMatrixArray(t *testing.T) {
	text := `%%MatrixMarket matrix array real general
2 2
1
2
3
4
`
	m, err := ReadMatrix(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ReadMatrix(array): %v", err)
	}
	// Column-major: first column (1,2), second column (3,4).
	want := [][]float64{{1, 3}, {2, 4}}
	for i := range want {
		for j := range want[i] {
			if m.At(i, j) != want[i][j] {
				t.Errorf("array entry (%d,%d) = %g, want %g", i, j, m.At(i, j), want[i][j])
			}
		}
	}
}

func TestReadMatrixArraySymmetric(t *testing.T) {
	text := `%%MatrixMarket matrix array real symmetric
2 2
4
1
5
`
	m, err := ReadMatrix(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ReadMatrix(array symmetric): %v", err)
	}
	if m.At(0, 0) != 4 || m.At(1, 1) != 5 || m.At(0, 1) != 1 || m.At(1, 0) != 1 {
		t.Errorf("array symmetric read wrong: %v", m.ToDense())
	}
}

func TestReadMatrixSkewSymmetric(t *testing.T) {
	text := `%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 3
`
	m, err := ReadMatrix(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ReadMatrix(skew): %v", err)
	}
	if m.At(1, 0) != 3 || m.At(0, 1) != -3 {
		t.Errorf("skew mirroring wrong: %v", m.ToDense())
	}
}

func TestReadMatrixArraySkewSymmetric(t *testing.T) {
	// Skew arrays store only the strictly lower triangle, column-major:
	// entries A(2,1)=1, A(3,1)=2, A(3,2)=3; the diagonal is implicit zero.
	text := `%%MatrixMarket matrix array real skew-symmetric
3 3
1
2
3
`
	m, err := ReadMatrix(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ReadMatrix(array skew): %v", err)
	}
	want := [][]float64{{0, -1, -2}, {1, 0, -3}, {2, 3, 0}}
	for i := range want {
		for j := range want[i] {
			if m.At(i, j) != want[i][j] {
				t.Errorf("skew array entry (%d,%d) = %g, want %g", i, j, m.At(i, j), want[i][j])
			}
		}
	}
}

func TestReadMatrixRejectsUnsupported(t *testing.T) {
	for _, text := range []string{
		"%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
		"%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n",
		"%%MatrixMarket tensor coordinate real general\n1 1 0\n",
	} {
		if _, err := ReadMatrix(strings.NewReader(text)); err == nil {
			t.Errorf("ReadMatrix accepted unsupported header %q", strings.SplitN(text, "\n", 2)[0])
		}
	}
}

func TestReadMatrixWithoutBanner(t *testing.T) {
	// Headerless files (the historical text format) keep working.
	text := "% a comment\n2 2 2\n1 1 2\n2 2 3\n"
	m, err := ReadMatrix(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ReadMatrix(no banner): %v", err)
	}
	if m.At(0, 0) != 2 || m.At(1, 1) != 3 {
		t.Error("headerless read wrong")
	}
}

func TestVecRoundTrip(t *testing.T) {
	v := RandomVec(17, 5)
	var buf bytes.Buffer
	if err := WriteVec(&buf, v); err != nil {
		t.Fatalf("WriteVec: %v", err)
	}
	got, err := ReadVec(&buf)
	if err != nil {
		t.Fatalf("ReadVec: %v", err)
	}
	if got.MaxAbsDiff(v) != 0 {
		t.Error("vector round trip not exact")
	}
}

func TestReadVecCoordinate(t *testing.T) {
	text := `%%MatrixMarket matrix coordinate real general
4 1 2
2 1 7
4 1 -1
`
	v, err := ReadVec(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ReadVec(coordinate): %v", err)
	}
	want := Vec{0, 7, 0, -1}
	if v.MaxAbsDiff(want) != 0 {
		t.Errorf("coordinate vector = %v, want %v", v, want)
	}
}

// TestReadersNameNonFiniteEntry: a NaN or ±Inf value is refused at load, and
// the error names the entry, so the file can be fixed.
func TestReadersNameNonFiniteEntry(t *testing.T) {
	for _, tc := range []struct {
		text, want string
		vec        bool
	}{
		{"%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 2\n3 2 1\n2 2 NaN\n", "entry 3 at (2,2)", false},
		{"%%MatrixMarket matrix array real symmetric\n2 2\n1\n+Inf\n1\n", "array entry (2,1)", false},
		{"%%MatrixMarket matrix array real general\n3 1\n1\n2\nInf\n", "vector entry 3", true},
	} {
		var err error
		if tc.vec {
			_, err = ReadVec(strings.NewReader(tc.text))
		} else {
			_, err = ReadMatrix(strings.NewReader(tc.text))
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "not a finite number") {
			t.Errorf("reading %q: err = %v, want one naming %q as not finite", tc.text, err, tc.want)
		}
	}
}

package sparse

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadMatrix drives the MatrixMarket reader with arbitrary input. The
// reader fronts every external matrix the CLIs load, so it must reject
// malformed input with an error — never panic, never hang, never return a
// structurally inconsistent CSR or a NaN or ±Inf value — and anything it
// accepts must survive a write/read round trip.
func FuzzReadMatrix(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 4.0\n2 2 -1.5\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n3 3 4\n1 1 2\n2 2 2\n3 3 2\n2 1 -1\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n")
	f.Add("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
	f.Add("% not a banner\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 nan\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n-1 2 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 9999999999\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		m, err := ReadMatrix(strings.NewReader(data))
		if err != nil {
			return
		}
		// Whatever the reader accepted must be internally consistent…
		if m.Rows() < 0 || m.Cols() < 0 {
			t.Fatalf("accepted matrix with negative shape %dx%d", m.Rows(), m.Cols())
		}
		nnz := 0
		m.Each(func(i, j int, v float64) {
			if i < 0 || i >= m.Rows() || j < 0 || j >= m.Cols() {
				t.Fatalf("entry (%d,%d) outside %dx%d", i, j, m.Rows(), m.Cols())
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted a non-finite entry (%d,%d) = %g", i, j, v)
			}
			nnz++
		})
		if nnz != m.NNZ() {
			t.Fatalf("Each visited %d entries, NNZ reports %d", nnz, m.NNZ())
		}
		// …and survive a write/read round trip.
		var buf bytes.Buffer
		if err := WriteMatrix(&buf, m); err != nil {
			t.Fatalf("writing an accepted matrix: %v", err)
		}
		back, err := ReadMatrix(&buf)
		if err != nil {
			t.Fatalf("re-reading a written matrix: %v", err)
		}
		if back.Rows() != m.Rows() || back.Cols() != m.Cols() {
			t.Fatalf("round trip changed shape: %dx%d -> %dx%d", m.Rows(), m.Cols(), back.Rows(), back.Cols())
		}
		m.Each(func(i, j int, v float64) {
			if got := back.At(i, j); got != v {
				t.Fatalf("round trip changed (%d,%d): %g -> %g", i, j, v, got)
			}
		})
	})
}

// FuzzParseSource drives the problem-source grammar with arbitrary input.
// Rejection with an error is fine; panics are not, and anything accepted must
// canonicalise to a fixed point — ParseSource(src.String()) re-parses to the
// same string — because the canonical form is what the wire and the spec hash
// carry. Build() is deliberately not called: specs like grid:rows=65535 are
// grammatically valid but enormous.
func FuzzParseSource(f *testing.F) {
	f.Add("grid:rows=17,cols=17,seed=1")
	f.Add("grid:")
	f.Add("saddle:nx=8,ny=4,gamma=0.01")
	f.Add("spanner:n=100,k=6,seed=7,leak=0.05")
	f.Add("poisson:nx=9,ny=8,nz=7,shift=0.05")
	f.Add("resistor:nx=33,ny=33,seed=1")
	f.Add("random:n=500,density=0.02,seed=-1")
	f.Add("tridiag:n=500,diag=2.1,off=-1")
	f.Add("tridiag:diag=-0,off=1e-320")
	f.Add("mm:/tmp/a.mtx@00000000deadbeef")
	f.Add("mm:a@b")
	f.Add("grid:rows=0")
	f.Add("nosuch:x=1")
	f.Add("grid:rows=,")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		src, err := ParseSource(data)
		if err != nil {
			return
		}
		canon := src.String()
		again, err := ParseSource(canon)
		if err != nil {
			t.Fatalf("accepted %q but canonical %q does not re-parse: %v", data, canon, err)
		}
		if again.String() != canon {
			t.Fatalf("canonical form of %q is not a fixed point: %q -> %q", data, canon, again.String())
		}
	})
}

// FuzzReadVec drives the vector reader (array and n×1 coordinate files) with
// arbitrary input: errors are fine, panics, inconsistent vectors and NaN or
// ±Inf entries are not.
func FuzzReadVec(f *testing.F) {
	f.Add("%%MatrixMarket matrix array real general\n3 1\n1.5\n-2\n0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n3 1 2\n1 1 5\n3 1 -5\n")
	f.Add("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
	f.Add("%%MatrixMarket matrix array real general\n1 1\ninf\n")
	f.Add("%%MatrixMarket matrix array real general\n3 1\n1.5\n")
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, data string) {
		v, err := ReadVec(strings.NewReader(data))
		if err != nil {
			return
		}
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("accepted a non-finite entry [%d] = %g", i, x)
			}
		}
		var buf bytes.Buffer
		if err := WriteVec(&buf, v); err != nil {
			t.Fatalf("writing an accepted vector: %v", err)
		}
		back, err := ReadVec(&buf)
		if err != nil {
			t.Fatalf("re-reading a written vector: %v", err)
		}
		if len(back) != len(v) {
			t.Fatalf("round trip changed length: %d -> %d", len(v), len(back))
		}
		for i := range v {
			if back[i] != v[i] {
				t.Fatalf("round trip changed [%d]: %g -> %g", i, v[i], back[i])
			}
		}
	})
}

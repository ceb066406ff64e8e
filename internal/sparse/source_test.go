package sparse

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/geom"
)

// TestParseSourceCanonicalRoundTrip: every accepted spelling canonicalises
// to a fixed point — ParseSource(src.String()).String() == src.String() —
// the property the wire (and the spec hash) relies on.
func TestParseSourceCanonicalRoundTrip(t *testing.T) {
	tests := []struct {
		in, canonical string
	}{
		{"grid:rows=33,cols=33,seed=1089", "grid:rows=33,cols=33,seed=1089"},
		{"grid:", "grid:rows=17,cols=17,seed=1"},
		{"grid:seed=5", "grid:rows=17,cols=17,seed=5"},
		{"grid: cols=9 , rows=7 ", "grid:rows=7,cols=9,seed=1"},
		{"saddle:nx=8,ny=4,gamma=0.010", "saddle:nx=8,ny=4,gamma=0.01"},
		{"saddle:gamma=1e-2", "saddle:nx=16,ny=16,gamma=0.01"},
		{"spanner:n=100,k=6,seed=7,leak=0.05", "spanner:n=100,k=6,seed=7,leak=0.05"},
		{"spanner:", "spanner:n=289,k=6,seed=1,leak=0.05"},
		{"poisson:nx=33,ny=33", "poisson:nx=33,ny=33,nz=1,shift=0.05"},
		{"poisson: nz=7 , ny=8,nx=9,shift=0", "poisson:nx=9,ny=8,nz=7,shift=0"},
		{"resistor:ny=5", "resistor:nx=33,ny=5,seed=1"},
		{"random:", "random:n=500,density=0.02,seed=1"},
		{"random:density=2e-1,seed=-9223372036854775808", "random:n=500,density=0.2,seed=-9223372036854775808"},
		{"tridiag:n=12", "tridiag:n=12,diag=2.1,off=-1"},
		{"tridiag:off=-0.50,diag=4", "tridiag:n=500,diag=4,off=-0.5"},
		{"mm:/tmp/a.mtx@00000000deadbeef", "mm:/tmp/a.mtx@00000000deadbeef"},
		{"mm:/tmp/a.mtx@00000000DEADBEEF", "mm:/tmp/a.mtx@00000000deadbeef"},
	}
	for _, tc := range tests {
		src, err := ParseSource(tc.in)
		if err != nil {
			t.Fatalf("ParseSource(%q): %v", tc.in, err)
		}
		if got := src.String(); got != tc.canonical {
			t.Fatalf("ParseSource(%q).String() = %q, want %q", tc.in, got, tc.canonical)
		}
		again, err := ParseSource(src.String())
		if err != nil {
			t.Fatalf("re-parsing canonical %q: %v", src.String(), err)
		}
		if again.String() != src.String() {
			t.Fatalf("canonical %q is not a fixed point (-> %q)", src.String(), again.String())
		}
	}
}

func TestParseSourceRejectsMalformed(t *testing.T) {
	bad := []string{
		"",                               // no scheme
		"grid",                           // no colon
		"nosuch:n=3",                     // unknown scheme
		"grid:rows",                      // not key=value
		"grid:rows=0",                    // out of range
		"grid:rows=99999999",             // over the side cap
		"grid:bogus=1",                   // unknown key
		"saddle:gamma=-1",                // gamma must be positive
		"saddle:gamma=nan",               // NaN rejected
		"spanner:k=65",                   // cone cap
		"spanner:leak=0",                 // leak must be positive
		"poisson:nz=0",                   // a side below 1
		"poisson:nx=65536,ny=65536",      // over the unknown cap
		"poisson:shift=-1",               // shift must be non-negative
		"resistor:nx=1.5",                // sides are integers
		"random:n=65537",                 // over the pairwise-generation cap
		"random:n=65536,density=1",       // over the fill cap
		"random:density=1.5",             // density is a probability
		"tridiag:n=0",                    // empty system
		"tridiag:diag=inf",               // out of range
		"tridiag:seed=1",                 // tridiag has no seed
		"mm:/tmp/a.mtx",                  // missing hash
		"mm:@0011223344556677",           // empty path
		"mm:/tmp/a.mtx@123",              // hash too short
		"mm:/tmp/a.mtx@zzzzzzzzzzzzzzzz", // not hex
	}
	for _, in := range bad {
		if _, err := ParseSource(in); err == nil {
			t.Fatalf("ParseSource(%q) accepted, want error", in)
		}
	}
}

// TestGridSourceBuildMatchesGenerator: the "grid:" source is byte-identical
// to calling RandomGridSPD directly — the invariant the legacy-spec compat
// path rests on.
func TestGridSourceBuildMatchesGenerator(t *testing.T) {
	src, err := ParseSource("grid:rows=9,cols=7,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	sys, hint, err := src.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !hint.Grid || hint.NX != 9 || hint.NY != 7 {
		t.Fatalf("hint = %+v, want Grid 9x7", hint)
	}
	want := RandomGridSPD(9, 7, 42)
	if sys.Name != want.Name {
		t.Fatalf("Name = %q, want %q", sys.Name, want.Name)
	}
	if !sys.A.EqualApprox(want.A, 0) {
		t.Fatal("grid source matrix differs from RandomGridSPD")
	}
	for i := range want.B {
		if sys.B[i] != want.B[i] {
			t.Fatalf("B[%d] = %g, want %g", i, sys.B[i], want.B[i])
		}
	}
}

// TestMMSourceHashProtocol: an mm: source builds exactly the written matrix
// when the content hash matches, and returns the typed *HashMismatchError
// (matching ErrHashMismatch) when the file content was flipped.
// TestGeneratedSourcesBuildMatchGenerators: every scheme that replaced a CLI
// generator name builds byte for byte what that name built, defaults being
// the constants the CLIs passed, and only the 2-D grids claim the tearing
// hint.
func TestGeneratedSourcesBuildMatchGenerators(t *testing.T) {
	tests := []struct {
		spec string
		want System
		hint Hint
	}{
		{"poisson:nx=33,ny=31", Poisson2D(33, 31, 0.05), Hint{Grid: true, NX: 33, NY: 31}},
		{"poisson:nx=9,ny=8,nz=7", Poisson3D(9, 8, 7, 0.05), Hint{}},
		{"resistor:nx=12,ny=9,seed=5", ResistorNetwork(12, 9, 5), Hint{Grid: true, NX: 12, NY: 9}},
		{"random:n=500,seed=1", RandomSPD(500, 0.02, 1), Hint{}},
		{"tridiag:n=500", Tridiagonal(500, 2.1, -1), Hint{}},
		{"saddle:nx=8,ny=4", SaddlePoisson2D(8, 4, 1e-2), Hint{}},
	}
	for _, tc := range tests {
		src, err := ParseSource(tc.spec)
		if err != nil {
			t.Fatalf("ParseSource(%q): %v", tc.spec, err)
		}
		sys, hint, err := src.Build()
		if err != nil {
			t.Fatalf("%s: Build: %v", tc.spec, err)
		}
		if sys.Name != tc.want.Name || !sys.A.EqualApprox(tc.want.A, 0) {
			t.Errorf("%s: system %q differs from the generator's %q", tc.spec, sys.Name, tc.want.Name)
		}
		for i := range tc.want.B {
			if math.Float64bits(sys.B[i]) != math.Float64bits(tc.want.B[i]) {
				t.Errorf("%s: B[%d] = %g, want %g", tc.spec, i, sys.B[i], tc.want.B[i])
				break
			}
		}
		if hint != tc.hint {
			t.Errorf("%s: hint = %+v, want %+v", tc.spec, hint, tc.hint)
		}
	}
}

func TestMMSourceHashProtocol(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.mtx")
	sys := RandomGridSPD(5, 5, 3)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMatrixSym(f, sys.A); err != nil {
		t.Fatal(err)
	}
	f.Close()
	h, err := HashFileFNV64(path)
	if err != nil {
		t.Fatal(err)
	}
	src := MMSource{Path: path, Hash: h}
	round, err := ParseSource(src.String())
	if err != nil {
		t.Fatalf("canonical mm spec %q does not parse: %v", src.String(), err)
	}
	got, hint, err := round.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if hint.Grid {
		t.Fatal("mm sources must not claim the grid tearing hint")
	}
	if !got.A.EqualApprox(sys.A, 1e-15) {
		t.Fatal("mm source matrix differs from the written one")
	}
	for i := range got.B {
		if got.B[i] != 1 {
			t.Fatalf("B[%d] = %g, want the all-ones rhs", i, got.B[i])
		}
	}

	// Flip one byte of the file: the pinned hash must reject it, typed.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = MMSource{Path: path, Hash: h}.Build()
	if err == nil {
		t.Fatal("corrupted file accepted")
	}
	if !errors.Is(err, ErrHashMismatch) {
		t.Fatalf("err = %v, want ErrHashMismatch", err)
	}
	var mismatch *HashMismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("err = %T, want *HashMismatchError", err)
	}
	if mismatch.Want != h || mismatch.Got == h || mismatch.Path != path {
		t.Fatalf("mismatch fields %+v inconsistent (pinned %016x)", mismatch, h)
	}
}

// TestYaoSpannerLaplacianStructure pins the generator's algebra: symmetric,
// row sums equal to the leak (zero leak → the pure graph Laplacian with
// zero row sums), bounded directed Yao out-degree, connected.
func TestYaoSpannerLaplacianStructure(t *testing.T) {
	const n, k = 120, 6
	pure := YaoSpannerLaplacian(n, k, 5, 0)
	if pure.Dim() != n {
		t.Fatalf("dim %d, want %d", pure.Dim(), n)
	}
	if !pure.A.IsSymmetric(0) {
		t.Fatal("Laplacian is not exactly symmetric")
	}
	for i := 0; i < n; i++ {
		sum := 0.0
		pure.A.Row(i, func(j int, v float64) { sum += v })
		if math.Abs(sum) > 1e-12 {
			t.Fatalf("row %d sums to %g, want 0 (pure Laplacian)", i, sum)
		}
	}

	const leak = 0.05
	sys := YaoSpannerLaplacian(n, k, 5, leak)
	for i := 0; i < n; i++ {
		sum := 0.0
		sys.A.Row(i, func(j int, v float64) { sum += v })
		if math.Abs(sum-leak) > 1e-12 {
			t.Fatalf("row %d sums to %g, want leak %g", i, sum, leak)
		}
	}
	weak, strict := sys.A.IsDiagonallyDominant()
	if !weak || strict != n {
		t.Fatalf("leaked Laplacian should be strictly diagonally dominant (weak=%v strict=%d)", weak, strict)
	}

	// The undirected edge count inherits the directed ≤ n·k Yao bound
	// (plus at most n-1 connectivity patches), doubled for symmetry.
	offdiag := 0
	sys.A.Each(func(i, j int, v float64) {
		if i != j {
			offdiag++
			if v >= 0 {
				t.Fatalf("off-diagonal (%d,%d) = %g, want negative conductance", i, j, v)
			}
		}
	})
	if offdiag > 2*(n*k+n-1) {
		t.Fatalf("%d off-diagonals exceeds the Yao bound 2(nk+n-1) = %d", offdiag, 2*(n*k+n-1))
	}

	// Connectivity: BFS over the sparsity pattern reaches every node.
	seen := make([]bool, n)
	queue := []int{0}
	seen[0] = true
	reached := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		sys.A.Row(v, func(j int, _ float64) {
			if j != v && !seen[j] {
				seen[j] = true
				reached++
				queue = append(queue, j)
			}
		})
	}
	if reached != n {
		t.Fatalf("spanner graph reaches %d of %d nodes", reached, n)
	}
}

// TestYaoSpannerOutDegreeBound asserts the defining k-cone property on the
// directed picks themselves.
func TestYaoSpannerOutDegreeBound(t *testing.T) {
	const n, k = 80, 4
	pts := geom.Points(rand.New(rand.NewSource(11)), n)
	for i, ps := range geom.YaoPicks(pts, k) {
		if len(ps) > k {
			t.Fatalf("node %d has %d directed Yao picks, bound is k=%d", i, len(ps), k)
		}
	}
}

// TestYaoSpannerLaplacianDeterministicAcrossGOMAXPROCS: bit-identical
// matrices and rhs per seed, whatever the host parallelism — the property
// distributed re-tearing rests on.
func TestYaoSpannerLaplacianDeterministicAcrossGOMAXPROCS(t *testing.T) {
	build := func(procs int) System {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		return YaoSpannerLaplacian(90, 6, 17, 0.05)
	}
	a, b := build(1), build(4)
	if a.Name != b.Name {
		t.Fatalf("names differ: %q vs %q", a.Name, b.Name)
	}
	if !a.A.EqualApprox(b.A, 0) {
		t.Fatal("matrices differ across GOMAXPROCS")
	}
	for i := range a.B {
		if math.Float64bits(a.B[i]) != math.Float64bits(b.B[i]) {
			t.Fatalf("B[%d] differs across GOMAXPROCS", i)
		}
	}
}

// TestSpannerSourceBuildsLarge: with the grid Yao construction a 10⁵-node
// spanner is an ordinary source (the all-pairs scan took minutes there).
func TestSpannerSourceBuildsLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("n=100000")
	}
	src, err := ParseSource("spanner:n=100000,k=6,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	sys, _, err := src.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !sys.A.IsSymmetric(0) {
		t.Fatal("spanner Laplacian is not exactly symmetric")
	}
	if weak, strict := sys.A.IsDiagonallyDominant(); !weak || strict != sys.Dim() {
		t.Fatalf("spanner Laplacian should be strictly diagonally dominant (weak=%v strict=%d of %d)", weak, strict, sys.Dim())
	}
}

func TestSpannerSourceBuild(t *testing.T) {
	src, err := ParseSource("spanner:n=64,k=5,seed=9,leak=0.1")
	if err != nil {
		t.Fatal(err)
	}
	sys, hint, err := src.Build()
	if err != nil {
		t.Fatal(err)
	}
	if hint.Grid {
		t.Fatal("spanner sources are irregular; Grid hint must be unset")
	}
	want := YaoSpannerLaplacian(64, 5, 9, 0.1)
	if sys.Name != want.Name || !sys.A.EqualApprox(want.A, 0) {
		t.Fatal("spanner source differs from YaoSpannerLaplacian")
	}
}

func TestRegisteredSources(t *testing.T) {
	got := strings.Join(RegisteredSources(), ",")
	if got != "grid,mm,poisson,random,resistor,saddle,spanner,tridiag" {
		t.Fatalf("RegisteredSources = %q", got)
	}
}

package factor

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/sparse"
)

// batchBackends enumerates every sparse backend × ordering combination the
// byte-agreement contract covers. The grid systems exercise the Cholesky
// paths, the saddle systems the LDLᵀ mode.
func batchBackends(t *testing.T) []struct {
	name   string
	solver LocalSolver
} {
	t.Helper()
	grid := sparse.Poisson2D(28, 28, 0.05)
	saddle := sparse.SaddlePoisson2D(14, 14, 1e-2)
	orders := []struct {
		name  string
		order Ordering
	}{
		{"natural", OrderNatural},
		{"rcm", OrderRCM},
		{"amd", OrderAMD},
		{"nd", OrderND},
	}
	var out []struct {
		name   string
		solver LocalSolver
	}
	add := func(name string, s LocalSolver, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, struct {
			name   string
			solver LocalSolver
		}{name, s})
	}
	for _, o := range orders {
		chol, err := NewCholesky(grid.A, o.order)
		add("sparse-cholesky/"+o.name, chol, err)
		snc, err := NewSupernodal(grid.A, o.order, ModeCholesky)
		add("supernodal-cholesky/"+o.name, snc, err)
		snl, err := NewSupernodal(saddle.A, o.order, ModeLDLT)
		add("supernodal-ldlt/"+o.name, snl, err)
	}
	return out
}

func vecsEqual(a, b sparse.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSolveBatchAgreement pins the batch contract: SolveBatch must hand every
// right-hand side exactly the bytes k sequential SolveTo calls produce, on
// every sparse backend under every ordering — the supernodal panel sweep and
// the scalar Cholesky's sequential fallback alike — for batch widths on both
// sides of the panel cap (snBatchMaxK).
func TestSolveBatchAgreement(t *testing.T) {
	for _, tc := range batchBackends(t) {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.solver.Dim()
			for _, k := range []int{1, 2, 3, 8, 17, snBatchMaxK + 3} {
				B := make([]sparse.Vec, k)
				want := make([]sparse.Vec, k)
				got := make([]sparse.Vec, k)
				for r := range B {
					B[r] = sparse.RandomVec(n, int64(101*r+7))
					want[r] = sparse.NewVec(n)
					got[r] = sparse.NewVec(n)
					tc.solver.SolveTo(want[r], B[r])
				}
				SolveBatch(tc.solver, got, B)
				for r := range B {
					if !vecsEqual(got[r], want[r]) {
						t.Fatalf("k=%d rhs %d: batched solve differs from scalar solve", k, r)
					}
				}
			}
		})
	}
}

// TestSolveBatchAliasing pins the aliasing clause of the contract: X[r] may
// be the same slice as B[r].
func TestSolveBatchAliasing(t *testing.T) {
	sys := sparse.Poisson2D(20, 20, 0.05)
	s, err := NewSupernodal(sys.A, OrderAuto, ModeCholesky)
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	n := s.Dim()
	B := make([]sparse.Vec, k)
	want := make([]sparse.Vec, k)
	for r := range B {
		B[r] = sparse.RandomVec(n, int64(r+1))
		want[r] = sparse.NewVec(n)
		s.SolveTo(want[r], B[r])
	}
	s.SolveBatchTo(B, B) // in place
	for r := range B {
		if !vecsEqual(B[r], want[r]) {
			t.Fatalf("rhs %d: aliased batch solve differs", r)
		}
	}
}

// TestSolveBatchConcurrent is the reentrancy pin of the batch path: many
// goroutines run batched solves on one shared supernodal factor at once, and
// every stream must see the sequential bytes (run under -race in CI).
func TestSolveBatchConcurrent(t *testing.T) {
	const goroutines = 6
	const k = 9
	sys := sparse.Poisson2D(48, 48, 0.05)
	s, err := New(SparseSupernodal, sys.A)
	if err != nil {
		t.Fatal(err)
	}
	n := s.Dim()
	B := make([]sparse.Vec, k)
	want := make([]sparse.Vec, k)
	for r := range B {
		B[r] = sparse.RandomVec(n, int64(13*r+5))
		want[r] = sparse.NewVec(n)
		s.SolveTo(want[r], B[r])
	}
	var wg sync.WaitGroup
	fail := make([]bool, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			X := make([]sparse.Vec, k)
			for r := range X {
				X[r] = sparse.NewVec(n)
			}
			for iter := 0; iter < 8; iter++ {
				SolveBatch(s, X, B)
				for r := range X {
					if !vecsEqual(X[r], want[r]) {
						fail[g] = true
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, f := range fail {
		if f {
			t.Fatalf("goroutine %d: concurrent batched solve on the shared factor diverged", g)
		}
	}
}

// TestSolveBatchFallback pins the SolveBatch helper on backends without a
// panel (no BatchSolver implementation): the sequential fallback must match
// SolveTo.
func TestSolveBatchFallback(t *testing.T) {
	for _, tc := range []struct {
		backend string
		sys     sparse.System
	}{
		{DenseCholesky, sparse.PaperExample()},
		{SparseCholesky, sparse.Poisson2D(12, 12, 0.05)},
	} {
		s, err := New(tc.backend, tc.sys.A)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.(BatchSolver); ok {
			t.Fatalf("test premise broken: %T implements BatchSolver", s)
		}
		n := s.Dim()
		B := []sparse.Vec{tc.sys.B, sparse.RandomVec(n, 3)}
		X := []sparse.Vec{sparse.NewVec(n), sparse.NewVec(n)}
		SolveBatch(s, X, B)
		for r := range B {
			want := sparse.NewVec(n)
			s.SolveTo(want, B[r])
			if !vecsEqual(X[r], want) {
				t.Fatalf("%s rhs %d: fallback batch differs from SolveTo", tc.backend, r)
			}
		}
	}
}

// TestSolveBatchScratchReuse pins the per-batch scratch hoisting: after a
// warm-up call, a whole batched solve must run allocation-free (the scalar
// path allocates nothing either, per solve).
func TestSolveBatchScratchReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is noisy under -short races")
	}
	grid := sparse.Poisson2D(24, 24, 0.05)
	s, err := NewSupernodal(grid.A, OrderAuto, ModeCholesky)
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	n := s.Dim()
	B := make([]sparse.Vec, k)
	X := make([]sparse.Vec, k)
	for r := range B {
		B[r] = sparse.RandomVec(n, int64(r+1))
		X[r] = sparse.NewVec(n)
	}
	s.SolveBatchTo(X, B) // warm the pool
	// 200 runs, not 20: under -race sync.Pool drops a quarter of its Puts at
	// random and a dropped batch scratch costs 7 allocations, which put 20
	// runs over the limit a few percent of the time.
	avg := testing.AllocsPerRun(200, func() {
		s.SolveBatchTo(X, B)
	})
	// A GC between runs may clear the pool once; anything beyond that means
	// the batch path re-acquires scratch per RHS again.
	if avg > 2 {
		t.Fatalf("batched solve allocates %.1f allocs/op; scratch hoisting regressed", avg)
	}
	x := sparse.NewVec(n)
	s.SolveTo(x, B[0])
	avg = testing.AllocsPerRun(20, func() {
		s.SolveTo(x, B[0])
	})
	if avg > 2 {
		t.Fatalf("scalar solve allocates %.1f allocs/op; pool reuse regressed", avg)
	}

	// The same on a large factor (128² ND, nnz(L) 413 403) with processors to
	// spare: SolveTo sweeps on the calling goroutine whatever GOMAXPROCS says;
	// a solve that fanned out over the elimination tree would allocate per
	// goroutine. Counted from MemStats because AllocsPerRun pins GOMAXPROCS
	// to 1 while it measures.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	big := sparse.Poisson2D(128, 128, 0.05)
	s, err = NewSupernodal(big.A, OrderND, ModeCholesky)
	if err != nil {
		t.Fatal(err)
	}
	x = sparse.NewVec(s.Dim())
	s.SolveTo(x, big.B)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		s.SolveTo(x, big.B)
	}
	runtime.ReadMemStats(&after)
	if avg := float64(after.Mallocs-before.Mallocs) / runs; avg > 2 {
		t.Fatalf("scalar solve on the 128² ND factor at GOMAXPROCS=4 allocates %.1f allocs/op", avg)
	}
}

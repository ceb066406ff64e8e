package factor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"repro/internal/sparse"
)

// snTestSystems are the workloads the supernodal backend must agree with the
// scalar backends on: SPD grids (regular and randomised), an irregular SPD
// pattern, and symmetric quasi-definite saddle systems.
func snTestSystems() map[string]sparse.System {
	return map[string]sparse.System{
		"poisson-24x24":   sparse.Poisson2D(24, 24, 0.05),
		"randgrid-17x17":  sparse.RandomGridSPD(17, 17, 4),
		"random-spd-300":  sparse.RandomSPD(300, 0.03, 11),
		"tridiag-200":     sparse.Tridiagonal(200, 2.1, -1),
		"saddle-16x16":    sparse.SaddlePoisson2D(16, 16, 1e-2),
		"saddle-24x24":    sparse.SaddlePoisson2D(24, 24, 1e-2),
		"poisson3d-7x7x7": sparse.Poisson3D(7, 7, 7, 0.05),
	}
}

// TestSupernodalAgreesWithScalarBackends is the cross-backend property test:
// on SPD and quasi-definite systems, under every ordering, the supernodal
// factorisation must agree to 1e-10 relative with the scalar sparse Cholesky
// (SPD input) or with dense LU, which shares no code with the sparse path
// (the rest).
func TestSupernodalAgreesWithScalarBackends(t *testing.T) {
	for name, sys := range snTestSystems() {
		spd := hasPosDiag(sys.A)
		for _, ord := range []Ordering{OrderNatural, OrderRCM, OrderAMD, OrderND, OrderAuto} {
			t.Run(fmt.Sprintf("%s/%s", name, ord), func(t *testing.T) {
				mode := ModeCholesky
				var ref sparse.Vec
				if spd {
					scalar, err := newCholesky(sys.A, ord)
					if err != nil {
						t.Fatalf("scalar Cholesky: %v", err)
					}
					ref = scalar.Solve(sys.B)
				} else {
					mode = ModeLDLT
					lu, err := New(DenseLU, sys.A)
					if err != nil {
						t.Fatalf("dense LU: %v", err)
					}
					ref = Solve(lu, sys.B)
				}
				sn, err := newSupernodal(sys.A, ord, mode)
				if err != nil {
					t.Fatalf("supernodal: %v", err)
				}
				// Several right-hand sides per factor (factor-once/solve-many),
				// all checked against residuals and the scalar solution.
				for trial := int64(0); trial < 3; trial++ {
					b := sys.B
					if trial > 0 {
						b = sparse.RandomVec(sys.Dim(), 31*trial)
					}
					x := sn.Solve(b)
					if r := sys.A.Residual(x, b).Norm2() / b.Norm2(); r > 1e-10 {
						t.Errorf("trial %d: relative residual %g", trial, r)
					}
					if trial == 0 {
						scale := ref.Norm2()
						if scale == 0 {
							scale = 1
						}
						if d := x.Sub(ref).Norm2() / scale; d > 1e-10 {
							t.Errorf("supernodal deviates from the reference by %g (rel)", d)
						}
					}
				}
			})
		}
	}
}

// TestSupernodalLDLTInertiaMatchesScalar checks LDLᵀ mode's inertia (a
// discrete invariant, so it must match exactly) against the one
// SaddlePoisson2D documents — (nx·ny)+, ny−, no zeros — on a non-square grid,
// at every ordering and at both a comfortable and a singular-leaning γ, and
// that Cholesky mode refuses the same indefinite system.
func TestSupernodalLDLTInertiaMatchesScalar(t *testing.T) {
	const nx, ny = 20, 13
	for _, gamma := range []float64{1e-2, 1e-9} {
		sys := sparse.SaddlePoisson2D(nx, ny, gamma)
		for _, ord := range []Ordering{OrderNatural, OrderRCM, OrderAMD, OrderND, OrderAuto} {
			sn, err := newSupernodal(sys.A, ord, ModeLDLT)
			if err != nil {
				t.Fatalf("γ=%g %v: %v", gamma, ord, err)
			}
			if p, neg, zero := sn.Inertia(); p != nx*ny || neg != ny || zero != 0 {
				t.Errorf("γ=%g %v: inertia (%d+,%d-,%d0), want (%d+,%d-,00)", gamma, ord, p, neg, zero, nx*ny, ny)
			}
		}
		if _, err := newSupernodal(sys.A, OrderAMD, ModeCholesky); !errors.Is(err, ErrNotPositiveDefinite) {
			t.Errorf("γ=%g: Cholesky mode on an indefinite system: %v, want ErrNotPositiveDefinite", gamma, err)
		}
	}
}

// snFactorBytes serialises everything numeric about a factorisation, so runs
// can be compared byte for byte.
func snFactorBytes(t *testing.T, s *Supernodal, b sparse.Vec) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, v := range s.panel {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	if s.d != nil {
		for _, v := range s.d {
			if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	x := s.Solve(b)
	for _, v := range x {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestSupernodalDeterministicAcrossGOMAXPROCS is the determinism guarantee:
// factors and solves must be byte-identical at GOMAXPROCS 1 and 4 — the
// backend starts no goroutine, so this holds by construction — and, on amd64,
// equal to the bytes of the subtree-scheduled, level-solved implementation it
// replaced: golden is the FNV-1a hash of snFactorBytes recorded at commit
// dfc81e0 (the same at both settings there; other targets run the portable
// kernel and may fuse multiply-adds). The 128² ND grid is the acceptance
// workload of the nested-dissection PR.
func TestSupernodalDeterministicAcrossGOMAXPROCS(t *testing.T) {
	systems := map[string]struct {
		sys    sparse.System
		ord    Ordering
		mode   SupernodalMode
		golden uint64
	}{
		"poisson-96x96-amd":  {sparse.Poisson2D(96, 96, 0.05), OrderAMD, ModeCholesky, 0x10d433bd3e1b2c32},
		"saddle-64x64-amd":   {sparse.SaddlePoisson2D(64, 64, 1e-2), OrderAMD, ModeLDLT, 0xa640cdd7e55df070},
		"poisson-128x128-nd": {sparse.Poisson2D(128, 128, 0.05), OrderND, ModeCholesky, 0x15bafac87cf329b5},
		"saddle-64x64-nd":    {sparse.SaddlePoisson2D(64, 64, 1e-2), OrderND, ModeLDLT, 0x8e090ba3e7f88ba6},
	}
	saved := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(saved)
	for name, tc := range systems {
		t.Run(name, func(t *testing.T) {
			runtime.GOMAXPROCS(1)
			s1, err := newSupernodal(tc.sys.A, tc.ord, tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			bytes1 := snFactorBytes(t, s1, tc.sys.B)

			runtime.GOMAXPROCS(4)
			s4, err := newSupernodal(tc.sys.A, tc.ord, tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			bytes4 := snFactorBytes(t, s4, tc.sys.B)
			if !bytes.Equal(bytes1, bytes4) {
				t.Fatal("factor/solve bytes differ between GOMAXPROCS=1 and GOMAXPROCS=4")
			}
			if runtime.GOARCH != "amd64" {
				return
			}
			h := fnv.New64a()
			h.Write(bytes1)
			if got := h.Sum64(); got != tc.golden {
				t.Errorf("FNV-1a of the factor/solve bytes = %#x, want %#x", got, tc.golden)
			}
		})
	}
}

// TestSupernodalRunToRunDeterminism pins plain run-over-run byte equality at
// whatever GOMAXPROCS the test harness uses.
func TestSupernodalRunToRunDeterminism(t *testing.T) {
	sys := sparse.RandomGridSPD(40, 40, 9)
	s1, err := newSupernodal(sys.A, OrderAuto, ModeCholesky)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := newSupernodal(sys.A, OrderAuto, ModeCholesky)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snFactorBytes(t, s1, sys.B), snFactorBytes(t, s2, sys.B)) {
		t.Fatal("two factorisations of the same matrix differ")
	}
}

// TestSupernodalSolveToDoesNotAllocate pins the pooled per-call scratch: after
// a warm-up solve, SolveTo must run allocation-free.
func TestSupernodalSolveToDoesNotAllocate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is noisy under -short races")
	}
	grid := sparse.Poisson2D(24, 24, 0.05)
	s, err := newSupernodal(grid.A, OrderAuto, ModeCholesky)
	if err != nil {
		t.Fatal(err)
	}
	b := sparse.RandomVec(s.Dim(), 1)
	x := sparse.NewVec(s.Dim())
	s.SolveTo(x, b) // warm the pool
	avg := testing.AllocsPerRun(20, func() {
		s.SolveTo(x, b)
	})
	// A GC between runs may clear the pool once; anything beyond that means
	// the scratch is acquired somewhere other than the pool.
	if avg > 2 {
		t.Fatalf("SolveTo allocates %.1f allocs/op; pool reuse regressed", avg)
	}

	// The same on a large factor (128² ND, nnz(L) 413 403) with processors to
	// spare: SolveTo sweeps on the calling goroutine whatever GOMAXPROCS says;
	// a solve that fanned out over the elimination tree would allocate per
	// goroutine. Counted from MemStats because AllocsPerRun pins GOMAXPROCS
	// to 1 while it measures.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	big := sparse.Poisson2D(128, 128, 0.05)
	s, err = newSupernodal(big.A, OrderND, ModeCholesky)
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
		t.Fatalf("SolveTo on the 128² ND factor at GOMAXPROCS=4 allocates %.1f allocs/op", avg)
	}
}

// TestSupernodePartitionProperties checks the structural invariants of the
// supernode partition the ISSUE names: supernodes cover the columns
// contiguously, every supernode's row structure starts with its own columns
// and contains exactly the (sorted, below-supernode) union of its member
// columns' patterns, the stored trapezoids account for every true factor
// entry, and the amalgamation zero-fill budget is respected per supernode.
func TestSupernodePartitionProperties(t *testing.T) {
	for name, sys := range snTestSystems() {
		t.Run(name, func(t *testing.T) {
			mode := ModeCholesky
			if !hasPosDiag(sys.A) {
				mode = ModeLDLT
			}
			s, err := newSupernodal(sys.A, OrderAuto, mode)
			if err != nil {
				t.Fatal(err)
			}
			n := s.n
			// Contiguous cover of the columns.
			if s.sfirst[0] != 0 || int(s.sfirst[s.ns]) != n {
				t.Fatalf("partition does not span the columns: %v", s.sfirst)
			}
			// Recompute the scalar column counts on the same permuted matrix.
			c := sys.A
			if s.perm != nil {
				c = sys.A.PermuteSym(s.perm)
			}
			parent := etreeOracle(c)
			count := snColCountsOracle(c, parent)
			// Cross-check the GNP counts against the ereach sweep the scalar
			// backends use.
			mark := make([]int, n)
			stack := make([]int, n)
			pattern := make([]int, n)
			for i := range mark {
				mark[i] = -1
			}
			sweep := make([]int, n)
			for k := 0; k < n; k++ {
				top := ereachOracle(c, k, parent, mark, stack, pattern)
				sweep[k]++
				for _, j := range pattern[top:] {
					sweep[j]++
				}
			}
			for j := 0; j < n; j++ {
				if count[j] != sweep[j] {
					t.Fatalf("GNP count[%d]=%d, ereach sweep says %d", j, count[j], sweep[j])
				}
			}
			totalStored := 0
			for sn := 0; sn < s.ns; sn++ {
				f, l := int(s.sfirst[sn]), int(s.sfirst[sn+1])-1
				width := l - f + 1
				if width <= 0 || width > snMaxWidth {
					t.Fatalf("supernode %d has width %d", sn, width)
				}
				rows := s.rowind[s.rx[sn]:s.rx[sn+1]]
				ld := len(rows)
				// Row structure starts with the supernode's own columns …
				for i := 0; i < width; i++ {
					if int(rows[i]) != f+i {
						t.Fatalf("supernode %d row %d is %d, want own column %d", sn, i, rows[i], f+i)
					}
				}
				// … and continues sorted strictly beyond the last column.
				for i := width; i < ld; i++ {
					if int(rows[i]) <= l || (i > width && rows[i] <= rows[i-1]) {
						t.Fatalf("supernode %d has unsorted/in-range below-row %d at %d", sn, rows[i], i)
					}
				}
				// Column-count consistency: the trapezoid must hold every true
				// entry of each member column (count ≤ available rows), with
				// the first member column tight when no amalgamation happened.
				entries := 0
				truth := 0
				for jj := 0; jj < width; jj++ {
					avail := ld - jj
					if count[f+jj] > avail {
						t.Fatalf("supernode %d col %d: count %d exceeds trapezoid rows %d", sn, f+jj, count[f+jj], avail)
					}
					entries += avail
					truth += count[f+jj]
				}
				totalStored += entries
				// Amalgamation budget: explicit zeros within the loosest
				// fraction snRelaxOK ever allows.
				if zeros := entries - truth; float64(zeros) > snRelaxFracMax*float64(entries) {
					t.Fatalf("supernode %d: %d explicit zeros in %d entries breaks the amalgamation budget", sn, zeros, entries)
				}
			}
			if totalStored != s.NNZL() {
				t.Errorf("NNZL() = %d, trapezoids sum to %d", s.NNZL(), totalStored)
			}
		})
	}
}

// TestSupernodalBackendRegistered covers the registry entry and its internal
// Cholesky→LDLᵀ chain: SPD input factorises in Cholesky mode, quasi-definite
// input lands in LDLᵀ mode under the same name.
func TestSupernodalBackendRegistered(t *testing.T) {
	if !Known(SparseSupernodal) {
		t.Fatal("sparse-supernodal is not registered")
	}
	spd := sparse.Poisson2D(16, 16, 0.05)
	s, err := New(SparseSupernodal, spd.A)
	if err != nil {
		t.Fatal(err)
	}
	if s.Backend() != SparseSupernodal {
		t.Errorf("Backend() = %q", s.Backend())
	}
	if s.(*Supernodal).Mode() != ModeCholesky {
		t.Errorf("SPD input factorised in %v mode", s.(*Supernodal).Mode())
	}
	saddle := sparse.SaddlePoisson2D(12, 12, 1e-2)
	s, err = New(SparseSupernodal, saddle.A)
	if err != nil {
		t.Fatal(err)
	}
	if s.(*Supernodal).Mode() != ModeLDLT {
		t.Errorf("quasi-definite input factorised in %v mode", s.(*Supernodal).Mode())
	}
	x := Solve(s, saddle.B)
	if r := saddle.A.Residual(x, saddle.B).Norm2() / saddle.B.Norm2(); r > 1e-10 {
		t.Errorf("registry solve has relative residual %g", r)
	}
}

// TestAutoPicksSupernodalForLargeBlocks pins the auto policy's size
// threshold: a large sparse SPD block routes to the supernodal backend, a
// large quasi-definite one lands in its LDLᵀ mode, and a singular block still
// falls through to dense LU.
func TestAutoPicksSupernodalForLargeBlocks(t *testing.T) {
	big := sparse.Poisson2D(32, 32, 0.05) // n=1024 ≥ autoSupernodalMinDim
	s, err := New(Auto, big.A)
	if err != nil {
		t.Fatal(err)
	}
	if s.Backend() != SparseSupernodal {
		t.Errorf("auto picked %q for n=%d, want %q", s.Backend(), big.Dim(), SparseSupernodal)
	}
	saddle := sparse.SaddlePoisson2D(32, 32, 1e-2) // n=1056, indefinite
	s, err = New(Auto, saddle.A)
	if err != nil {
		t.Fatal(err)
	}
	if s.Backend() != SparseSupernodal || s.(*Supernodal).Mode() != ModeLDLT {
		t.Errorf("auto picked %q for a large quasi-definite block", s.Backend())
	}
	// A structurally singular large sparse block: supernodal LDLᵀ fails, dense
	// LU (feasible here) must still catch it.
	n := 2 * autoSupernodalMinDim
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n/2; i++ {
		coo.AddSym(i, n-1-i, 1)
	}
	s, err = New(Auto, coo.ToCSR())
	if err != nil {
		t.Fatal(err)
	}
	if s.Backend() != DenseLU {
		t.Errorf("auto picked %q for the anti-diagonal, want %q", s.Backend(), DenseLU)
	}
}

// TestSupernodalErrors covers the failure modes: non-square input, bad
// pivots in both modes (with the right sentinels), and the singleton and
// aliasing edge cases.
func TestSupernodalErrors(t *testing.T) {
	if _, err := newSupernodal(sparse.NewCOO(2, 3).ToCSR(), OrderNatural, ModeCholesky); err == nil {
		t.Error("non-square input did not fail")
	}
	indef := sparse.NewCSRFromDense([][]float64{{1, 2}, {2, 1}}, 0)
	if _, err := newSupernodal(indef, OrderNatural, ModeCholesky); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Errorf("indefinite Cholesky: %v, want ErrNotPositiveDefinite", err)
	}
	sing := sparse.NewCSRFromDense([][]float64{{0, 1}, {1, 0}}, 0)
	if _, err := newSupernodal(sing, OrderNatural, ModeLDLT); !errors.Is(err, ErrSingular) {
		t.Errorf("zero-pivot LDLT: %v, want ErrSingular", err)
	}
	one, err := newSupernodal(sparse.NewCSRFromDense([][]float64{{4}}, 0), OrderNatural, ModeCholesky)
	if err != nil {
		t.Fatal(err)
	}
	if x := one.Solve(sparse.Vec{8}); x[0] != 2 {
		t.Errorf("1x1 solve got %g, want 2", x[0])
	}
	sys := sparse.Poisson2D(9, 9, 0.05)
	s, err := newSupernodal(sys.A, OrderRCM, ModeCholesky)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Solve(sys.B)
	x := sys.B.Clone()
	s.SolveTo(x, x) // aliasing
	if x.MaxAbsDiff(want) != 0 {
		t.Error("aliased SolveTo differs from Solve")
	}
}

// TestSupernodalParallelErrorDeterministic forces a bad pivot into a large
// system and checks the reported error names the same pivot at every
// GOMAXPROCS.
func TestSupernodalParallelErrorDeterministic(t *testing.T) {
	// A large AMD-friendly SPD system made indefinite at one entry.
	sys := sparse.SaddlePoisson2D(64, 64, 1e-2)
	saved := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(saved)
	var msgs []string
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		_, err := newSupernodal(sys.A, OrderAMD, ModeCholesky)
		if !errors.Is(err, ErrNotPositiveDefinite) {
			t.Fatalf("GOMAXPROCS=%d: %v, want ErrNotPositiveDefinite", procs, err)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Errorf("pivot error differs across GOMAXPROCS: %q vs %q", msgs[0], msgs[1])
	}
}

// TestPostorder checks the postorder helper on a small forest.
func TestPostorder(t *testing.T) {
	//     5        6 (root)     parents: 5 for {1,3}, 6 for {0,5}, roots 6, 2? keep a forest:
	parent := []int32{6, 5, -1, 5, 2, 6, -1}
	w := getWorkspace()
	defer w.release()
	post := postorder(parent, make([]int32, len(parent)), w)
	p := make(Perm, len(post))
	for i, v := range post {
		p[i] = int(v)
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	pos := make([]int, len(parent))
	for i, v := range post {
		pos[v] = i
	}
	for v, p := range parent {
		if p != -1 && pos[v] > pos[p] {
			t.Errorf("vertex %d appears after its parent %d", v, p)
		}
	}
}

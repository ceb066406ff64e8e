package factor

import (
	"sync"
	"testing"

	"repro/internal/sparse"
)

// TestSolveToConcurrentReentrant is the reentrancy bugfix's pin: one factor
// serving eight goroutines of factor-once/solve-many traffic (the DTM
// subdomain pattern) must produce byte-identical solutions on every stream —
// run under -race in CI, where the old factor-owned scratch buffers showed up
// as a data race and silently corrupted results. The supernodal ports-only
// solve is raced the same way.
func TestSolveToConcurrentReentrant(t *testing.T) {
	const goroutines = 8
	const solvesPerG = 16

	systems := []struct {
		name  string
		sys   sparse.System
		build func(sys sparse.System) (LocalSolver, error)
	}{
		{"sparse-cholesky", sparse.Poisson2D(48, 48, 0.05), func(s sparse.System) (LocalSolver, error) {
			return newCholesky(s.A, OrderAuto)
		}},
		{"supernodal-cholesky", sparse.Poisson2D(64, 64, 0.05), func(s sparse.System) (LocalSolver, error) {
			return newSupernodal(s.A, OrderAuto, ModeCholesky)
		}},
		{"supernodal-nd", sparse.Poisson2D(64, 64, 0.05), func(s sparse.System) (LocalSolver, error) {
			return newSupernodal(s.A, OrderND, ModeCholesky)
		}},
		{"supernodal-ldlt", sparse.SaddlePoisson2D(32, 32, 1e-2), func(s sparse.System) (LocalSolver, error) {
			return newSupernodal(s.A, OrderAuto, ModeLDLT)
		}},
	}

	for _, tc := range systems {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.build(tc.sys)
			if err != nil {
				t.Fatal(err)
			}
			n := s.Dim()
			// Per-goroutine right-hand sides (reused across all goroutines) and
			// the sequential reference solutions.
			rhs := make([]sparse.Vec, solvesPerG)
			want := make([]sparse.Vec, solvesPerG)
			for i := range rhs {
				rhs[i] = sparse.RandomVec(n, int64(7*i+1))
				want[i] = sparse.NewVec(n)
				s.SolveTo(want[i], rhs[i])
			}

			var wg sync.WaitGroup
			diffs := make([]int, goroutines) // first differing solve index +1, else 0
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					x := sparse.NewVec(n)
					for i := range rhs {
						s.SolveTo(x, rhs[i])
						for k := range x {
							if x[k] != want[i][k] {
								diffs[g] = i + 1
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			for g, d := range diffs {
				if d != 0 {
					t.Errorf("goroutine %d: solve %d differs from the sequential reference", g, d-1)
				}
			}
		})
	}

	// The ports-only solve shares the factor's scratch pool: eight goroutines
	// of port-perturbed right-hand sides must each see SolveTo's port bytes.
	t.Run("supernodal-ports-only", func(t *testing.T) {
		a := shuffled(sparse.Poisson2D(64, 64, 0.05).A, 9)
		n, k := a.Rows(), 300
		base := sparse.RandomVec(n, 10)
		s, po := portsOnlyOf(t, a, OrderAuto, k, base)
		rhs := make([]sparse.Vec, solvesPerG)
		want := make([]sparse.Vec, solvesPerG)
		for i := range rhs {
			rhs[i] = base.Clone()
			copy(rhs[i], sparse.RandomVec(k, int64(7*i+1)))
			want[i] = Solve(s, rhs[i])
		}
		var wg sync.WaitGroup
		diffs := make([]int, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				u := sparse.NewVec(k)
				for i := range rhs {
					po.SolveTo(u, rhs[i])
					if samePorts(u, want[i]) >= 0 {
						diffs[g] = i + 1
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for g, d := range diffs {
			if d != 0 {
				t.Errorf("goroutine %d: ports-only solve %d differs from SolveTo's ports", g, d-1)
			}
		}
	})
}

// TestInertiaCrossBackendAgreement is the inertia bugfix's pin: on a
// quasi-definite system and on a singular-leaning one (the trailing −γI block
// pushed to within a whisker of zero) LDLᵀ mode must report, under every
// ordering, exactly the inertia SaddlePoisson2D documents — (nx·ny)+, ny−,
// no zeros — which accounts for every unknown.
func TestInertiaCrossBackendAgreement(t *testing.T) {
	const side = 24
	for _, tc := range []struct {
		name  string
		gamma float64
	}{
		{"quasi-definite", 1e-2},
		{"singular-leaning", 1e-9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := sparse.SaddlePoisson2D(side, side, tc.gamma)
			for _, ord := range []Ordering{OrderNatural, OrderRCM, OrderAMD, OrderND, OrderAuto} {
				sn, err := newSupernodal(sys.A, ord, ModeLDLT)
				if err != nil {
					t.Fatalf("%v: %v", ord, err)
				}
				if p, neg, zero := sn.Inertia(); p != side*side || neg != side || zero != 0 {
					t.Errorf("%v: inertia (%d+,%d-,%d0), want (%d+,%d-,00)", ord, p, neg, zero, side*side, side)
				}
			}
		})
	}
}

// TestInertiaZeroPivotClassification pins the classification itself: a zero
// is neither positive nor negative (exercised directly on the pivot
// classifier, since the factorisation rejects zero pivots via the relative
// threshold before they could ever be stored).
func TestInertiaZeroPivotClassification(t *testing.T) {
	pos, neg, zero := inertiaOf([]float64{3, -2, 0, 1, 0})
	if pos != 2 || neg != 1 || zero != 2 {
		t.Errorf("inertiaOf = (%d+, %d-, %d0), want (2+, 1-, 20)", pos, neg, zero)
	}
	// Cholesky mode: all positive by construction, no zeros.
	sys := sparse.Poisson2D(16, 16, 0.05)
	sn, err := newSupernodal(sys.A, OrderAuto, ModeCholesky)
	if err != nil {
		t.Fatal(err)
	}
	if p, n, z := sn.Inertia(); p != sys.Dim() || n != 0 || z != 0 {
		t.Errorf("Cholesky-mode inertia = (%d+, %d-, %d0), want (%d+, 0-, 00)", p, n, z, sys.Dim())
	}
}

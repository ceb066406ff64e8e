package factor

import (
	"testing"

	"repro/internal/sparse"
)

// ndTestMatrices are the patterns the ND property tests run over: regular
// grids, a shuffled grid (no exploitable labelling), an irregular saddle
// pattern and a 3-D stencil.
func ndTestMatrices() map[string]*sparse.CSR {
	return map[string]*sparse.CSR{
		"poisson-32x32":    sparse.Poisson2D(32, 32, 0.05).A,
		"shuffled-24x24":   shuffledGrid(24, 24, 5),
		"saddle-20x20":     sparse.SaddlePoisson2D(20, 20, 1e-2).A,
		"poisson3d-9x9x9":  sparse.Poisson3D(9, 9, 9, 0.05).A,
		"tridiag-300":      sparse.Tridiagonal(300, 2.1, -1).A,
		"random-spd-400":   sparse.RandomSPD(400, 0.02, 3).A,
		"randgrid-21x21":   sparse.RandomGridSPD(21, 21, 8).A,
		"poisson-1x200":    sparse.Poisson2D(1, 200, 0.05).A,
		"poisson-128x128":  sparse.Poisson2D(128, 128, 0.05).A,
		"two-paths-disc-6": twoPathsDisconnected(),
	}
}

func twoPathsDisconnected() *sparse.CSR {
	coo := sparse.NewCOO(300, 300)
	for i := 0; i < 300; i++ {
		coo.Add(i, i, 2)
	}
	for i := 0; i < 149; i++ {
		coo.AddSym(i, i+1, -1)
	}
	for i := 150; i < 299; i++ {
		coo.AddSym(i, i+1, -1)
	}
	return coo.ToCSR()
}

// TestNDIsValidPermutation checks ND returns a permutation of 0..n-1 on every
// test pattern, including disconnected and path graphs.
func TestNDIsValidPermutation(t *testing.T) {
	for name, a := range ndTestMatrices() {
		t.Run(name, func(t *testing.T) {
			p := ND(a)
			if len(p) != a.Rows() {
				t.Fatalf("ND returned %d indices for %d vertices", len(p), a.Rows())
			}
			if err := p.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNDDeterministic pins run-over-run identity of the ordering.
func TestNDDeterministic(t *testing.T) {
	for name, a := range ndTestMatrices() {
		t.Run(name, func(t *testing.T) {
			p1, p2 := ND(a), ND(a)
			for i := range p1 {
				if p1[i] != p2[i] {
					t.Fatalf("ND is not deterministic at %d: %d vs %d", i, p1[i], p2[i])
				}
			}
		})
	}
}

// TestNDFillAndFlopsBelowRCMOnGrids is the acceptance criterion of the
// nested-dissection PR: on the 64² grid ND must not fill more than RCM, and
// on the 128² (16384-unknown) grid ND must cut both nnz(L) and the factor
// flops to at most half of RCM's.
func TestNDFillAndFlopsBelowRCMOnGrids(t *testing.T) {
	for _, side := range []int{64, 128} {
		sys := sparse.Poisson2D(side, side, 0.05)
		rcm, err := newSupernodal(sys.A, OrderRCM, ModeCholesky)
		if err != nil {
			t.Fatal(err)
		}
		nd, err := newSupernodal(sys.A, OrderND, ModeCholesky)
		if err != nil {
			t.Fatal(err)
		}
		if x := nd.Solve(sys.B); sys.A.Residual(x, sys.B).Norm2()/sys.B.Norm2() > 1e-10 {
			t.Fatalf("side %d: ND-ordered solve lost accuracy", side)
		}
		bound := 1.0
		if side >= 128 {
			bound = 0.5
		}
		if f := float64(nd.NNZL()) / float64(rcm.NNZL()); f > bound {
			t.Errorf("side %d: nnz(L) nd/rcm = %.3f, want ≤ %.2f (nd %d, rcm %d)", side, f, bound, nd.NNZL(), rcm.NNZL())
		}
		if f := nd.Flops() / rcm.Flops(); f > bound {
			t.Errorf("side %d: flops nd/rcm = %.3f, want ≤ %.2f (nd %.3g, rcm %.3g)", side, f, bound, nd.Flops(), rcm.Flops())
		}
		t.Logf("side %d: nnz(L) nd/rcm %.2f, flops nd/rcm %.2f",
			side, float64(nd.NNZL())/float64(rcm.NNZL()), nd.Flops()/rcm.Flops())
	}
}

// TestAnalyzeSupernodalMatchesFactorisation pins the symbolic-only analysis
// (what E6's ordering comparison runs) to the real factorisation: identical
// nnz(L), flop estimate, supernode count and resolved ordering.
func TestAnalyzeSupernodalMatchesFactorisation(t *testing.T) {
	sys := sparse.Poisson2D(64, 64, 0.05)
	for _, ord := range []Ordering{OrderRCM, OrderND} {
		an, err := AnalyzeSupernodal(sys.A, ord)
		if err != nil {
			t.Fatal(err)
		}
		s, err := newSupernodal(sys.A, ord, ModeCholesky)
		if err != nil {
			t.Fatal(err)
		}
		if an.NNZL != s.NNZL() || an.Flops != s.Flops() || an.Supernodes != s.Supernodes() || an.Ordering != s.Ordering() {
			t.Errorf("%v: analysis (nnzL %d, flops %g, ns %d, %v) differs from factorisation (nnzL %d, flops %g, ns %d, %v)",
				ord, an.NNZL, an.Flops, an.Supernodes, an.Ordering, s.NNZL(), s.Flops(), s.Supernodes(), s.Ordering())
		}
	}
	if _, err := AnalyzeSupernodal(sparse.NewCOO(2, 3).ToCSR(), OrderND); err == nil {
		t.Error("non-square analysis did not fail")
	}
}

// TestNDScalarAgreement runs the scalar backends under OrderND against the
// supernodal factorisation — the cross-backend 1e-10 agreement the ISSUE
// names (the big ordering sweeps in supernodal_test.go cover OrderND too;
// this pins a grid large enough for a real dissection tree).
func TestNDScalarAgreement(t *testing.T) {
	sys := sparse.Poisson2D(40, 40, 0.05)
	scalar, err := newCholesky(sys.A, OrderND)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := newSupernodal(sys.A, OrderND, ModeCholesky)
	if err != nil {
		t.Fatal(err)
	}
	if scalar.Ordering() != OrderND || sn.Ordering() != OrderND {
		t.Fatalf("orderings resolved to %v / %v, want nd", scalar.Ordering(), sn.Ordering())
	}
	xs, xn := scalar.Solve(sys.B), sn.Solve(sys.B)
	if d := xs.Sub(xn).Norm2() / xs.Norm2(); d > 1e-10 {
		t.Errorf("supernodal deviates from scalar by %g under OrderND", d)
	}
	// The scalar factor under ND must also beat its RCM fill at this size.
	rcm, err := newCholesky(sys.A, OrderRCM)
	if err != nil {
		t.Fatal(err)
	}
	if nd, r := scalar.NNZL(), rcm.NNZL(); nd > r {
		t.Errorf("scalar nnz(L) under ND (%d) exceeds RCM (%d) on a 40x40 grid", nd, r)
	}
}

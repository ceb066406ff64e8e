package factor

import (
	"testing"

	"repro/internal/sparse"
)

// TestResolveOrderingCountsOffDiagonalDegree is the regression test of the
// degree-policy bugfix: the stencil degree bound must count off-diagonal
// entries only, so the 5-point (off-degree 4) and 7-point (off-degree 6)
// stencils route to the grid orderings with honest headroom under the
// bound of 8 — RCM below autoOrderNDMinDim unknowns, nested dissection at
// and above it.
func TestResolveOrderingCountsOffDiagonalDegree(t *testing.T) {
	cases := []struct {
		name string
		a    *sparse.CSR
		want Ordering
	}{
		{"5pt-small", sparse.Poisson2D(24, 24, 0.05).A, OrderRCM},
		{"7pt-small", sparse.Poisson3D(9, 9, 9, 0.05).A, OrderRCM},
		{"5pt-large", sparse.Poisson2D(64, 64, 0.05).A, OrderND},
		{"7pt-large", sparse.Poisson3D(16, 16, 16, 0.05).A, OrderND},
		{"saddle-irregular", sparse.SaddlePoisson2D(20, 20, 1e-2).A, OrderAMD},
		{"random-irregular", sparse.RandomSPD(300, 0.06, 4).A, OrderAMD},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := resolveOrdering(tc.a, OrderAuto); got != tc.want {
				t.Errorf("OrderAuto on %s (n=%d) resolved to %v, want %v", tc.name, tc.a.Rows(), got, tc.want)
			}
			// Concrete orderings pass through untouched.
			for _, ord := range []Ordering{OrderNatural, OrderRCM, OrderAMD, OrderND} {
				if got := resolveOrdering(tc.a, ord); got != ord {
					t.Errorf("explicit %v resolved to %v", ord, got)
				}
			}
		})
	}
}

// TestResolveOrderingDegreeBoundary pins the exact boundary: a row with
// autoOrderMaxGridDegree off-diagonal entries stays on the grid route, one
// more tips the matrix to AMD — independent of whether diagonals are stored.
func TestResolveOrderingDegreeBoundary(t *testing.T) {
	star := func(leaves int, diag bool) *sparse.CSR {
		n := leaves + 1
		coo := sparse.NewCOO(n, n)
		for i := 0; i < n && diag; i++ {
			coo.Add(i, i, float64(leaves)+1)
		}
		for l := 1; l <= leaves; l++ {
			coo.AddSym(0, l, -1)
		}
		return coo.ToCSR()
	}
	for _, diag := range []bool{true, false} {
		if got := resolveOrdering(star(autoOrderMaxGridDegree, diag), OrderAuto); got != OrderRCM {
			t.Errorf("degree %d (diag=%v) resolved to %v, want rcm", autoOrderMaxGridDegree, diag, got)
		}
		if got := resolveOrdering(star(autoOrderMaxGridDegree+1, diag), OrderAuto); got != OrderAMD {
			t.Errorf("degree %d (diag=%v) resolved to %v, want amd", autoOrderMaxGridDegree+1, diag, got)
		}
	}
}

// TestParseOrderingRoundTrip checks every ordering parses back from its
// String name and unknown names fail.
func TestParseOrderingRoundTrip(t *testing.T) {
	for _, ord := range []Ordering{OrderNatural, OrderRCM, OrderAMD, OrderND, OrderAuto} {
		got, err := ParseOrdering(ord.String())
		if err != nil || got != ord {
			t.Errorf("ParseOrdering(%q) = %v, %v", ord.String(), got, err)
		}
	}
	if _, err := ParseOrdering("metis"); err == nil {
		t.Error("unknown ordering name parsed")
	}
}

// TestSettingsOrderingSteersRegisteredBackends checks that the ordering a
// Settings value carries reaches the registry backends, and that the next
// factorisation — with a zero Settings — is back under auto: nothing
// process-wide remembers the previous call.
func TestSettingsOrderingSteersRegisteredBackends(t *testing.T) {
	sys := sparse.Poisson2D(24, 24, 0.05)
	s, err := Settings{Backend: SparseCholesky, Ordering: OrderND}.New(sys.A)
	if err != nil {
		t.Fatal(err)
	}
	if ord := s.(*Cholesky).Ordering(); ord != OrderND {
		t.Errorf("sparse-cholesky factorised under %v with Settings.Ordering = nd", ord)
	}
	sn, err := Settings{Backend: SparseSupernodal, Ordering: OrderND}.New(sys.A)
	if err != nil {
		t.Fatal(err)
	}
	if ord := sn.(*Supernodal).Ordering(); ord != OrderND {
		t.Errorf("sparse-supernodal factorised under %v with Settings.Ordering = nd", ord)
	}
	after, err := New(SparseCholesky, sys.A)
	if err != nil {
		t.Fatal(err)
	}
	if ord := after.(*Cholesky).Ordering(); ord != OrderRCM {
		t.Errorf("a default factorisation after an nd one ran under %v, want auto's rcm", ord)
	}
}

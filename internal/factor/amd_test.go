package factor

import (
	"testing"

	"repro/internal/sparse"
)

// irregularTestMatrices are symmetric patterns that are decidedly not
// bounded-degree grid stencils — the class the OrderAuto policy sends to AMD.
func irregularTestMatrices() map[string]*sparse.CSR {
	star := sparse.NewCOO(40, 40)
	for i := 0; i < 40; i++ {
		star.Add(i, i, 40)
		if i > 0 {
			star.AddSym(0, i, -1)
		}
	}
	return map[string]*sparse.CSR{
		"random-spd-300":  sparse.RandomSPD(300, 0.03, 11).A,
		"random-spd-500":  sparse.RandomSPD(500, 0.02, 5).A,
		"saddle-20x20":    sparse.SaddlePoisson2D(20, 20, 1e-2).A,
		"star-40":         star.ToCSR(),
		"resistor-irregs": sparse.RandomSPD(200, 0.08, 3).A,
	}
}

// exactFill is nnz(L) strictly below the diagonal under the given ordering,
// read from the symbolic column counts of the postordered permuted matrix —
// the true fill, without the explicit zeros supernodal amalgamation stores.
func exactFill(a *sparse.CSR, order Ordering) int {
	an, err := Analyze(a, order)
	if err != nil {
		panic(err)
	}
	fill := 0
	for _, count := range an.count {
		fill += int(count) - 1
	}
	return fill
}

func TestAMDIsAValidPermutation(t *testing.T) {
	cases := irregularTestMatrices()
	cases["poisson-16x16"] = sparse.Poisson2D(16, 16, 0.05).A
	cases["identity-50"] = sparse.Identity(50)
	cases["tridiag-30"] = sparse.Tridiagonal(30, 2.1, -1).A
	cases["single"] = sparse.Identity(1)
	for name, a := range cases {
		p := AMD(a)
		if len(p) != a.Rows() {
			t.Errorf("%s: AMD returned %d indices for an n=%d matrix", name, len(p), a.Rows())
			continue
		}
		if err := p.Check(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestAMDIsDeterministic(t *testing.T) {
	for name, a := range irregularTestMatrices() {
		first := AMD(a)
		for run := 0; run < 3; run++ {
			again := AMD(a)
			for i := range first {
				if first[i] != again[i] {
					t.Errorf("%s: AMD run %d diverges at position %d: %d vs %d", name, run, i, first[i], again[i])
					break
				}
			}
		}
	}
}

// TestAMDFillNoWorseThanNatural pins the point of the ordering: on irregular
// graphs the AMD-permuted factor must not carry more fill than factorising in
// the natural order.
func TestAMDFillNoWorseThanNatural(t *testing.T) {
	for name, a := range irregularTestMatrices() {
		natural, amd := exactFill(a, OrderNatural), exactFill(a, OrderAMD)
		if amd > natural {
			t.Errorf("%s: AMD fill %d exceeds natural fill %d", name, amd, natural)
		}
	}
}

// TestAMDBeatsRCMOnIrregularGraphs documents why the OrderAuto policy exists:
// on irregular patterns AMD's local greedy degree decisions produce (often
// dramatically) sparser factors than RCM's breadth-first band.
func TestAMDBeatsRCMOnIrregularGraphs(t *testing.T) {
	for _, name := range []string{"random-spd-500", "saddle-20x20", "star-40"} {
		a := irregularTestMatrices()[name]
		rcm, amd := exactFill(a, OrderRCM), exactFill(a, OrderAMD)
		if amd > rcm {
			t.Errorf("%s: AMD fill %d exceeds RCM fill %d on an irregular graph", name, amd, rcm)
		}
	}
}

// TestAMDMassElimination pins the mass-elimination path: in a clique glued
// onto an otherwise empty graph, the first clique pivot dominates the rest,
// so the whole clique must be emitted contiguously (and the stats must show
// the free eliminations happened).
func TestAMDMassElimination(t *testing.T) {
	const n, lo, hi = 12, 3, 9 // clique on vertices [3, 9)
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4)
	}
	for i := lo; i < hi; i++ {
		for j := i + 1; j < hi; j++ {
			coo.AddSym(i, j, -1)
		}
	}
	p, stats := amdOrder(coo.ToCSR())
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	if stats.massElim == 0 {
		t.Error("eliminating a clique performed no mass eliminations")
	}
	pos := map[int]int{}
	for idx, v := range p {
		pos[v] = idx
	}
	minPos, maxPos := n, -1
	for v := lo; v < hi; v++ {
		if pos[v] < minPos {
			minPos = pos[v]
		}
		if pos[v] > maxPos {
			maxPos = pos[v]
		}
	}
	if maxPos-minPos != hi-lo-1 {
		t.Errorf("clique members are not contiguous in the ordering: %v", p)
	}
}

// TestAMDSupervariableDetection pins the indistinguishable-node merge: the
// saddle multiplier rows couple disjoint runs of grid vertices, which leaves
// the grid full of twins once elimination starts. The stats must show
// supervariables forming, and the quality tests above already pin that the
// fill stays at least as good.
func TestAMDSupervariableDetection(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"saddle-20x20", sparse.SaddlePoisson2D(20, 20, 1e-2).A},
		{"poisson-24x24", sparse.Poisson2D(24, 24, 0.05).A},
	} {
		_, stats := amdOrder(tc.a)
		if stats.supervars == 0 {
			t.Errorf("%s: no supervariables detected", tc.name)
		}
	}
}

// TestAMDSupervariablesKeepQuality compares fill with and without the
// supervariable fast path engaged in spirit: the ordering must stay within
// the natural-order fill (already pinned above) and must still be exact on a
// matrix whose pattern makes every vertex a twin — a block-diagonal matrix of
// dense blocks must order with zero extra fill.
func TestAMDSupervariablesKeepQuality(t *testing.T) {
	const blocks, bs = 6, 5
	n := blocks * bs
	coo := sparse.NewCOO(n, n)
	for b := 0; b < blocks; b++ {
		for i := 0; i < bs; i++ {
			coo.Add(b*bs+i, b*bs+i, float64(bs))
			for j := i + 1; j < bs; j++ {
				coo.AddSym(b*bs+i, b*bs+j, -0.5)
			}
		}
	}
	// Dense blocks are already cliques: the factor's strictly-lower count per
	// block is bs·(bs-1)/2 no matter the order, so any extra fill is a bug.
	want := blocks * bs * (bs - 1) / 2
	if got := exactFill(coo.ToCSR(), OrderAMD); got != want {
		t.Errorf("block-diagonal AMD fill %d, want the clique minimum %d", got, want)
	}
}

func TestOrderAutoPolicy(t *testing.T) {
	// Bounded-degree grid stencil → RCM.
	grid := sparse.Poisson2D(24, 24, 0.05).A
	if got := resolveOrdering(grid, OrderAuto); got != OrderRCM {
		t.Errorf("OrderAuto on a 5-point grid resolved to %s, want rcm", got)
	}
	// A saddle pattern has nx-degree multiplier rows → AMD.
	saddle := sparse.SaddlePoisson2D(20, 20, 1e-2).A
	if got := resolveOrdering(saddle, OrderAuto); got != OrderAMD {
		t.Errorf("OrderAuto on a saddle pattern resolved to %s, want amd", got)
	}
	// Concrete orderings pass through untouched.
	for _, ord := range []Ordering{OrderNatural, OrderRCM, OrderAMD} {
		if got := resolveOrdering(saddle, ord); got != ord {
			t.Errorf("resolveOrdering(%s) = %s, want unchanged", ord, got)
		}
	}
	// The factorisations report the resolved ordering.
	chol, err := newCholesky(grid, OrderAuto)
	if err != nil {
		t.Fatal(err)
	}
	if chol.Ordering() != OrderRCM {
		t.Errorf("grid Cholesky resolved to %s, want rcm", chol.Ordering())
	}
	ldlt, err := newSupernodal(saddle, OrderAuto, ModeLDLT)
	if err != nil {
		t.Fatal(err)
	}
	if ldlt.Ordering() != OrderAMD {
		t.Errorf("saddle LDLT resolved to %s, want amd", ldlt.Ordering())
	}
}

func TestOrderingString(t *testing.T) {
	want := map[Ordering]string{
		OrderNatural: "natural", OrderRCM: "rcm", OrderAMD: "amd",
		OrderAuto: "auto", Ordering(99): "unknown",
	}
	for ord, s := range want {
		if ord.String() != s {
			t.Errorf("Ordering(%d).String() = %q, want %q", int(ord), ord.String(), s)
		}
	}
}

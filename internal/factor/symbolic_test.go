package factor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/sparse"
)

// newCholesky is Analyze followed by the scalar numeric phase: the one-call
// form the tests build a sparse Cholesky factor with.
func newCholesky(a *sparse.CSR, order Ordering) (*Cholesky, error) {
	an, err := Analyze(a, order)
	if err != nil {
		return nil, err
	}
	return an.NewCholesky(a)
}

// newSupernodal is Analyze followed by the supernodal numeric phase.
func newSupernodal(a *sparse.CSR, order Ordering, mode SupernodalMode) (*Supernodal, error) {
	an, err := Analyze(a, order)
	if err != nil {
		return nil, err
	}
	return an.NewSupernodal(a, mode)
}

// flattenOracle is the oracle's supernodal structure in the layout the
// numeric phase reads: update lists concatenated in supernode order, flops
// summed in the order NewSupernodal summed them.
func flattenOracle(so *snSymOracle) *snSym {
	sym := &snSym{ns: so.ns, sfirst: so.sfirst, rx: so.rx, rowind: so.rowind, px: so.px, nnzStored: so.nnzStored}
	sym.updPtr = make([]int32, so.ns+1)
	for s, u := range so.upd {
		sym.upd = append(sym.upd, u...)
		sym.updPtr[s+1] = int32(len(sym.upd))
	}
	for _, f := range so.flops {
		sym.flops += f
	}
	for s := 0; s < so.ns; s++ {
		sym.maxLd = max(sym.maxLd, int(so.rx[s+1]-so.rx[s]))
	}
	return sym
}

// newSupernodalOracle factorises a as NewSupernodal did before Analyze: on
// the oracle's symbolic phase and the twice-permuted matrix it formed.
func newSupernodalOracle(a *sparse.CSR, order Ordering, mode SupernodalMode) (*Supernodal, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("factor: supernodal factorisation of non-square %dx%d matrix", a.Rows(), a.Cols())
	}
	c, perm, so, resolved := snPrepareOracle(a, order)
	sym := flattenOracle(so)
	n := a.Rows()
	s := &Supernodal{n: n, mode: mode, order: resolved,
		ns: sym.ns, sfirst: sym.sfirst, rx: sym.rx, rowind: sym.rowind, px: sym.px,
		nnzStored: sym.nnzStored, flopsEst: sym.flops}
	s.panel = make([]float64, s.px[s.ns])
	if mode == ModeLDLT {
		s.d = make([]float64, n)
	}
	maxLd := sym.maxLd
	s.scratch.New = func() any {
		return &snSolveScratch{w: sparse.NewVec(n), g: make([]float64, maxLd)}
	}
	// c is already permuted: the numeric phase reads it as it is.
	if err := s.factorAll(c, nil, sym); err != nil {
		return nil, err
	}
	s.perm = perm
	return s, nil
}

func int32sOf(p []int) []int32 {
	out := make([]int32, len(p))
	for i, v := range p {
		out[i] = int32(v)
	}
	return out
}

// sameBits reports whether x and y hold the same float64s bit for bit.
func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// checkAnalysisMatchesOracle compares Analyze(a, ord) with the oracle's
// symbolic phase — permutations, elimination trees, postorder, column
// counts, supernode partition, update schedule, NNZL and flops — and every
// factor built on it with the oracle's factor: the scalar Cholesky's arrays,
// the supernodal panels and pivots, and SolveTo and PortsOnly output on
// seeded right-hand sides, all bit for bit.
func checkAnalysisMatchesOracle(t *testing.T, name string, a *sparse.CSR, ord Ordering, ports int, seed int64) {
	t.Helper()
	name = fmt.Sprintf("%s/%s", name, ord)
	an, err := Analyze(a, ord)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	n := a.Rows()
	c, perm, so, resolved := snPrepareOracle(a, ord)
	if an.order != resolved {
		t.Fatalf("%s: resolved ordering %s, oracle %s", name, an.order, resolved)
	}
	if !slices.Equal(an.perm, perm) || (an.perm == nil) != (perm == nil) {
		t.Fatalf("%s: permutation differs from the oracle's", name)
	}
	fill := fillReducingOracle(a, resolved)
	if n <= 1 {
		fill = nil
	}
	if !slices.Equal(an.fill, fill) {
		t.Fatalf("%s: fill-reducing permutation differs from the oracle's", name)
	}
	cf := a
	if fill != nil {
		cf = a.PermuteSym(fill)
	}
	parent := etreeOracle(cf)
	if !slices.Equal(an.parent, int32sOf(parent)) {
		t.Fatalf("%s: elimination tree differs from the oracle's", name)
	}
	post := postorderOracle(parent)
	if Perm(post).IsIdentity() != (an.post == nil) || an.post != nil && !slices.Equal(an.post, int32sOf(post)) {
		t.Fatalf("%s: postorder differs from the oracle's", name)
	}
	if !slices.Equal(an.parentPost, int32sOf(so.parent)) {
		t.Fatalf("%s: postordered elimination tree differs from the oracle's", name)
	}
	if !slices.Equal(an.count, int32sOf(snColCountsOracle(c, so.parent))) {
		t.Fatalf("%s: column counts differ from the oracle's", name)
	}
	sym, want := an.supernodes(), flattenOracle(so)
	if sym.ns != want.ns || !slices.Equal(sym.sfirst, want.sfirst) || !slices.Equal(sym.rx, want.rx) ||
		!slices.Equal(sym.rowind, want.rowind) || !slices.Equal(sym.px, want.px) || sym.maxLd != want.maxLd {
		t.Fatalf("%s: supernode partition differs from the oracle's", name)
	}
	if !slices.Equal(sym.updPtr, want.updPtr) || !slices.Equal(sym.upd, want.upd) {
		t.Fatalf("%s: update schedule differs from the oracle's", name)
	}
	if sym.nnzStored != want.nnzStored || math.Float64bits(sym.flops) != math.Float64bits(want.flops) {
		t.Fatalf("%s: NNZL/flops %d/%g, oracle %d/%g", name, sym.nnzStored, sym.flops, want.nnzStored, want.flops)
	}

	rng := rand.New(rand.NewSource(seed))
	rhs := make([]sparse.Vec, 3)
	for i := range rhs {
		rhs[i] = sparse.NewVec(n)
		for j := range rhs[i] {
			rhs[i][j] = rng.NormFloat64()
		}
	}

	// The scalar Cholesky: the oracle's ereach count pass sized the same L.
	chol, err := an.NewCholesky(a)
	cholO, errO := newCholeskyOracle(a, ord)
	if (err == nil) != (errO == nil) || err != nil && err.Error() != errO.Error() {
		t.Fatalf("%s: sparse Cholesky error %v, oracle %v", name, err, errO)
	}
	if err == nil {
		if !slices.Equal(chol.perm, cholO.perm) || !slices.Equal(chol.colPtr, cholO.colPtr) ||
			!slices.Equal(chol.rowIdx, cholO.rowIdx) || !sameBits(chol.vals, cholO.vals) {
			t.Fatalf("%s: sparse Cholesky factor differs from the oracle's", name)
		}
		for _, b := range rhs {
			if !sameBits(chol.Solve(b), cholO.Solve(b)) {
				t.Fatalf("%s: sparse Cholesky SolveTo differs from the oracle's", name)
			}
		}
	}

	for _, mode := range []SupernodalMode{ModeCholesky, ModeLDLT} {
		s, err := an.NewSupernodal(a, mode)
		ref, errO := newSupernodalOracle(a, ord, mode)
		if (err == nil) != (errO == nil) || err != nil && err.Error() != errO.Error() {
			t.Fatalf("%s/%s: supernodal error %v, oracle %v", name, mode, err, errO)
		}
		if err != nil {
			continue
		}
		if !sameBits(s.panel, ref.panel) || !sameBits(s.d, ref.d) {
			t.Fatalf("%s/%s: supernodal factor differs from the oracle's", name, mode)
		}
		for _, b := range rhs {
			if !sameBits(s.Solve(b), ref.Solve(b)) {
				t.Fatalf("%s/%s: supernodal SolveTo differs from the oracle's", name, mode)
			}
		}
		if ports == 0 {
			continue
		}
		s.markClosure(ports)
		ref.markClosure(ports)
		base := rhs[0]
		po, poRef := s.PortsOnly(base), ref.PortsOnly(base)
		u, uRef := sparse.NewVec(ports), sparse.NewVec(ports)
		for range 2 {
			b := base.Clone()
			for j := 0; j < ports; j++ {
				b[j] = rng.NormFloat64()
			}
			po.SolveTo(u, b)
			poRef.SolveTo(uRef, b)
			if !sameBits(u, uRef) {
				t.Fatalf("%s/%s: PortsOnly differs from the oracle's", name, mode)
			}
		}
	}
}

// analysisCases are the patterns TestAnalyzeMatchesOracle runs on, with a
// port count each: random patterns across sizes and densities, saddle and
// many-component patterns, and the parts of the three gated lanes with
// their own ports.
func analysisCases(tb testing.TB) []struct {
	patternCase
	ports int
} {
	var cases []struct {
		patternCase
		ports int
	}
	add := func(name string, a *sparse.CSR, ports int) {
		cases = append(cases, struct {
			patternCase
			ports int
		}{patternCase{name, a}, ports})
	}
	seed := int64(100)
	for _, n := range []int{1, 2, 5, 30, 120, 400} {
		for _, deg := range []float64{1, 4, 12} {
			add(fmt.Sprintf("random-%d-deg%g", n, deg), randomPattern(n, deg, seed), n/4)
			seed++
		}
	}
	add("saddle-12", sparse.SaddlePoisson2D(12, 12, 1e-2).A, 12)
	add("poisson3d-6", sparse.Poisson3D(6, 6, 6, 0.05).A, 36)
	add("components-300", componentsPattern(300, 4), 30)
	for name, a := range irregularTestMatrices() {
		add(name, a, a.Rows()/10)
	}
	for _, lane := range []struct {
		spec           string
		px, py, nparts int
	}{
		{"grid:rows=13,cols=13,seed=169", 3, 3, 0},
		{"grid:rows=65,cols=65,seed=7", 2, 2, 0},
		{"spanner:n=1000,k=6,seed=1", 0, 0, 4},
	} {
		for i, p := range laneParts(tb, lane.spec, lane.px, lane.py, lane.nparts) {
			add(fmt.Sprintf("%s/part%d", lane.spec, i), p.a, p.ports)
		}
	}
	return cases
}

// TestAnalyzeMatchesOracle: one analysis per pattern gives the symbolic
// structures and, under every ordering and in both supernodal modes, the
// factor and solve bytes of the per-factorisation symbolic phase it
// replaced.
func TestAnalyzeMatchesOracle(t *testing.T) {
	for i, tc := range analysisCases(t) {
		for _, ord := range []Ordering{OrderAuto, OrderNatural, OrderRCM, OrderAMD, OrderND} {
			checkAnalysisMatchesOracle(t, tc.name, tc.a, ord, tc.ports, int64(i))
		}
	}
}

// FuzzAnalyze: on any symmetric pattern, under every ordering, the analysis
// and the factors on it equal the oracle's.
func FuzzAnalyze(f *testing.F) {
	f.Add([]byte{0}, uint8(0))
	f.Add([]byte{9, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8}, uint8(3))
	f.Add([]byte{40, 0, 1, 0, 2, 0, 3, 0, 4, 5, 6, 7, 8, 9, 10, 30, 31, 31, 32, 32, 30}, uint8(10))
	f.Add([]byte{63, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27}, uint8(63))
	f.Fuzz(func(t *testing.T, data []byte, ports uint8) {
		a := fuzzPattern(data)
		k := int(ports) % (a.Rows() + 1)
		for _, ord := range []Ordering{OrderAuto, OrderNatural, OrderRCM, OrderAMD, OrderND} {
			checkAnalysisMatchesOracle(t, "fuzz", a, ord, k, int64(len(data)))
		}
	})
}

// TestAnalysisServesShiftedMatrices: a factor on the analysis of A accepts
// A + σI (also when A stores no diagonal, so the shift adds entries) and
// equals a factor analysed from the shifted matrix itself; a matrix whose
// off-diagonal pattern differs is refused.
func TestAnalysisServesShiftedMatrices(t *testing.T) {
	a := randomPattern(60, 4, 7)
	coo := sparse.NewCOO(60, 60)
	a.Each(func(i, j int, v float64) {
		if i != j {
			coo.Add(i, j, v)
		}
	})
	bare := coo.ToCSR()
	for _, m := range []*sparse.CSR{a, bare} {
		an, err := Analyze(m, OrderAMD)
		if err != nil {
			t.Fatal(err)
		}
		d := sparse.NewVec(60)
		d.Fill(30)
		shifted := m.AddDiag(d)
		got, err := an.NewSupernodal(shifted, ModeCholesky)
		if err != nil {
			t.Fatal(err)
		}
		want, err := newSupernodal(shifted, OrderAMD, ModeCholesky)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got.panel, want.panel) {
			t.Error("the factor on A's analysis differs from the one on A + σI's own")
		}
	}
	an, err := Analyze(a, OrderAMD)
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []*sparse.CSR{randomPattern(60, 4, 8), randomPattern(61, 4, 7)} {
		if _, err := an.NewSupernodal(other, ModeLDLT); err == nil {
			t.Error("a matrix of another pattern factorised on the analysis")
		}
		if _, err := an.NewCholesky(other); err == nil {
			t.Error("a matrix of another pattern factorised on the analysis")
		}
	}
	if _, err := (Settings{Ordering: OrderRCM}).NewPortsOn(an, a, 0); err == nil {
		t.Error("NewPortsOn took an analysis under another ordering")
	}
}

// TestAnalysisIsReentrant: goroutines factorising on one fresh analysis —
// the first of them fills its supernode partition — all build the factors a
// sequential caller builds, bit for bit. CI runs the package under -race.
func TestAnalysisIsReentrant(t *testing.T) {
	a := randomPattern(300, 6, 3)
	want, err := newSupernodal(a, OrderAMD, ModeCholesky)
	if err != nil {
		t.Fatal(err)
	}
	wantChol, err := newCholesky(a, OrderAMD)
	if err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(a, OrderAMD)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := an.NewSupernodal(a, ModeCholesky)
			if err != nil || !sameBits(s.panel, want.panel) {
				errs <- fmt.Sprintf("supernodal factor on a shared analysis differs (err %v)", err)
			}
			c, err := an.NewCholesky(a)
			if err != nil || !sameBits(c.vals, wantChol.vals) {
				errs <- fmt.Sprintf("sparse Cholesky factor on a shared analysis differs (err %v)", err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

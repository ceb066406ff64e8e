package factor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sparse"
)

// The supernodal sweeps as they were before they were blocked — one column
// per pass over the panel, one accumulator per column — kept as the oracle
// the blocked sweeps must match byte for byte. The properties below run on
// every target, so they also hold where the golden hashes of
// TestSupernodalDeterministicAcrossGOMAXPROCS are skipped (a target that
// fuses multiply-adds fuses the same statements in both).

// scalarForward is forwardSupernode one column at a time. It returns how
// many columns it skipped for a zero value.
func scalarForward(s *Supernodal, sn int, w sparse.Vec, g []float64) (skipped int) {
	f := int(s.sfirst[sn])
	width := int(s.sfirst[sn+1]) - f
	ld := int(s.rx[sn+1] - s.rx[sn])
	panel := s.panel[s.px[sn]:s.px[sn+1]]
	rows := s.rowind[s.rx[sn]:s.rx[sn+1]]
	unit := s.mode == ModeLDLT
	g = g[:ld-width]
	for i := range g {
		g[i] = 0
	}
	for jj := 0; jj < width; jj++ {
		col := panel[jj*ld:]
		v := w[f+jj]
		if !unit {
			v /= col[jj]
			w[f+jj] = v
		}
		if v == 0 {
			skipped++
			continue
		}
		for i := jj + 1; i < width; i++ {
			w[f+i] -= col[i] * v
		}
		for i := width; i < ld; i++ {
			g[i-width] += col[i] * v
		}
	}
	for i := width; i < ld; i++ {
		w[rows[i]] -= g[i-width]
	}
	return skipped
}

// scalarBackward is backwardSupernode one column at a time.
func scalarBackward(s *Supernodal, sn int, w sparse.Vec, g []float64) {
	f := int(s.sfirst[sn])
	width := int(s.sfirst[sn+1]) - f
	ld := int(s.rx[sn+1] - s.rx[sn])
	panel := s.panel[s.px[sn]:s.px[sn+1]]
	rows := s.rowind[s.rx[sn]:s.rx[sn+1]]
	unit := s.mode == ModeLDLT
	if m := ld - width; m > 0 {
		gb := g[:m]
		for i := 0; i < m; i++ {
			gb[i] = w[rows[width+i]]
		}
		for jj := 0; jj < width; jj++ {
			col := panel[jj*ld+width:]
			sum := 0.0
			for i := 0; i < m; i++ {
				sum += col[i] * gb[i]
			}
			w[f+jj] -= sum
		}
	}
	for jj := width - 1; jj >= 0; jj-- {
		col := panel[jj*ld:]
		sum := w[f+jj]
		for i := jj + 1; i < width; i++ {
			sum -= col[i] * w[f+i]
		}
		if !unit {
			sum /= col[jj]
		}
		w[f+jj] = sum
	}
}

// scalarSolve is SolveTo on the scalar sweeps: A⁻¹b, and the number of
// columns the forward sweep skipped for a zero value.
func scalarSolve(s *Supernodal, b sparse.Vec) (sparse.Vec, int) {
	w, g := sparse.NewVec(s.n), make([]float64, s.n)
	for i := range w {
		if s.perm != nil {
			w[i] = b[s.perm[i]]
		} else {
			w[i] = b[i]
		}
	}
	skipped := 0
	for sn := 0; sn < s.ns; sn++ {
		skipped += scalarForward(s, sn, w, g)
	}
	if s.mode == ModeLDLT {
		for j := range w {
			w[j] /= s.d[j]
		}
	}
	for sn := s.ns - 1; sn >= 0; sn-- {
		scalarBackward(s, sn, w, g)
	}
	x := sparse.NewVec(s.n)
	for i := range w {
		if s.perm != nil {
			x[s.perm[i]] = w[i]
		} else {
			x[i] = w[i]
		}
	}
	return x, skipped
}

// signedZero is +0 or −0 at random.
func signedZero(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return math.Copysign(0, -1)
	}
	return 0
}

// synthSupernodal builds a supernodal factor directly, with no matrix and no
// factorisation behind it, whose supernodes have the given widths in order.
// Each supernode's parent is a random later one (or none); its rows below the
// diagonal block are its parent's first column and a random subset of its
// ancestors' other columns, so every row lies on its elimination-tree path,
// which is all markClosure and PortsOnly rely on. The panel entries the
// sweeps read are random, a quarter of them exact zeros of either sign;
// those they must not read — above the diagonal, and the diagonal itself in
// LDLᵀ mode — are NaN. With shuffle the unknowns are randomly permuted.
func synthSupernodal(rng *rand.Rand, widths []int, mode SupernodalMode, shuffle bool) *Supernodal {
	ns := len(widths)
	s := &Supernodal{mode: mode, ns: ns, sfirst: make([]int32, ns+1), rx: make([]int32, ns+1), px: make([]int, ns+1)}
	for sn, wd := range widths {
		s.sfirst[sn+1] = s.sfirst[sn] + int32(wd)
	}
	s.n = int(s.sfirst[ns])
	parent := make([]int, ns)
	for sn := range parent {
		parent[sn] = -1
		if sn+1 < ns && rng.Intn(6) > 0 {
			parent[sn] = sn + 1 + rng.Intn(ns-sn-1)
		}
	}
	maxLd := 0
	for sn, wd := range widths {
		for j := s.sfirst[sn]; j < s.sfirst[sn+1]; j++ {
			s.rowind = append(s.rowind, j)
		}
		for a := parent[sn]; a >= 0; a = parent[a] {
			for j := s.sfirst[a]; j < s.sfirst[a+1]; j++ {
				if a == parent[sn] && j == s.sfirst[a] || rng.Intn(2) == 0 {
					s.rowind = append(s.rowind, j)
				}
			}
		}
		s.rx[sn+1] = int32(len(s.rowind))
		ld := int(s.rx[sn+1] - s.rx[sn])
		maxLd = max(maxLd, ld)
		s.px[sn+1] = s.px[sn] + ld*wd
		for jj := 0; jj < wd; jj++ {
			for i := 0; i < ld; i++ {
				var v float64
				switch {
				case i < jj, i == jj && mode == ModeLDLT:
					v = math.NaN()
				case i == jj:
					v = 1 + rng.Float64()
				case rng.Intn(4) == 0:
					v = signedZero(rng)
				default:
					v = 0.3 * rng.NormFloat64()
				}
				s.panel = append(s.panel, v)
			}
		}
	}
	if mode == ModeLDLT {
		s.d = make([]float64, s.n)
		for j := range s.d {
			s.d[j] = math.Copysign(0.5+rng.Float64(), rng.Float64()-0.5)
		}
	}
	if shuffle {
		s.perm = Perm(rng.Perm(s.n))
	}
	s.scratch.New = func() any {
		return &snSolveScratch{w: sparse.NewVec(s.n), g: make([]float64, maxLd)}
	}
	return s
}

// sparseRHS is a random right-hand side for s with exact zeros of either
// sign: each supernode's columns are, at random, all zero, a third zero, or
// none zero, which makes whole runs of the forward sweep's values zero.
func sparseRHS(rng *rand.Rand, s *Supernodal) sparse.Vec {
	b := sparse.NewVec(s.n)
	for sn := 0; sn < s.ns; sn++ {
		mode := rng.Intn(3)
		for j := int(s.sfirst[sn]); j < int(s.sfirst[sn+1]); j++ {
			old := j
			if s.perm != nil {
				old = s.perm[j]
			}
			if mode == 0 || mode == 1 && rng.Intn(3) == 0 {
				b[old] = signedZero(rng)
			} else {
				b[old] = rng.NormFloat64()
			}
		}
	}
	return b
}

// firstDiff is the first index whose bits differ between x and want, or -1.
func firstDiff(x, want sparse.Vec) int {
	for i := range want {
		if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// sweepsMatchScalar marks the first k unknowns of s as ports and checks, for
// base and for base with its ports redrawn (zeros included), that SolveTo
// writes the scalar oracle's bytes and the ports-only solve — its cache
// filled from base — the oracle's port bytes. It returns how many zero
// values the oracle's forward sweeps skipped.
func sweepsMatchScalar(t *testing.T, rng *rand.Rand, s *Supernodal, k int, base sparse.Vec) (skipped int) {
	t.Helper()
	s.markClosure(k)
	po := s.PortsOnly(base)
	x, u := sparse.NewVec(s.n), sparse.NewVec(k)
	b := base.Clone()
	for round := 0; round < 3; round++ {
		want, sk := scalarSolve(s, b)
		skipped += sk
		s.SolveTo(x, b)
		if i := firstDiff(x, want); i >= 0 {
			t.Fatalf("k=%d round %d: SolveTo x[%d] is %x, the scalar sweeps' %x", k, round, i, math.Float64bits(x[i]), math.Float64bits(want[i]))
		}
		po.SolveTo(u, b)
		if p := firstDiff(u, want[:k]); p >= 0 {
			t.Fatalf("k=%d round %d: ports-only port %d is %x, the scalar sweeps' %x", k, round, p, math.Float64bits(u[p]), math.Float64bits(want[p]))
		}
		for p := 0; p < k; p++ {
			if rng.Intn(3) == 0 {
				b[p] = signedZero(rng)
			} else {
				b[p] = rng.NormFloat64()
			}
		}
	}
	return skipped
}

// TestBlockedSweepsMatchScalar: the blocked sweeps write exactly the bytes
// of the one-column sweeps they replaced, through SolveTo and through the
// ports-only solve (cache fill included), in Cholesky and LDLᵀ mode — on
// synthetic factors with supernodes 1 to 20 columns wide (every remainder of
// a four-column pass) and with mixed widths, with right-hand sides holding
// runs of +0 and −0 that the forward sweep must skip, and on real
// factorisations under every ordering.
func TestBlockedSweepsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var shapes [][]int // nine supernodes of each width, then all twenty mixed
	for width := 1; width <= 20; width++ {
		shapes = append(shapes, slices.Repeat([]int{width}, 9))
	}
	mixed := rng.Perm(20)
	for i := range mixed {
		mixed[i]++
	}
	shapes = append(shapes, mixed)
	for _, mode := range []SupernodalMode{ModeCholesky, ModeLDLT} {
		skipped := 0
		for i, widths := range shapes {
			s := synthSupernodal(rng, widths, mode, i%2 == 1)
			t.Run(fmt.Sprintf("%v/widths=%v", mode, widths[:min(len(widths), 3)]), func(t *testing.T) {
				for _, k := range []int{1, 1 + rng.Intn(s.n), s.n} {
					skipped += sweepsMatchScalar(t, rng, s, k, sparseRHS(rng, s))
				}
			})
		}
		if skipped == 0 {
			t.Errorf("%v: no forward sweep met a zero value; the skip went untested", mode)
		}
	}
	for _, tc := range closureCases() {
		for _, ord := range []Ordering{OrderNatural, OrderRCM, OrderAMD, OrderND} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, ord), func(t *testing.T) {
				s, err := Settings{Backend: SparseSupernodal, Ordering: ord}.New(tc.a)
				if err != nil {
					t.Fatal(err)
				}
				sn := s.(*Supernodal)
				sweepsMatchScalar(t, rng, sn, tc.k, sparseRHS(rng, sn))
			})
		}
	}
}

// FuzzSupernodalSweeps digs for a factor or right-hand side on which the
// blocked sweeps and the scalar oracle part by one bit: a real factorisation
// of a random sparse SPD matrix (Cholesky) or of a random quasi-definite one
// (LDLᵀ, randomQuasiDefinite) under any ordering, or a synthetic factor of random widths in either
// mode, with a random port count and zeros of either sign in the right-hand
// side.
func FuzzSupernodalSweeps(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(10), uint8(0))
	f.Add(int64(2), uint8(90), uint8(3), uint8(1))
	f.Add(int64(3), uint8(30), uint8(40), uint8(2))
	f.Add(int64(4), uint8(12), uint8(0), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, size, density, kind uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(size)%120
		dens := float64(density%64) / 640
		ord := Ordering(1 + int(kind/4)%4)
		var s *Supernodal
		var err error
		switch kind % 4 {
		case 0:
			s, err = newSupernodal(shuffled(sparse.RandomSPD(n, dens, seed).A, seed), ord, ModeCholesky)
		case 1:
			s, err = newSupernodal(shuffled(randomQuasiDefinite(n, 1+n/4, seed).A, seed), ord, ModeLDLT)
			if err != nil {
				t.Skip(err) // a pivot under the relative threshold: nothing to solve with
			}
		default:
			widths := make([]int, 1+n/8)
			for i := range widths {
				widths[i] = 1 + rng.Intn(20)
			}
			s = synthSupernodal(rng, widths, SupernodalMode(kind%4-2), kind&16 != 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		sweepsMatchScalar(t, rng, s, 1+rng.Intn(s.n), sparseRHS(rng, s))
	})
}

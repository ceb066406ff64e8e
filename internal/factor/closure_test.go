package factor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

// closureCase is one matrix the ports-only solve is checked on, with its
// first k unknowns as ports.
type closureCase struct {
	name string
	a    *sparse.CSR
	k    int
}

// shuffled relabels a's unknowns by a seeded random permutation, so that
// "the first k unknowns" are k scattered vertices instead of one edge of a
// grid.
func shuffled(a *sparse.CSR, seed int64) *sparse.CSR {
	return a.PermuteSym(rand.New(rand.NewSource(seed)).Perm(a.Rows()))
}

// blockDiag is the disconnected matrix diag(a, b): its elimination tree is a
// forest with a root per component at least.
func blockDiag(a, b *sparse.CSR) *sparse.CSR {
	n := a.Rows()
	coo := sparse.NewCOO(n+b.Rows(), n+b.Rows())
	a.Each(func(i, j int, v float64) { coo.Add(i, j, v) })
	b.Each(func(i, j int, v float64) { coo.Add(n+i, n+j, v) })
	return coo.ToCSR()
}

// closureCases crosses the SPD and saddle matrices — Cholesky and LDLᵀ mode
// — with a port count of 1, a seeded random one and n, ports on a grid edge
// and scattered.
func closureCases() []closureCase {
	rng := rand.New(rand.NewSource(35))
	mats := []struct {
		name string
		a    *sparse.CSR
	}{
		{"grid", sparse.Poisson2D(17, 13, 0.05).A},
		{"grid-shuffled", shuffled(sparse.Poisson2D(17, 13, 0.05).A, 3)},
		{"random-spd", sparse.RandomSPD(90, 0.04, 5).A},
		{"saddle", sparse.SaddlePoisson2D(12, 9, 1e-2).A},
		{"saddle-shuffled", shuffled(sparse.SaddlePoisson2D(12, 9, 1e-2).A, 4)},
		{"forest", blockDiag(sparse.Poisson2D(9, 8, 0.05).A, shuffled(sparse.RandomSPD(40, 0.08, 6).A, 7))},
		{"forest-shuffled", shuffled(blockDiag(sparse.Poisson2D(9, 8, 0.05).A, sparse.RandomSPD(40, 0.08, 6).A), 8)},
	}
	var cases []closureCase
	for _, m := range mats {
		n := m.a.Rows()
		for _, k := range []int{1, 1 + rng.Intn(n/3), n} {
			cases = append(cases, closureCase{fmt.Sprintf("%s/k=%d", m.name, k), m.a, k})
		}
	}
	return cases
}

// portsOnlyOf factorises a with sparse-supernodal under ord, told its first k
// unknowns are ports, and returns the factor and its ports-only solve for
// base.
func portsOnlyOf(t testing.TB, a *sparse.CSR, ord Ordering, k int, base sparse.Vec) (*Supernodal, *PortsOnly) {
	t.Helper()
	s, err := Settings{Backend: SparseSupernodal, Ordering: ord}.NewPorts(a, k)
	if err != nil {
		t.Fatal(err)
	}
	sn := s.(*Supernodal)
	po := sn.PortsOnly(base)
	if po == nil {
		t.Fatalf("a supernodal factor told %d ports offers no ports-only solve", k)
	}
	return sn, po
}

// samePorts reports the first port whose bits differ between u and the first
// len(u) entries of x, or -1.
func samePorts(u, x sparse.Vec) int {
	for p := range u {
		if math.Float64bits(u[p]) != math.Float64bits(x[p]) {
			return p
		}
	}
	return -1
}

// TestPortsOnlyIsSolveToBitForBit is the property the ports-only path rests
// on: under every ordering, in Cholesky and LDLᵀ mode, for one port, a random
// number and all of them, on connected matrices and on a forest, with ports
// on a grid edge and scattered, the ports-only solve of any right-hand side
// that agrees with the base outside the ports — the base itself, and the base
// under repeated random port perturbations — writes exactly the bytes
// SolveTo writes to the ports. A factor told no ports offers no ports-only
// solve.
func TestPortsOnlyIsSolveToBitForBit(t *testing.T) {
	s, err := Settings{Backend: SparseSupernodal}.New(sparse.Poisson2D(6, 6, 0.05).A)
	if err != nil {
		t.Fatal(err)
	}
	if po := s.(*Supernodal).PortsOnly(sparse.NewVec(36)); po != nil {
		t.Error("a factor told no ports offers a ports-only solve")
	}
	for _, tc := range closureCases() {
		for _, ord := range []Ordering{OrderNatural, OrderRCM, OrderAMD, OrderND} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, ord), func(t *testing.T) {
				n := tc.a.Rows()
				base := sparse.RandomVec(n, int64(n))
				sn, po := portsOnlyOf(t, tc.a, ord, tc.k, base)
				wantMode := ModeCholesky
				if !hasPosDiag(tc.a) {
					wantMode = ModeLDLT
				}
				if sn.Mode() != wantMode {
					t.Fatalf("factorised in %v mode, want %v", sn.Mode(), wantMode)
				}
				rng := rand.New(rand.NewSource(int64(n*7 + tc.k)))
				b := base.Clone()
				x, u := sparse.NewVec(n), sparse.NewVec(tc.k)
				for round := 0; round < 6; round++ {
					sn.SolveTo(x, b)
					po.SolveTo(u, b)
					if p := samePorts(u, x); p >= 0 {
						t.Fatalf("round %d: port %d is %x, SolveTo's is %x", round, p, math.Float64bits(u[p]), math.Float64bits(x[p]))
					}
					for p := 0; p < tc.k; p++ {
						if rng.Intn(2) == 0 {
							b[p] = base[p] + 10*rng.NormFloat64()
						}
					}
				}
			})
		}
	}
}

// FuzzPortsOnly digs for a right-hand side, port count or sparsity pattern on
// which the ports-only solve and SolveTo part by one bit: the fuzzer draws a
// random sparse SPD pattern (seed, size, density), the ordering, k and the
// port values.
func FuzzPortsOnly(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(10), uint8(3), uint8(5), int64(2))
	f.Add(int64(2), uint8(120), uint8(2), uint8(2), uint8(1), int64(3))
	f.Add(int64(3), uint8(7), uint8(60), uint8(0), uint8(7), int64(4))
	f.Fuzz(func(t *testing.T, seed int64, size, density, ord, k uint8, portSeed int64) {
		n := 1 + int(size)%160
		a := shuffled(sparse.RandomSPD(n, float64(density%64)/640, seed).A, seed)
		ports := 1 + int(k)%n
		base := sparse.RandomVec(n, seed)
		sn, po := portsOnlyOf(t, a, Ordering(1+int(ord)%4), ports, base)
		b := base.Clone()
		copy(b, sparse.RandomVec(ports, portSeed))
		x, u := sparse.NewVec(n), sparse.NewVec(ports)
		sn.SolveTo(x, b)
		po.SolveTo(u, b)
		if p := samePorts(u, x); p >= 0 {
			t.Fatalf("n=%d k=%d: port %d is %x, SolveTo's is %x", n, ports, p, math.Float64bits(u[p]), math.Float64bits(x[p]))
		}
	})
}

package factor

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sparse"
)

// portCases are the (n, k) shapes the port-solver properties run over: k = 0
// (nothing condensed), k = n (nothing to condense onto), the paper's ring9
// blocks (n ≤ 27 with 8–17 ports) and the degenerate 1×1 block.
func portCases() [][2]int {
	cases := [][2]int{{1, 0}, {1, 1}, {27, 8}, {27, 17}, {24, 24}}
	for k := 0; k <= 6; k++ {
		cases = append(cases, [2]int{6, k})
	}
	return cases
}

// relDiff is max|x − want| relative to max|want|.
func relDiff(x, want sparse.Vec) float64 {
	scale := want.NormInf()
	if scale == 0 {
		scale = 1
	}
	return x.MaxAbsDiff(want) / scale
}

// TestSolvePortsIsThePortBlockOfTheInverse: on seeded random SPD blocks with
// k from 0 to n, the dense-cholesky factor NewPorts builds is a PortSolver
// whose SolvePorts(u, d) is (A⁻¹)_PP·d — the leading k entries of A⁻¹·[d; 0]
// by an independent LU factorisation — and whose SolveTo, rotation and all,
// is still A⁻¹ in the caller's order, with x aliasing b.
func TestSolvePortsIsThePortBlockOfTheInverse(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, nk := range portCases() {
			n, k := nk[0], nk[1]
			a := sparse.RandomSPD(n, 0.3, seed).A
			s, err := Settings{}.NewPorts(a, k)
			if err != nil {
				t.Fatalf("seed %d n=%d k=%d: %v", seed, n, k, err)
			}
			ps, ok := s.(PortSolver)
			if !ok || s.Backend() != DenseCholesky {
				t.Fatalf("seed %d n=%d k=%d: auto built %q (%T), want a dense-cholesky PortSolver", seed, n, k, s.Backend(), s)
			}
			ref, err := New(DenseLU, a)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed*100 + int64(n*31+k)))
			for round := 0; round < 4; round++ {
				b := sparse.NewVec(n)
				for i := range b {
					b[i] = rng.NormFloat64()
				}
				want := Solve(ref, b)
				x := b.Clone()
				s.SolveTo(x, x)
				if d := relDiff(x, want); d > 1e-12 {
					t.Errorf("seed %d n=%d k=%d: SolveTo off the LU solve by %.3g relative", seed, n, k, d)
				}

				d := sparse.NewVec(n)
				copy(d, b[:k])
				want = Solve(ref, d)[:k]
				u := d[:k].Clone()
				ps.SolvePorts(u, u)
				if diff := relDiff(u, want); diff > 1e-12 {
					t.Errorf("seed %d n=%d k=%d: SolvePorts off (A⁻¹)_PP·d by %.3g relative", seed, n, k, diff)
				}
			}
		}
	}
}

// TestNewPortsFallsBackToAFullSolver: a symmetric indefinite block has no
// Cholesky factor, so auto's dense path ends at dense-lu, which is not a
// PortSolver — and still solves. The sparse backends are no PortSolver
// either (the supernodal one marks the ports' closure instead).
func TestNewPortsFallsBackToAFullSolver(t *testing.T) {
	indefinite := sparse.NewCSRFromDense([][]float64{
		{2, 1, 0},
		{1, -3, 1},
		{0, 1, 2},
	}, 0)
	s, err := Settings{}.NewPorts(indefinite, 2)
	if err != nil {
		t.Fatalf("auto on an indefinite block: %v", err)
	}
	if _, ok := s.(PortSolver); ok || s.Backend() != DenseLU {
		t.Errorf("an indefinite block was factorised by %q (%T), want the dense-lu fallback and no port solver", s.Backend(), s)
	}
	b := sparse.Vec{1, -2, 3}
	if r := indefinite.Residual(Solve(s, b), b).NormInf(); r > 1e-12 {
		t.Errorf("dense-lu fallback: residual %g", r)
	}

	spd := sparse.Poisson2D(6, 6, 0.05).A
	for _, backend := range []string{SparseCholesky, SparseSupernodal, DenseLU} {
		s, err := Settings{Backend: backend}.NewPorts(spd, 5)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if _, ok := s.(PortSolver); ok {
			t.Errorf("%s claims a port factor", backend)
		}
	}
	for _, k := range []int{-1, 37} {
		if _, err := (Settings{}).NewPorts(spd, k); err == nil {
			t.Errorf("NewPorts accepted %d ports in a system of 36 unknowns", k)
		}
	}
}

// TestPortFactorIsReentrant: one port factor serves concurrent SolvePorts and
// SolveTo calls with the bytes a lone caller sees (run under -race).
func TestPortFactorIsReentrant(t *testing.T) {
	s, err := Settings{}.NewPorts(sparse.RandomSPD(27, 0.3, 9).A, 8)
	if err != nil {
		t.Fatal(err)
	}
	ps := s.(PortSolver)
	d, b := sparse.RandomVec(8, 3), sparse.RandomVec(27, 4)
	wantU, wantX := sparse.NewVec(8), sparse.NewVec(27)
	ps.SolvePorts(wantU, d)
	ps.SolveTo(wantX, b)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			u, x := sparse.NewVec(8), sparse.NewVec(27)
			for i := 0; i < 32; i++ {
				ps.SolvePorts(u, d)
				ps.SolveTo(x, b)
				for p := range u {
					if math.Float64bits(u[p]) != math.Float64bits(wantU[p]) {
						t.Errorf("concurrent SolvePorts differs from the sequential one at port %d", p)
						return
					}
				}
				for p := range x {
					if math.Float64bits(x[p]) != math.Float64bits(wantX[p]) {
						t.Errorf("concurrent SolveTo differs from the sequential one at %d", p)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

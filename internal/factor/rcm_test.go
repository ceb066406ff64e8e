package factor

import (
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

// shuffledGrid returns a grid Laplacian whose vertices have been relabelled by
// a random permutation, destroying the natural banded order.
func shuffledGrid(nx, ny int, seed int64) *sparse.CSR {
	sys := sparse.Poisson2D(nx, ny, 0.05)
	n := sys.Dim()
	rng := rand.New(rand.NewSource(seed))
	p := make(Perm, n)
	for i := range p {
		p[i] = i
	}
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return sys.A.PermuteSym(p)
}

func bandwidth(a *sparse.CSR) int {
	bw := 0
	a.Each(func(i, j int, v float64) {
		if d := i - j; d > bw {
			bw = d
		} else if -d > bw {
			bw = -d
		}
	})
	return bw
}

func TestRCMIsPermutation(t *testing.T) {
	a := shuffledGrid(9, 11, 3)
	p := RCM(a)
	if len(p) != a.Rows() {
		t.Fatalf("RCM returned %d indices for %d vertices", len(p), a.Rows())
	}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestRCMReducesBandwidth(t *testing.T) {
	a := shuffledGrid(13, 13, 9)
	before := bandwidth(a)
	p := RCM(a)
	after := bandwidth(a.PermuteSym(p))
	if after >= before {
		t.Errorf("RCM did not reduce bandwidth: %d -> %d", before, after)
	}
	// On a 13x13 grid the optimal bandwidth is ~13; RCM should get close, and
	// in any case far below the ~n bandwidth of a random labelling.
	if after > 40 {
		t.Errorf("RCM bandwidth %d is far from the grid's natural %d", after, 13)
	}
}

func TestRCMDeterministic(t *testing.T) {
	a := shuffledGrid(10, 10, 21)
	p1, p2 := RCM(a), RCM(a)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("RCM is not deterministic at %d", i)
		}
	}
}

func TestRCMDisconnectedComponents(t *testing.T) {
	// Two disjoint paths: RCM must order every vertex exactly once.
	coo := sparse.NewCOO(6, 6)
	for i := 0; i < 6; i++ {
		coo.Add(i, i, 2)
	}
	coo.AddSym(0, 1, -1)
	coo.AddSym(1, 2, -1)
	coo.AddSym(3, 4, -1)
	coo.AddSym(4, 5, -1)
	a := coo.ToCSR()
	p := RCM(a)
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	// The factorisation must work across components too.
	s, err := newCholesky(a, OrderRCM)
	if err != nil {
		t.Fatal(err)
	}
	b := sparse.Vec{1, 2, 3, 4, 5, 6}
	x := s.Solve(b)
	if r := a.Residual(x, b).Norm2() / b.Norm2(); r > 1e-12 {
		t.Errorf("disconnected solve relative residual %g", r)
	}
}

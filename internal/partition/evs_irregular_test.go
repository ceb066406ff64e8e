package partition

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sparse"
)

// TestEVSIrregularYaoSpanner runs the general tearing pipeline — level-set
// growth plus EVS — on a Yao-spanner Laplacian, the irregular graph family
// the problem-source layer feeds it. No grid structure to lean on: the
// invariants must hold from the electric-graph algebra alone.
func TestEVSIrregularYaoSpanner(t *testing.T) {
	const n, parts = 120, 4
	sys := sparse.YaoSpannerLaplacian(n, 6, 5, 0.05)
	g, err := graph.FromSystem(sys.A, sys.B)
	if err != nil {
		t.Fatalf("FromSystem: %v", err)
	}
	a := LevelSetGrow(g, parts)
	if err := a.Validate(n); err != nil {
		t.Fatalf("level-set assignment invalid: %v", err)
	}
	r, err := EVS(g, a, Options{})
	if err != nil {
		t.Fatalf("EVS: %v", err)
	}

	// Part cover: the union of the subdomains' global indices is [0, n), and
	// every vertex appears as a non-port (owned) local exactly once.
	owned := make([]int, n)
	covered := make([]bool, n)
	for _, sub := range r.Subdomains {
		if sub.NumPorts > len(sub.GlobalIdx) {
			t.Fatalf("part %d claims %d ports but has %d locals", sub.Part, sub.NumPorts, len(sub.GlobalIdx))
		}
		for i, gidx := range sub.GlobalIdx {
			if gidx < 0 || gidx >= n {
				t.Fatalf("part %d maps local %d to out-of-range global %d", sub.Part, i, gidx)
			}
			covered[gidx] = true
			if i >= sub.NumPorts {
				owned[gidx]++
			}
		}
	}
	for v := 0; v < n; v++ {
		if !covered[v] {
			t.Fatalf("vertex %d is in no subdomain", v)
		}
		if owned[v] > 1 {
			t.Fatalf("inner vertex %d appears in %d parts", v, owned[v])
		}
		if owned[v] == 0 && a.Assign[v] >= 0 {
			// A vertex owned nowhere must be a split vertex: present as a
			// port copy in at least two parts.
			copies := 0
			for _, sub := range r.Subdomains {
				for i := 0; i < sub.NumPorts; i++ {
					if sub.GlobalIdx[i] == v {
						copies++
					}
				}
			}
			if copies < 2 {
				t.Fatalf("vertex %d has no inner copy and only %d port copies", v, copies)
			}
		}
	}

	// Twin-link consistency: both ends are valid ports of distinct parts and
	// name the same split global vertex.
	for _, l := range r.Links {
		if l.PartA == l.PartB {
			t.Fatalf("link %d joins part %d to itself", l.ID, l.PartA)
		}
		sa, sb := r.Subdomains[l.PartA], r.Subdomains[l.PartB]
		if l.PortA >= sa.NumPorts || l.PortB >= sb.NumPorts {
			t.Fatalf("link %d ports (%d,%d) outside port ranges (%d,%d)",
				l.ID, l.PortA, l.PortB, sa.NumPorts, sb.NumPorts)
		}
		if sa.GlobalIdx[l.PortA] != l.Global || sb.GlobalIdx[l.PortB] != l.Global {
			t.Fatalf("link %d global %d but ports map to %d and %d",
				l.ID, l.Global, sa.GlobalIdx[l.PortA], sb.GlobalIdx[l.PortB])
		}
	}

	// The fundamental EVS invariant on an irregular graph: reconstruction
	// recovers the original system.
	ra, rb := r.Reconstruct()
	if !ra.EqualApprox(sys.A, 1e-12) {
		t.Fatal("reconstructed matrix differs from the spanner Laplacian")
	}
	for i := range rb {
		if d := rb[i] - sys.B[i]; d > 1e-12 || d < -1e-12 {
			t.Fatalf("reconstructed b[%d] off by %g", i, d)
		}
	}
}

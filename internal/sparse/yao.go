package sparse

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
)

// This file generates Yao-spanner problem graphs: the weighted Laplacian of
// a k-cone nearest-neighbour Yao graph (Funke et al., arXiv:2303.07858;
// bounded-degree Yao-Yao variants in Damian, arXiv:0802.4325) over seeded
// random points in the unit square. Unlike the grid workloads, the result is
// irregular — no stencil, no natural row/column order — with bounded
// per-node Yao out-degree, which stresses the AMD/ND orderings and the EVS
// tearing in ways regular grids never do. The graph construction is
// geom.YaoEdges, shared with topology.YaoMesh, so a spanner problem can run
// on the matching spanner fabric.

// YaoSpannerLaplacian returns the weighted Laplacian system of the Yao graph
// over n seeded random points with k cones: edge {i,j} carries conductance
// 1/(0.1 + √n·dist(i,j)) — nearer neighbours couple more strongly — and
// every diagonal carries the incident conductance sum plus leak. With
// leak = 0 the matrix is the pure graph Laplacian (symmetric, row sums zero,
// singular); any leak > 0 grounds every node and makes the system strictly
// diagonally dominant SPD. The right-hand side is drawn from the same seeded
// stream. Deterministic per (n, k, seed, leak): byte-identical at every
// GOMAXPROCS.
func YaoSpannerLaplacian(n, k int, seed int64, leak float64) System {
	if n < 1 {
		panic(fmt.Sprintf("sparse: YaoSpannerLaplacian needs n >= 1 nodes, got %d", n))
	}
	if k < 1 {
		panic(fmt.Sprintf("sparse: YaoSpannerLaplacian needs k >= 1 cones, got %d", k))
	}
	if leak < 0 || math.IsNaN(leak) {
		panic(fmt.Sprintf("sparse: YaoSpannerLaplacian leak must be >= 0, got %g", leak))
	}
	rng := rand.New(rand.NewSource(seed))
	pts := geom.Points(rng, n)
	edges := geom.YaoEdges(pts, k)
	// A node's row holds one entry per incident edge and its diagonal.
	deg := make([]int, n)
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	a := NewRowBuilder(n, n, func(i int) int { return 1 + deg[i] })
	diag := make([]float64, n)
	for _, e := range edges {
		i, j := e[0], e[1]
		g := 1 / (0.1 + math.Sqrt(float64(n))*geom.Dist(pts, i, j))
		a.AddSym(i, j, -g)
		diag[i] += g
		diag[j] += g
	}
	for i := 0; i < n; i++ {
		a.Add(i, i, diag[i]+leak)
	}
	b := NewVec(n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return System{
		A:    a.ToCSR(),
		B:    b,
		Name: fmt.Sprintf("yao-spanner-%d-k%d-seed%d", n, k, seed),
	}
}

package topology

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
)

// This file implements Yao-graph machine fabrics: processors placed at
// seeded random positions in the unit square, with each processor linking to
// its nearest neighbour in each of k equal angular cones (the Yao graph of
// Funke et al., arXiv:2303.07858; bounded-degree variants in Damian,
// arXiv:0802.4325). Yao graphs are geometric spanners — sparse, bounded
// out-degree, with shortest-path detours bounded by a constant stretch
// factor — which makes them a realistic irregular interconnect to contrast
// with the paper's uniform and mesh machines. Link delays are proportional
// to Euclidean distance, so the fabric's delay spread comes from the
// geometry rather than from an explicit random delay table. The graph
// construction is geom.YaoEdges, shared with sparse.YaoSpannerLaplacian.

// YaoMesh returns an n-processor Yao-graph fabric: processors at seeded
// random positions in the unit square, bidirectional links from each
// processor to its nearest neighbour in each of k angular cones, and link
// delays proportional to Euclidean distance —
//
//	delay = baseDelay · (0.1 + √n·dist)
//
// so a typical nearest-neighbour link (dist ≈ 1/√n) costs about one
// baseDelay and long patch links cost proportionally more. The construction
// is deterministic per (n, k, seed): byte-identical at every GOMAXPROCS. If
// the Yao graph is disconnected (rare; only degenerate seeds), the closest
// inter-component pairs are linked so routing is total.
func YaoMesh(n, k int, seed int64, baseDelay float64) *Topology {
	if n < 1 {
		panic(fmt.Sprintf("topology: YaoMesh needs n >= 1 processors, got %d", n))
	}
	if k < 1 {
		panic(fmt.Sprintf("topology: YaoMesh needs k >= 1 cones, got %d", k))
	}
	if baseDelay <= 0 || math.IsNaN(baseDelay) {
		panic(fmt.Sprintf("topology: YaoMesh baseDelay must be positive, got %g", baseDelay))
	}
	pts := geom.Points(rand.New(rand.NewSource(seed)), n)
	t := New(n, fmt.Sprintf("yao-%d-k%d-seed%d", n, k, seed))
	for _, e := range geom.YaoEdges(pts, k) {
		d := baseDelay * (0.1 + math.Sqrt(float64(n))*geom.Dist(pts, e[0], e[1]))
		t.SetLinkPair(e[0], e[1], d, d)
	}
	return t
}

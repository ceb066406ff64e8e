// Package geom holds the planar-geometry constructions shared by the problem
// sources (internal/sparse) and the machine fabrics (internal/topology): at
// present the Yao graph — the k-cone nearest-neighbour geometric spanner of
// Funke et al. (arXiv:2303.07858; bounded-degree Yao-Yao variants in Damian,
// arXiv:0802.4325) — over seeded random points in the unit square. One
// construction serves both, so a spanner problem and the matching spanner
// fabric are the same graph, and a faster cone search (the grid-bucketed
// construction of Funke et al. instead of the all-pairs scan below) has one
// place to land.
package geom

import (
	"math"
	"math/rand"
	"sort"
)

// Points places n points uniformly in the unit square from one sequential
// seeded stream (byte-deterministic at every GOMAXPROCS). The caller owns
// the stream and may keep drawing from it.
func Points(rng *rand.Rand, n int) [][2]float64 {
	pts := make([][2]float64, n)
	for i := range pts {
		pts[i] = [2]float64{rng.Float64(), rng.Float64()}
	}
	return pts
}

// Dist is the Euclidean distance between points i and j.
func Dist(pts [][2]float64, i, j int) float64 {
	return math.Hypot(pts[j][0]-pts[i][0], pts[j][1]-pts[i][1])
}

// YaoPicks returns each point's directed Yao picks: the nearest other point
// within each of the k angular cones [2πc/k, 2π(c+1)/k), ties broken toward
// the smaller index. Every point has at most k picks.
func YaoPicks(pts [][2]float64, k int) [][]int {
	n := len(pts)
	picks := make([][]int, n)
	for i := 0; i < n; i++ {
		best := make([]int, k)
		bestD := make([]float64, k)
		for c := 0; c < k; c++ {
			best[c] = -1
			bestD[c] = math.Inf(1)
		}
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			dx := pts[j][0] - pts[i][0]
			dy := pts[j][1] - pts[i][1]
			ang := math.Atan2(dy, dx)
			if ang < 0 {
				ang += 2 * math.Pi
			}
			c := int(ang / (2 * math.Pi / float64(k)))
			if c >= k { // ang == 2π after rounding
				c = k - 1
			}
			if d := math.Hypot(dx, dy); d < bestD[c] {
				bestD[c] = d
				best[c] = j
			}
		}
		for c := 0; c < k; c++ {
			if best[c] >= 0 {
				picks[i] = append(picks[i], best[c])
			}
		}
	}
	return picks
}

// YaoEdges returns the undirected Yao graph over pts with k cones as the
// edge set {i < j} in lexicographic order: the symmetrised picks, patched for
// connectivity — while more than one component remains, the closest
// inter-component pair is linked (ties toward smaller indices). Patching
// almost never fires for k ≥ 4; it only guards degenerate seeds, so the graph
// is always solvable as one problem and routable as one machine.
func YaoEdges(pts [][2]float64, k int) [][2]int {
	n := len(pts)
	has := make([]map[int]bool, n)
	for i := range has {
		has[i] = make(map[int]bool)
	}
	addEdge := func(i, j int) {
		has[i][j] = true
		has[j][i] = true
	}
	for i, ps := range YaoPicks(pts, k) {
		for _, j := range ps {
			addEdge(i, j)
		}
	}
	// Connected components by BFS over the symmetrised picks. Labels follow
	// the smallest vertex of each component, whatever order the map yields.
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	count := 0
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		queue := []int{s}
		comp[s] = count
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for w := range has[v] {
				if comp[w] < 0 {
					comp[w] = count
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	for count > 1 {
		bi, bj, bd := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if comp[i] == comp[j] {
					continue
				}
				if d := Dist(pts, i, j); d < bd {
					bd, bi, bj = d, i, j
				}
			}
		}
		addEdge(bi, bj)
		old, now := comp[bj], comp[bi]
		for v := range comp {
			if comp[v] == old {
				comp[v] = now
			}
		}
		count--
	}
	var edges [][2]int
	for i := 0; i < n; i++ {
		js := make([]int, 0, len(has[i]))
		for j := range has[i] {
			if j > i {
				js = append(js, j)
			}
		}
		sort.Ints(js)
		for _, j := range js {
			edges = append(edges, [2]int{i, j})
		}
	}
	return edges
}

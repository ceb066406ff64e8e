// Package geom holds the planar-geometry constructions shared by the problem
// sources (internal/sparse) and the machine fabrics (internal/topology): at
// present the Yao graph — the k-cone nearest-neighbour geometric spanner of
// Funke et al. (arXiv:2303.07858; bounded-degree Yao-Yao variants in Damian,
// arXiv:0802.4325) — over seeded random points in the unit square. One
// construction serves both, so a spanner problem and the matching spanner
// fabric are the same graph.
//
// The construction is the uniform-grid one of Funke et al.: the points are
// counting-sorted into ≈ n/2 square cells of their bounding box, and each
// point searches the square rings of cells around its own, ring by ring. On a
// ring, a cone visits only the cells its sector can touch (two half-plane
// clips per ring side), so an empty cone that leaves the bounding box walks a
// thin strip of cells, not the whole grid. Every candidate met is judged by
// the definition itself — cone ⌊(Atan2 mod 2π)/(2π/k)⌋, Hypot distance, tie
// toward the smaller index — so the search decides which points are looked
// at, never how they compare. The arithmetic that evaluates that predicate is
// cheaper but decides it exactly: the cone comes from a monotone pseudo-angle
// (no transcendental) unless the direction lies within slack of a cone
// boundary, where the definition's Atan2 expression is evaluated instead; the
// distances compare as squares unless two are within a relative 1e-12 of each
// other (or the squares under- or overflow), where Hypot and the definition's
// test decide. A cone stops at ring r once its best distance is strictly
// below r−1 cell widths (every cell of ring r or beyond is at least that far
// along one axis, and Hypot(dx, dy) ≥ max(|dx|, |dy|) holds in floating
// point; the squared best is held below that bound by a relative 1e-12, so
// the test can only settle later, never earlier), or once it touches no cell
// of the ring (its sector clipped to the bounding box is convex, so it
// touches none beyond). Each bound the search derives from cell coordinates
// is loosened by slack, orders of magnitude above their rounding, so it can
// only look at too many points: the picks are those of the all-pairs scan bit
// for bit (kept as the oracle in yao_test.go). Uniform points cost O(1) rings
// and candidates per point and cone.
package geom

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
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

// slack, in cell widths, loosens every bound the grid search derives from
// cell coordinates. Those carry rounding of about 1e-16 × the grid side. The
// cone test keeps the same margin in pseudo-angle units, where the rounding
// is about 1e-15.
const slack = 1e-9

// Two squared distances closer than a relative tie are not ordered by their
// squares, which carry a few ulps of rounding each: Hypot and the
// definition's test decide. Nor are squares outside [minSq, maxSq], which may
// have lost their relative accuracy to underflow or overflow.
const (
	tie   = 1e-12
	minSq = 1e-290
	maxSq = 1e290
)

// grid buckets points into square cells of side w covering their bounding
// box: cell (cx, cy) holds members[start[cy*nx+cx]:start[cy*nx+cx+1]], in
// index order.
type grid struct {
	minX, minY, w float64
	nx, ny        int
	start         []int
	members       []int
}

// cellCoord is the position of (x, y) in cell units; its integer part is the
// cell. Monotone in x and y, so cell order follows coordinate order.
func (g *grid) cellCoord(p [2]float64) (u, v float64) {
	return (p[0] - g.minX) / g.w, (p[1] - g.minY) / g.w
}

func newGrid(pts [][2]float64) *grid {
	g := &grid{w: 1, nx: 1, ny: 1}
	if len(pts) > 0 {
		maxX, maxY := pts[0][0], pts[0][1]
		g.minX, g.minY = maxX, maxY
		for _, p := range pts {
			g.minX, maxX = math.Min(g.minX, p[0]), math.Max(maxX, p[0])
			g.minY, maxY = math.Min(g.minY, p[1]), math.Max(maxY, p[1])
		}
		// ≈ n/2 square cells; a thin box gets at most that many along its
		// long side, so the cell count stays O(n) at any aspect ratio.
		cells := float64(len(pts)/2 + 1)
		spanX, spanY := maxX-g.minX, maxY-g.minY
		if w := math.Max(math.Sqrt(spanX*spanY/cells), math.Max(spanX, spanY)/cells); w > 0 {
			g.w = w
		}
		u, v := g.cellCoord([2]float64{maxX, maxY})
		g.nx, g.ny = int(u)+1, int(v)+1
	}
	g.start = make([]int, g.nx*g.ny+1)
	cell := make([]int, len(pts))
	for i, p := range pts {
		u, v := g.cellCoord(p)
		cell[i] = int(v)*g.nx + int(u)
		g.start[cell[i]+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	g.members = make([]int, len(pts))
	next := append([]int(nil), g.start...)
	for i, c := range cell {
		g.members[next[c]] = i
		next[c]++
	}
	return g
}

// side is one side of the square ring of cells r cells out from a point: the
// cells of column (row, if horizontal) fixed from first to last, clipped to
// the grid; first > last when none is in it. In cell units the side spans
// [s0, s1] across, relative to the point, which sits at along along it.
type side struct {
	horizontal         bool
	fixed              int
	s0, s1             float64
	along, first, last float64
}

func (g *grid) side(horizontal bool, fixed int, across, along float64, mid, r int) side {
	width, length := g.nx, g.ny
	if horizontal {
		width, length = g.ny, g.nx
	}
	sd := side{horizontal, fixed, float64(fixed) - across, float64(fixed+1) - across,
		along, float64(max(mid-r, 0)), float64(min(mid+r, length-1))}
	if fixed < 0 || fixed >= width {
		sd.last = -1
	}
	return sd
}

// clip narrows [*lo, *hi] to the t for which a·t + b·s ≥ −slack has a
// solution with s in [s0, s1].
func clip(lo, hi *float64, a, b, s0, s1 float64) {
	m := max(b*s0, b*s1) + slack
	switch {
	case a > 0:
		*lo = max(*lo, -m/a)
	case a < 0:
		*hi = min(*hi, -m/a)
	case m < 0:
		*lo = math.Inf(1)
	}
}

// pseudoAngle stands in for the angle of (dx, dy) in [0, 2π) without a
// transcendental: it runs over [0, 4), one unit per quadrant, and grows with
// the angle at between 1/2 and 1 times its rate, so a margin of slack in it
// is at least slack in angle. It is NaN for dx = dy = 0.
func pseudoAngle(dx, dy float64) float64 {
	a := dy / (math.Abs(dx) + math.Abs(dy))
	switch {
	case dx < 0:
		return 2 - a
	case dy < 0:
		return 4 + a
	}
	return a
}

// exactCone is the definition's cone of (dx, dy), as the all-pairs oracle
// computes it.
func exactCone(dx, dy, step float64, k int) int {
	ang := math.Atan2(dy, dx)
	if ang < 0 {
		ang += 2 * math.Pi
	}
	c := int(ang / step)
	if c >= k { // ang == 2π after rounding
		c = k - 1
	}
	return c
}

// cones assigns directions to the k cones [2πc/k, 2π(c+1)/k) exactly as
// exactCone does, reading the pseudo-angle against the cone boundaries and
// evaluating exactCone only within slack of one, where the two could differ
// by rounding. Away from the boundaries both are at least 1e-9 from a cone
// edge while their rounding is below 1e-14.
type cones struct {
	k         int
	step      float64
	dirs      [][2]float64 // cone c lies between dirs[c] and dirs[c+1]
	bound     []float64    // pseudo-angle of dirs[c]; exactly 0 and 4 at the ends
	first     []int        // first[q]: a cone at or before pseudo-angle q/k
	fallbacks int          // directions decided by exactCone
}

func newCones(k int) *cones {
	cs := &cones{k: k, step: 2 * math.Pi / float64(k),
		dirs: make([][2]float64, k+1), bound: make([]float64, k+1), first: make([]int, 4*k)}
	for c := range cs.dirs {
		cs.dirs[c][1], cs.dirs[c][0] = math.Sincos(cs.step * float64(c))
		cs.bound[c] = pseudoAngle(cs.dirs[c][0], cs.dirs[c][1])
	}
	cs.bound[k] = 4
	// A cone spans at least π/k of pseudo-angle and a bucket 1/k, so the
	// lookup in (*cones).of steps at most once past first[q].
	c := 0
	for q := range cs.first {
		for c+1 < k && cs.bound[c+1] <= float64(q)/float64(k) {
			c++
		}
		cs.first[q] = c
	}
	return cs
}

// of returns the cone of direction (dx, dy).
func (cs *cones) of(dx, dy float64) int {
	if s := pseudoAngle(dx, dy); s > slack && s < 4-slack { // false for NaN too
		c := cs.first[int(s*float64(cs.k))]
		for s >= cs.bound[c+1] {
			c++
		}
		if s-cs.bound[c] > slack && cs.bound[c+1]-s > slack {
			return c
		}
	}
	cs.fallbacks++
	return exactCone(dx, dy, cs.step, cs.k)
}

// search is one run of the grid search over every point.
type search struct {
	g      *grid
	pts    [][2]float64
	k      int
	cones  *cones
	picks  []int     // k slots per point: slot c is the pick of cone c, or −1
	bestD2 []float64 // squared distance of each slot of the current point
	seen   []int     // seen[cell] == i+1: already scanned for point i
	cells  []int     // the cells of the current step
	evals  int       // candidates whose cone and distance were evaluated
}

// YaoPicks returns each point's directed Yao picks: the nearest other point
// within each of the k angular cones [2πc/k, 2π(c+1)/k), ties broken toward
// the smaller index. Every point has at most k picks.
func YaoPicks(pts [][2]float64, k int) [][]int {
	s := yaoPicks(newGrid(pts), pts, k)
	picks := make([][]int, len(pts))
	for i := range picks {
		for _, j := range s.picks[i*k : (i+1)*k] {
			if j >= 0 {
				picks[i] = append(picks[i], j)
			}
		}
	}
	return picks
}

// yaoPicks runs the search over a prebuilt grid (evals is n(n−1) for an
// all-pairs scan).
func yaoPicks(g *grid, pts [][2]float64, k int) *search {
	s := &search{g: g, pts: pts, k: k, cones: newCones(k),
		picks: make([]int, len(pts)*k), bestD2: make([]float64, k), seen: make([]int, g.nx*g.ny)}
	dirs, done := s.cones.dirs, make([]bool, k)
	for _, i := range g.members { // cell by cell, so neighbourhoods stay cached
		best := s.picks[i*k : (i+1)*k]
		for c := range best {
			best[c], s.bestD2[c], done[c] = -1, math.Inf(1), false
		}
		u, v := g.cellCoord(pts[i])
		cx, cy := int(u), int(v)
		// Rings 0 and 1 whole: no cone can settle before ring 2 (r−1 = 0), and
		// together the cones touch every cell.
		s.cells = s.cells[:0]
		for y := max(cy-1, 0); y <= min(cy+1, g.ny-1); y++ {
			for x := max(cx-1, 0); x <= min(cx+1, g.nx-1); x++ {
				s.cells = append(s.cells, y*g.nx+x)
			}
		}
		s.scan(i)
		for r, live := 2, k; live > 0; r++ {
			sides := [4]side{
				g.side(false, cx+r, u, v, cy, r), g.side(false, cx-r, u, v, cy, r),
				g.side(true, cy+r, v, u, cx, r), g.side(true, cy-r, v, u, cx, r),
			}
			// Cone c is settled once its pick is nearer than any cell of ring r
			// or beyond, all at least r−1 cells away, or once it touches no
			// cell of the ring: it has left the grid. The squared pick is held
			// a relative tie below the squared bound, and never settles where
			// that square may have under- or overflowed.
			nearest := (float64(r-1) - slack) * g.w
			near2 := nearest * nearest * (1 - tie)
			if near2 < minSq || near2 > maxSq {
				near2 = 0
			}
			for c := 0; c < k; c++ {
				if done[c] {
					continue
				}
				touched := false
				for _, sd := range sides {
					if s.bestD2[c] < near2 {
						break
					}
					lo, hi := math.Inf(-1), math.Inf(1)
					d0, d1 := dirs[c], dirs[c+1]
					switch {
					case k == 1: // a single cone is the whole plane
					case sd.horizontal:
						clip(&lo, &hi, -d0[1], d0[0], sd.s0, sd.s1)
						clip(&lo, &hi, d1[1], -d1[0], sd.s0, sd.s1)
					default:
						clip(&lo, &hi, d0[0], -d0[1], sd.s0, sd.s1)
						clip(&lo, &hi, -d1[0], d1[1], sd.s0, sd.s1)
					}
					lo = math.Floor(max(sd.along+lo-slack, sd.first))
					hi = math.Floor(min(sd.along+hi+slack, sd.last))
					s.cells = s.cells[:0]
					for t := lo; t <= hi; t++ {
						touched = true
						if sd.horizontal {
							s.cells = append(s.cells, sd.fixed*g.nx+int(t))
						} else {
							s.cells = append(s.cells, int(t)*g.nx+sd.fixed)
						}
					}
					s.scan(i)
				}
				if !touched {
					done[c] = true
					live--
				}
			}
		}
	}
	return s
}

// scan evaluates, for point i, the candidates in the step's cells not yet
// scanned for it.
func (s *search) scan(i int) {
	p, best := s.pts[i], s.picks[i*s.k:(i+1)*s.k]
	for _, cell := range s.cells {
		if s.seen[cell] == i+1 {
			continue
		}
		s.seen[cell] = i + 1
		for _, j := range s.g.members[s.g.start[cell]:s.g.start[cell+1]] {
			if j == i {
				continue
			}
			s.evals++
			dx, dy := s.pts[j][0]-p[0], s.pts[j][1]-p[1]
			c := s.cones.of(dx, dy)
			d2, b2 := dx*dx+dy*dy, s.bestD2[c]
			switch {
			case d2 >= minSq && d2 <= maxSq && (best[c] < 0 || d2 < b2*(1-tie)):
				// nearer by a clear margin
			case b2 >= minSq && d2 > b2*(1+tie):
				continue // farther by a clear margin
			default: // too close to call by the squares
				d, bd := math.Hypot(dx, dy), math.Inf(1)
				if b := best[c]; b >= 0 {
					bd = math.Hypot(s.pts[b][0]-p[0], s.pts[b][1]-p[1])
				}
				if !(d < bd || d == bd && j < best[c]) {
					continue
				}
			}
			best[c], s.bestD2[c] = j, d2
		}
	}
}

// components is a union-find over point indices.
type components struct {
	parent []int
	count  int
}

func newComponents(n int) *components {
	uf := &components{parent: make([]int, n), count: n}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *components) find(i int) int {
	for uf.parent[i] != i {
		uf.parent[i] = uf.parent[uf.parent[i]]
		i = uf.parent[i]
	}
	return i
}

// union merges the components of i and j and reports whether they differed.
func (uf *components) union(i, j int) bool {
	i, j = uf.find(i), uf.find(j)
	if i == j {
		return false
	}
	uf.parent[j] = i
	uf.count--
	return true
}

// YaoEdges returns the undirected Yao graph over pts with k cones as the
// edge set {i < j} in lexicographic order: the symmetrised picks, patched for
// connectivity — while more than one component remains, the closest
// inter-component pair is linked (ties toward smaller indices). Patching
// almost never fires for k ≥ 4; it only guards degenerate seeds, so the graph
// is always solvable as one problem and routable as one machine.
func YaoEdges(pts [][2]float64, k int) [][2]int {
	g := newGrid(pts)
	picks := yaoPicks(g, pts, k).picks
	n := len(pts)
	uf := newComponents(n)
	for i := 0; i < n; i++ {
		for _, j := range picks[i*k : (i+1)*k] {
			if j >= 0 {
				uf.union(i, j)
			}
		}
	}
	// Linking the closest inter-component pair until one component remains
	// is Kruskal's algorithm over the pairs in (distance, i, j) order, and
	// all pairs no longer than some radius are a prefix of that order: take
	// them from the grid, sorted, and double the radius while components
	// remain. Pairs within earlier radii are intra-component by then.
	type pair struct {
		d    float64
		i, j int
	}
	var patches [][2]int
	for radius := g.w; uf.count > 1; radius *= 2 {
		var cand []pair
		cells := int(radius/g.w) + 2 // one spare for the rounding of cellCoord
		for i, p := range pts {
			u, v := g.cellCoord(p)
			own := uf.find(i)
			lo, hi := max(int(u)-cells, 0), min(int(u)+cells, g.nx-1)
			for cy := max(int(v)-cells, 0); cy <= min(int(v)+cells, g.ny-1); cy++ {
				for _, j := range g.members[g.start[cy*g.nx+lo]:g.start[cy*g.nx+hi+1]] {
					if j > i && uf.find(j) != own {
						if d := Dist(pts, i, j); d <= radius {
							cand = append(cand, pair{d, i, j})
						}
					}
				}
			}
		}
		slices.SortFunc(cand, func(x, y pair) int {
			return cmp.Or(cmp.Compare(x.d, y.d), cmp.Compare(x.i, y.i), cmp.Compare(x.j, y.j))
		})
		for _, c := range cand {
			if uf.union(c.i, c.j) {
				patches = append(patches, [2]int{c.i, c.j})
			}
		}
	}
	// Counting-sort the edges {i < j} by i straight from the picks: at[i]
	// counts bucket i, then ends it, then — the fill runs backwards — starts
	// it.
	at := make([]int, n+1)
	for i := 0; i < n; i++ {
		for _, j := range picks[i*k : (i+1)*k] {
			if j >= 0 {
				at[min(i, j)]++
			}
		}
	}
	for _, e := range patches {
		at[e[0]]++
	}
	for i := 1; i <= n; i++ {
		at[i] += at[i-1]
	}
	js := make([]int, at[n])
	for i := 0; i < n; i++ {
		for _, j := range picks[i*k : (i+1)*k] {
			if j >= 0 {
				lo := min(i, j)
				at[lo]--
				js[at[lo]] = max(i, j)
			}
		}
	}
	for _, e := range patches {
		at[e[0]]--
		js[at[e[0]]] = e[1]
	}
	// Sort each bucket and drop its duplicates (mutual picks), compacting js
	// in place; at[i] moves to the start of the compacted bucket i.
	m := 0
	for i := 0; i < n; i++ {
		b := js[at[i]:at[i+1]]
		slices.Sort(b)
		b = slices.Compact(b)
		at[i] = m
		m += copy(js[m:], b)
	}
	at[n] = m
	edges := slices.Grow([][2]int(nil), m)
	for i := 0; i < n; i++ {
		for _, j := range js[at[i]:at[i+1]] {
			edges = append(edges, [2]int{i, j})
		}
	}
	return edges
}

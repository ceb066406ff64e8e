package geom

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// refYaoPicks is the definition of the Yao picks, evaluated on all pairs: the
// oracle the grid construction must reproduce exactly.
func refYaoPicks(pts [][2]float64, k int) [][]int {
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

// refYaoEdges symmetrises refYaoPicks and, while more than one component
// remains, links the closest inter-component pair found by scanning all pairs.
func refYaoEdges(pts [][2]float64, k int) [][2]int {
	n := len(pts)
	has := make([]map[int]bool, n)
	for i := range has {
		has[i] = make(map[int]bool)
	}
	addEdge := func(i, j int) {
		has[i][j] = true
		has[j][i] = true
	}
	for i, ps := range refYaoPicks(pts, k) {
		for _, j := range ps {
			addEdge(i, j)
		}
	}
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

// checkAgainstReference fails unless the grid construction returns exactly
// the reference's picks and edges.
func checkAgainstReference(t *testing.T, pts [][2]float64, k int) {
	t.Helper()
	if got, want := YaoPicks(pts, k), refYaoPicks(pts, k); !reflect.DeepEqual(got, want) {
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("n=%d k=%d: picks of point %d %v = %v, reference %v", len(pts), k, i, pts[i], got[i], want[i])
			}
		}
		t.Fatalf("n=%d k=%d: picks differ from the reference", len(pts), k)
	}
	if got, want := YaoEdges(pts, k), refYaoEdges(pts, k); !reflect.DeepEqual(got, want) {
		t.Fatalf("n=%d k=%d: %d edges, reference has %d; or they differ", len(pts), k, len(got), len(want))
	}
}

// pointSets are the inputs a bucket search gets wrong first, at size n.
var pointSets = []struct {
	name string
	gen  func(rng *rand.Rand, n int) [][2]float64
}{
	{"uniform", Points},
	{"lattice", func(rng *rand.Rand, n int) [][2]float64 { // exact ties, points on cone boundaries
		side := int(math.Sqrt(float64(n))) + 1
		pts := make([][2]float64, n)
		for i := range pts {
			pts[i] = [2]float64{float64(rng.Intn(side)), float64(rng.Intn(side))}
		}
		return pts
	}},
	{"full-lattice", func(_ *rand.Rand, n int) [][2]float64 { // every cell boundary occupied
		side := int(math.Ceil(math.Sqrt(float64(n))))
		pts := make([][2]float64, n)
		for i := range pts {
			pts[i] = [2]float64{float64(i % side), float64(i / side)}
		}
		return pts
	}},
	{"duplicates", func(rng *rand.Rand, n int) [][2]float64 {
		pts := Points(rng, n)
		for i := range pts {
			if i > 0 && rng.Intn(2) == 0 {
				pts[i] = pts[rng.Intn(i)]
			}
		}
		return pts
	}},
	{"all-equal", func(_ *rand.Rand, n int) [][2]float64 {
		pts := make([][2]float64, n)
		for i := range pts {
			pts[i] = [2]float64{0.25, -3}
		}
		return pts
	}},
	{"horizontal", func(rng *rand.Rand, n int) [][2]float64 { // zero-height bounding box
		pts := Points(rng, n)
		for i := range pts {
			pts[i][1] = 0.5
		}
		return pts
	}},
	{"vertical", func(rng *rand.Rand, n int) [][2]float64 {
		pts := Points(rng, n)
		for i := range pts {
			pts[i][0] = -2
		}
		return pts
	}},
	{"diagonal", func(rng *rand.Rand, n int) [][2]float64 { // most cells empty
		pts := Points(rng, n)
		for i := range pts {
			pts[i][1] = pts[i][0]
		}
		return pts
	}},
	{"offset-box", func(rng *rand.Rand, n int) [][2]float64 { // non-unit, far from the origin
		pts := Points(rng, n)
		for i := range pts {
			pts[i] = [2]float64{1e3 + 40*pts[i][0], -7e2 + 0.3*pts[i][1]}
		}
		return pts
	}},
	{"clusters", func(rng *rand.Rand, n int) [][2]float64 { // n far below the cells between clusters
		pts := Points(rng, n)
		for i := range pts {
			pts[i] = [2]float64{pts[i][0]*1e-3 + float64(rng.Intn(2)), pts[i][1]*1e-3 + float64(rng.Intn(2))}
		}
		return pts
	}},
	{"cone-boundary", coneBoundaryPoints},
}

// coneBoundaryPoints places every point but the first on a cone edge of
// k ∈ {5, 7, 12} seen from an earlier point, p + ρ·dirs[c], each coordinate
// nudged by 0, ±1 ulp or ±1e-10: directions inside the band where the search
// falls back to the Atan2 expression, on both sides of the edge. The edges of
// 12 cones include those of 1, 2, 3, 4 and 6.
func coneBoundaryPoints(rng *rand.Rand, n int) [][2]float64 {
	pts := Points(rng, n)
	for i := 1; i < n; i++ {
		k := []int{5, 7, 12}[rng.Intn(3)]
		sin, cos := math.Sincos(2 * math.Pi / float64(k) * float64(rng.Intn(k)))
		p, rho := pts[rng.Intn(i)], 0.01+0.1*rng.Float64()
		q := [2]float64{p[0] + rho*cos, p[1] + rho*sin}
		for d := range q {
			switch rng.Intn(5) {
			case 1:
				q[d] = math.Nextafter(q[d], math.Inf(1))
			case 2:
				q[d] = math.Nextafter(q[d], math.Inf(-1))
			case 3:
				q[d] += 1e-10
			case 4:
				q[d] -= 1e-10
			}
		}
		pts[i] = q
	}
	return pts
}

func TestYaoMatchesAllPairsReference(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 10, 100, 1000}
	if testing.Short() {
		sizes = sizes[:6]
	}
	for _, set := range pointSets {
		for _, n := range sizes {
			for _, k := range []int{1, 2, 3, 4, 6, 8, 64} {
				for seed := int64(1); seed <= 3; seed++ {
					// The reference is quadratic, and cubic where it patches
					// (k = 1): at n = 1000 only uniform points run every k,
					// the other sets k = 6, and the lattice k = 1 for its ties.
					if n == 1000 && (seed > 1 || set.name != "uniform" && k != 6 && (set.name != "lattice" || k != 1)) {
						continue
					}
					t.Run(fmt.Sprintf("%s/n=%d/k=%d/seed=%d", set.name, n, k, seed), func(t *testing.T) {
						checkAgainstReference(t, set.gen(rand.New(rand.NewSource(seed)), n), k)
					})
				}
			}
		}
	}
}

// componentsOf counts the components of the graph with the given edges.
func componentsOf(n int, edges [][2]int) int {
	uf := newComponents(n)
	for _, e := range edges {
		uf.union(e[0], e[1])
	}
	return uf.count
}

// pickComponents counts the components of the symmetrised picks alone.
func pickComponents(pts [][2]float64, k int) int {
	var pairs [][2]int
	for i, ps := range YaoPicks(pts, k) {
		for _, j := range ps {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	return componentsOf(len(pts), pairs)
}

// TestYaoPatchingFires guards the differential test's premise, that the
// patch edges are compared too. The picks alone are disconnected on most
// k = 1 inputs (nearest-neighbour forests); for k = 2 they never are (every
// point but the topmost picks one at least as high), and for k ≥ 3 it takes
// duplicate points, whose cone 0 is spent on each other: three such inputs
// are pinned here.
func TestYaoPatchingFires(t *testing.T) {
	fired := 0
	for _, set := range pointSets {
		for _, n := range []int{10, 100} {
			if pickComponents(set.gen(rand.New(rand.NewSource(1)), n), 1) > 1 {
				fired++
			}
		}
	}
	if fired < len(pointSets) {
		t.Errorf("k=1: patching fires on %d of the differential test's inputs, want most", fired)
	}
	for _, pts := range [][][2]float64{
		{{12, 1}, {4, 12}, {2, 9}, {5, 7}, {0, 1}, {4, 12}, {0, 1}, {7, 8}},
		{{8, 14}, {3, 0}, {3, 0}, {10, 4}, {14, 10}, {15, 0}, {15, 13}, {14, 4}, {7, 9}, {12, 14}, {8, 9}},
		{{6, 10}, {15, 13}, {3, 4}, {6, 8}, {14, 9}, {7, 7}, {5, 8}, {3, 4}},
	} {
		if pickComponents(pts, 3) < 2 {
			t.Errorf("k=3: picks of %v are connected, patching not exercised", pts)
		}
		checkAgainstReference(t, pts, 3)
	}
}

// evalsPerPoint is the exact work counter of the search: candidate
// evaluations per point for uniform points, k = 6.
func evalsPerPoint(n int) float64 {
	pts := Points(rand.New(rand.NewSource(1)), n)
	return float64(yaoPicks(newGrid(pts), pts, 6).evals) / float64(n)
}

// TestYaoEvaluationsNearLinear states "near-linear" as a count, not a wall
// time: bit-stable per seed and the same on every host. The all-pairs scan
// evaluates n−1 candidates per point.
func TestYaoEvaluationsNearLinear(t *testing.T) {
	if e := evalsPerPoint(1000); e > 100 {
		t.Errorf("n=1000: %.1f evaluations per point, want <= n/10", e)
	}
	if testing.Short() {
		return
	}
	e4, e5 := evalsPerPoint(10000), evalsPerPoint(100000)
	t.Logf("evaluations per point: %.1f at n=1e4, %.1f at n=1e5", e4, e5)
	if e5 > 1.5*e4 {
		t.Errorf("evaluations per point grew from %.1f (n=1e4) to %.1f (n=1e5): not near-linear", e4, e5)
	}
}

// TestYaoConeFallback: the exact Atan2 path is exercised where it decides —
// on directions within slack of a cone edge, against the oracle — and stays
// rare elsewhere.
func TestYaoConeFallback(t *testing.T) {
	pts := coneBoundaryPoints(rand.New(rand.NewSource(1)), 300)
	for _, k := range []int{5, 7, 12} {
		if s := yaoPicks(newGrid(pts), pts, k); s.cones.fallbacks == 0 {
			t.Errorf("k=%d: no fallbacks in %d evaluations of the cone-boundary points", k, s.evals)
		}
		checkAgainstReference(t, pts, k)
	}
	n := 10000
	if testing.Short() {
		n = 1000
	}
	uniform := Points(rand.New(rand.NewSource(1)), n)
	if s := yaoPicks(newGrid(uniform), uniform, 6); s.cones.fallbacks*100 >= s.evals {
		t.Errorf("uniform n=%d: %d fallbacks in %d evaluations, want under 1%%", n, s.cones.fallbacks, s.evals)
	}
}

// TestYaoEdgesAllocations: the search keeps its picks in one flat array and
// sorts the edges from it, so YaoEdges allocates a few dozen objects and no
// more bytes than the per-point picks and sorted keys it replaced (431 kB).
func TestYaoEdgesAllocations(t *testing.T) {
	pts := Points(rand.New(rand.NewSource(1)), 1000)
	if allocs := testing.AllocsPerRun(5, func() { benchEdges = YaoEdges(pts, 6) }); allocs > 64 {
		t.Errorf("YaoEdges n=1000: %.0f allocations per call, want <= 64", allocs)
	}
	var before, after runtime.MemStats
	const runs = 5
	runtime.ReadMemStats(&before)
	for range runs {
		benchEdges = YaoEdges(pts, 6)
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b > 431_409 {
		t.Errorf("YaoEdges n=1000: %d B per call, want <= 431409", b)
	}
}

// TestYaoEdgesManyComponents is the case the all-pairs patch could not
// finish: k = 1 leaves thousands of components at n = 20000.
func TestYaoEdgesManyComponents(t *testing.T) {
	if testing.Short() {
		t.Skip("n=20000")
	}
	pts := Points(rand.New(rand.NewSource(1)), 20000)
	if c := componentsOf(len(pts), YaoEdges(pts, 1)); c != 1 {
		t.Fatalf("%d components after patching, want 1", c)
	}
}

// FuzzYaoPicks decodes bytes into k and up to 64 points, and demands the
// reference's picks and edges. The first byte is k (mod 64, plus one). Below
// 128 every further byte is a point of a 16×16 lattice — coarse enough that
// distance ties, duplicates and cone-boundary points are the norm. From 128
// up the points lie off the lattice, three bytes each (b, x, y): lattice
// point b nudged by offset x in x and offset y in y, where an offset's low
// three bits pick 0, 1e-9, 1e-10, 1e-12, 1e-14, 1e-16, 1e-17 (sub-ulp beside
// any coordinate but 0) or one ulp, and its bit 3 the sign; or, when x ≥ 0xc0,
// the point on cone edge y (mod k) of earlier point b (mod the count so far)
// at distance ((x & 0x3f) + 1)/8 — a direction the lattice never hits for
// k = 5 or 7, and within rounding of the edge, where the cone comes from the
// Atan2 fallback.
func FuzzYaoPicks(f *testing.F) {
	f.Add([]byte{6, 0x00, 0x11, 0x22, 0x33, 0x44})
	f.Add([]byte{1, 0x00, 0x0f, 0xf0, 0xff})
	f.Add([]byte{4, 0x77, 0x77, 0x78, 0x87, 0x88, 0x67})
	f.Add([]byte{128 + 4, 0x77, 0, 0, 0, 0xc7, 0, 0, 0xc7, 1, 0, 0xcf, 2, 0, 0xc3, 3, 0, 0xc7, 4, 3, 0xc7, 1, 0x78, 0x09, 0x01})
	f.Add([]byte{128 + 6, 0x38, 0, 0, 0, 0xc7, 0, 0, 0xc7, 1, 0, 0xc7, 5, 0, 0xcb, 6, 2, 0xc7, 3, 0x48, 0x07, 0x0f, 0x39, 0x05, 0x0e})
	f.Add([]byte{128 + 11, 0x00, 0, 0, 0x01, 0x06, 0x0d, 0x10, 0x0e, 0x06, 0, 0xc7, 2, 0x11, 0x01, 0x09})
	// On edge 3 of 7 cones, on the side where rounding puts the pseudo-angle
	// and the Atan2 expression in different cones.
	f.Add([]byte{128 + 6, 0x32, 0x30, 0x30, 0x30, 0xea, 0x42, 0x22, 0x30, 0x30})
	// Two candidates at distance 1 in one cone of 5 whose squares order them
	// the other way round from Hypot.
	f.Add([]byte{128 + 4, 0x77, 0x30, 0x31, 0x30, 0xc7, 0x38, 0x78, 0x30, 0x31})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := int(data[0])%64 + 1
		lattice := func(b byte) [2]float64 { return [2]float64{float64(b >> 4), float64(b & 15)} }
		var pts [][2]float64
		if data[0] < 128 {
			for _, b := range data[1:min(len(data), 65)] {
				pts = append(pts, lattice(b))
			}
			checkAgainstReference(t, pts, k)
			return
		}
		nudge := func(v float64, o byte) float64 {
			sign := 1.0
			if o&8 != 0 {
				sign = -1
			}
			if o&7 == 7 {
				return math.Nextafter(v, sign*math.Inf(1))
			}
			return v + sign*[]float64{0, 1e-9, 1e-10, 1e-12, 1e-14, 1e-16, 1e-17}[o&7]
		}
		for data = data[1:]; len(data) >= 3 && len(pts) < 64; data = data[3:] {
			b, x, y := data[0], data[1], data[2]
			if x >= 0xc0 && len(pts) > 0 {
				sin, cos := math.Sincos(2 * math.Pi / float64(k) * float64(int(y)%k))
				p, rho := pts[int(b)%len(pts)], float64(x&0x3f+1)/8
				pts = append(pts, [2]float64{p[0] + rho*cos, p[1] + rho*sin})
				continue
			}
			p := lattice(b)
			pts = append(pts, [2]float64{nudge(p[0], x), nudge(p[1], y)})
		}
		checkAgainstReference(t, pts, k)
	})
}

var benchEdges [][2]int

func BenchmarkYaoEdges(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts := Points(rand.New(rand.NewSource(1)), n)
			evals := yaoPicks(newGrid(pts), pts, 6).evals
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchEdges = YaoEdges(pts, 6)
			}
			b.ReportMetric(float64(evals)/float64(n), "evals/point")
		})
	}
}

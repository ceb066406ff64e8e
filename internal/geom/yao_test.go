package geom

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
	_, evals := yaoPicks(newGrid(pts), pts, 6)
	return float64(evals) / float64(n)
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

// FuzzYaoPicks decodes bytes into k and up to 64 points on a 16×16 lattice —
// coarse enough that distance ties, duplicates and cone-boundary points are
// the norm — and demands the reference's picks and edges.
func FuzzYaoPicks(f *testing.F) {
	f.Add([]byte{6, 0x00, 0x11, 0x22, 0x33, 0x44})
	f.Add([]byte{1, 0x00, 0x0f, 0xf0, 0xff})
	f.Add([]byte{4, 0x77, 0x77, 0x78, 0x87, 0x88, 0x67})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := int(data[0])%64 + 1
		data = data[1:]
		if len(data) > 64 {
			data = data[:64]
		}
		pts := make([][2]float64, len(data))
		for i, b := range data {
			pts[i] = [2]float64{float64(b >> 4), float64(b & 15)}
		}
		checkAgainstReference(t, pts, k)
	})
}

var benchEdges [][2]int

func BenchmarkYaoEdges(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts := Points(rand.New(rand.NewSource(1)), n)
			_, evals := yaoPicks(newGrid(pts), pts, 6)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchEdges = YaoEdges(pts, 6)
			}
			b.ReportMetric(float64(evals)/float64(n), "evals/point")
		})
	}
}

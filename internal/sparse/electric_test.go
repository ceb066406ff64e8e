package sparse_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/sparse"
)

// flatGraph is the electric graph as graph.FromSystem laid it out before it
// became a view of the CSR: a copy of b, the diagonal, and the off-diagonal
// pattern as one flat adjacency — the neighbours of vertex i are
// nbr[off[i]:off[i+1]], ascending, with the upper-triangle weight A(min,max)
// beside each.
type flatGraph struct {
	diag, sources []float64
	off, nbr      []int
	wt            []float64
}

// flatAdjacency is the replaced build, kept as the oracle of the view.
func flatAdjacency(a *sparse.CSR, b sparse.Vec) *flatGraph {
	n := a.Rows()
	g := &flatGraph{diag: sparse.NewVec(n), sources: b.Clone(), off: make([]int, n+1)}
	for i := 0; i < n; i++ {
		cols, vals := a.RowView(i)
		for k, j := range cols {
			if j == i {
				g.diag[i] = vals[k]
			} else if j > i {
				g.off[i+1]++
				g.off[j+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		g.off[i+1] += g.off[i]
	}
	g.nbr = make([]int, g.off[n])
	g.wt = make([]float64, g.off[n])
	fill := slices.Clone(g.off[:n])
	for i := 0; i < n; i++ {
		cols, vals := a.RowView(i)
		for k, j := range cols {
			if j > i {
				g.nbr[fill[i]], g.wt[fill[i]] = j, vals[k]
				g.nbr[fill[j]], g.wt[fill[j]] = i, vals[k]
				fill[i]++
				fill[j]++
			}
		}
	}
	return g
}

func (g *flatGraph) neighbors(i int) []int { return g.nbr[g.off[i]:g.off[i+1]] }

func (g *flatGraph) edges() []graph.Edge {
	var out []graph.Edge
	for u := range g.diag {
		for k := g.off[u]; k < g.off[u+1]; k++ {
			if v := g.nbr[k]; v > u {
				out = append(out, graph.Edge{U: u, V: v, Weight: g.wt[k]})
			}
		}
	}
	return out
}

// bfs is graph.Electric.BFS as it walked the flat neighbour lists.
func (g *flatGraph) bfs(start int, mark []int32, from, to int32, order []int) ([]int, int) {
	head := len(order)
	mark[start] = to
	order = append(order, start)
	lastLevel, levelEnd := head, len(order)
	for ; head < len(order); head++ {
		if head == levelEnd {
			lastLevel, levelEnd = head, len(order)
		}
		for _, w := range g.neighbors(order[head]) {
			if mark[w] == from {
				mark[w] = to
				order = append(order, w)
			}
		}
	}
	return order, lastLevel
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// checkView compares the view g of (a, b) with the flat adjacency element by
// element: diagonal, sources and edge weights by their bits, neighbours,
// degrees and edges in order, and a breadth-first walk from every vertex,
// once over the whole graph and once confined to the even vertices.
func checkView(t *testing.T, what string, g *graph.Electric, a *sparse.CSR, b sparse.Vec) {
	t.Helper()
	want := flatAdjacency(a, b)
	if g.Order() != len(want.diag) {
		t.Fatalf("%s: Order = %d, want %d", what, g.Order(), len(want.diag))
	}
	for i := range want.diag {
		if !sameBits(g.VertexWeight(i), want.diag[i]) || !sameBits(g.Source(i), want.sources[i]) {
			t.Fatalf("%s: vertex %d weighs %g with source %g, the flat adjacency %g and %g",
				what, i, g.VertexWeight(i), g.Source(i), want.diag[i], want.sources[i])
		}
		if got := slices.Collect(g.Neighbors(i)); !slices.Equal(got, want.neighbors(i)) || g.Degree(i) != len(got) {
			t.Fatalf("%s: vertex %d has neighbours %v (degree %d), the flat adjacency %v", what, i, got, g.Degree(i), want.neighbors(i))
		}
	}
	got, wantEdges := slices.Collect(g.Edges()), want.edges()
	if !slices.EqualFunc(got, wantEdges, func(x, y graph.Edge) bool { return x.U == y.U && x.V == y.V && sameBits(x.Weight, y.Weight) }) {
		t.Fatalf("%s: edges %v, the flat adjacency %v", what, got, wantEdges)
	}
	n := g.Order()
	for start := range n {
		for _, region := range []func(v int) int32{
			func(int) int32 { return 0 },
			func(v int) int32 { return int32(v % 2) },
		} {
			if region(start) != 0 {
				continue
			}
			mark, wantMark := make([]int32, n), make([]int32, n)
			for v := range n {
				mark[v], wantMark[v] = region(v), region(v)
			}
			order, last := g.BFS(start, mark, 0, 2, []int{-1})
			wantOrder, wantLast := want.bfs(start, wantMark, 0, 2, []int{-1})
			if !slices.Equal(order, wantOrder) || last != wantLast || !slices.Equal(mark, wantMark) {
				t.Fatalf("%s: BFS from %d visits %v (deepest level at %d), the flat adjacency %v (%d)", what, start, order, last, wantOrder, wantLast)
			}
		}
	}
}

// randomSymmetricEntries returns the entries of a random n×n matrix with a
// symmetric pattern: off-diagonal values include stored zeros and −0.0, a
// mirror sometimes differs from its entry in the last bits (within
// FromSystem's tolerance), and a diagonal is missing, a stored zero, −0.0
// or a value.
func randomSymmetricEntries(rng *rand.Rand, n int) map[[2]int]float64 {
	entries := map[[2]int]float64{}
	value := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		default:
			return rng.NormFloat64()
		}
	}
	density := rng.Float64()
	for i := range n {
		switch rng.Intn(4) {
		case 0: // missing
		case 1:
			entries[[2]int{i, i}] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		default:
			entries[[2]int{i, i}] = 4 + rng.Float64()
		}
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				v := value()
				entries[[2]int{i, j}] = v
				if rng.Intn(4) == 0 {
					v = math.Nextafter(v, 1)
				}
				entries[[2]int{j, i}] = v
			}
		}
	}
	return entries
}

// TestElectricViewMatchesFlatAdjacency checks the view against the flat
// adjacency it replaced on the systems TestTearGolden tears and on random
// symmetric patterns with missing, stored-zero and −0.0 diagonals.
func TestElectricViewMatchesFlatAdjacency(t *testing.T) {
	for _, source := range []string{
		"grid:rows=13,cols=13,seed=169", "grid:rows=65,cols=65,seed=7", "spanner:n=1000,k=6,seed=1",
		"grid:rows=17,cols=17,seed=3", "saddle:",
	} {
		src, err := sparse.ParseSource(source)
		if err != nil {
			t.Fatal(err)
		}
		sys, _, err := src.Build()
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.FromSystem(sys.A, sys.B)
		if err != nil {
			t.Fatalf("%s: %v", source, err)
		}
		checkView(t, source, g, sys.A, sys.B)
	}
	paper := sparse.PaperExample()
	g, err := graph.FromSystem(paper.A, paper.B)
	if err != nil {
		t.Fatal(err)
	}
	checkView(t, "example 4.1", g, paper.A, paper.B)

	rng := rand.New(rand.NewSource(43))
	for trial := range 300 {
		n := 1 + rng.Intn(20)
		a := sparse.RawCSR(n, randomSymmetricEntries(rng, n))
		b := sparse.NewVec(n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		g, err := graph.FromSystem(a, b)
		if err != nil {
			t.Fatalf("trial %d: a symmetric pattern was refused: %v\n%v", trial, err, a)
		}
		checkView(t, "random", g, a, b)
	}
}

// patternSymmetric reports whether every stored entry of a has a stored
// mirror.
func patternSymmetric(a *sparse.CSR) bool {
	for i := range a.Rows() {
		cols, _ := a.RowView(i)
		for _, j := range cols {
			if mirror, _ := a.RowView(j); !slices.Contains(mirror, i) {
				return false
			}
		}
	}
	return true
}

// FuzzElectricView decodes bytes into a square matrix with stored zeros and
// −0.0, each entry mirrored or not: FromSystem must accept it exactly when
// its pattern is symmetric and its values agree within the tolerance, and an
// accepted graph must match the flat adjacency.
func FuzzElectricView(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 4, 0, 1, 129, 1, 1, 0, 1, 2, 128, 2, 2, 5})
	f.Add([]byte{4, 0, 0, 0, 0, 3, 200, 1, 2, 7, 3, 3, 128, 2, 1, 7})
	f.Add([]byte{2, 0, 129, 5, 1, 1, 6})
	// Stored zeros without their mirrors, which the value check lets pass:
	// A(0,2) and A(2,1), so row 2 has as many entries below its diagonal as
	// the rows above it claim, but not the right ones; and A(1,0) alone.
	f.Add([]byte{2, 0, 0, 4, 1, 1, 4, 2, 2, 4, 129, 2, 0, 128, 1, 0})
	f.Add([]byte{1, 0, 0, 4, 1, 1, 4, 129, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%12
		value := func(c byte) float64 {
			switch {
			case c == 0:
				return 0
			case c == 128:
				return math.Copysign(0, -1)
			case c >= 250:
				return float64(int(c)-252) / 2
			default:
				return float64(int8(c))
			}
		}
		entries := map[[2]int]float64{}
		// Each triplet stores (i, j) and, when i's byte is below 128, (j, i)
		// with the same value.
		for k := 1; k+2 < len(data) && k < 1+3*48; k += 3 {
			i, j, v := int(data[k])%n, int(data[k+1])%n, value(data[k+2])
			entries[[2]int{i, j}] = v
			if data[k] < 128 {
				entries[[2]int{j, i}] = v
			}
		}
		a := sparse.RawCSR(n, entries)
		b := sparse.NewVec(n)
		for i := range b {
			b[i] = float64(i) - 0.5
		}
		g, err := graph.FromSystem(a, b)
		symmetric := patternSymmetric(a) && sparse.IsSymmetricOracle(a, 1e-9*(1+a.MaxAbs()))
		if (err == nil) != symmetric {
			t.Fatalf("FromSystem err = %v on a matrix whose pattern and values are symmetric: %v\n%v", err, symmetric, a)
		}
		if err == nil {
			checkView(t, "fuzz", g, a, b)
		}
	})
}

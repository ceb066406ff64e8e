package graph

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

func paperGraph(t *testing.T) *Electric {
	t.Helper()
	sys := sparse.PaperExample()
	g, err := FromSystem(sys.A, sys.B)
	if err != nil {
		t.Fatalf("FromSystem: %v", err)
	}
	return g
}

// fromEdges builds the graph on n vertices with the given unit-conductance
// edges (weight −1) and a dominant diagonal.
func fromEdges(t *testing.T, n int, edges [][2]int) *Electric {
	t.Helper()
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4)
	}
	for _, e := range edges {
		coo.AddSym(e[0], e[1], -1)
	}
	g, err := FromSystem(coo.ToCSR(), sparse.NewVec(n))
	if err != nil {
		t.Fatalf("FromSystem: %v", err)
	}
	return g
}

func TestFromSystemPaperExample(t *testing.T) {
	g := paperGraph(t)
	if g.Order() != 4 {
		t.Fatalf("Order = %d, want 4", g.Order())
	}
	// Fig. 3: V1-V2, V1-V3, V2-V3, V2-V4, V3-V4 — five edges, no V1-V4 edge.
	if m := len(slices.Collect(g.Edges())); m != 5 {
		t.Errorf("%d edges, want 5", m)
	}
	if slices.Contains(slices.Collect(g.Neighbors(0)), 3) || slices.Contains(slices.Collect(g.Neighbors(3)), 0) {
		t.Errorf("V1 and V4 must not be connected (a_14 = 0)")
	}
	if !slices.Contains(slices.Collect(g.Edges()), Edge{U: 1, V: 2, Weight: -2}) {
		t.Errorf("edge V2-V3 with weight -2 missing from %+v", slices.Collect(g.Edges()))
	}
	if !slices.Contains(slices.Collect(g.Neighbors(2)), 1) {
		t.Errorf("edges are undirected; V3 must list V2")
	}
	// Vertex weights are the diagonal, sources the right-hand side, potentials
	// initially unknown.
	for i, want := range []float64{5, 6, 7, 8} {
		if got := g.VertexWeight(i); got != want {
			t.Errorf("VertexWeight(%d) = %g, want %g", i, got, want)
		}
	}
	for i, want := range []float64{1, 2, 3, 4} {
		if got := g.Source(i); got != want {
			t.Errorf("Source(%d) = %g, want %g", i, got, want)
		}
	}
}

func TestFromSystemErrors(t *testing.T) {
	rect := sparse.NewCSRFromDense([][]float64{{1, 2, 3}, {4, 5, 6}}, 0)
	if _, err := FromSystem(rect, sparse.Vec{1, 2}); err == nil {
		t.Errorf("non-square matrix must be rejected")
	}
	asym := sparse.NewCSRFromDense([][]float64{{1, 2}, {3, 1}}, 0)
	if _, err := FromSystem(asym, sparse.Vec{1, 2}); err == nil {
		t.Errorf("non-symmetric matrix must be rejected")
	}
	sym := sparse.NewCSRFromDense([][]float64{{2, -1}, {-1, 2}}, 0)
	if _, err := FromSystem(sym, sparse.Vec{1}); err == nil {
		t.Errorf("dimension mismatch must be rejected")
	}
	// Within the value tolerance, but stored on one side only: the rows of A
	// are the adjacency, so the pattern must be symmetric too.
	for _, pos := range [][2]int{{0, 1}, {1, 0}} {
		coo := sparse.NewCOO(2, 2)
		coo.Add(0, 0, 2)
		coo.Add(1, 1, 2)
		coo.Add(pos[0], pos[1], 1e-12)
		if _, err := FromSystem(coo.ToCSR(), sparse.Vec{1, 2}); err == nil {
			t.Errorf("an entry at %v without its mirror must be rejected", pos)
		}
	}
}

func TestNeighborsAndDegree(t *testing.T) {
	g := paperGraph(t)
	nb := slices.Collect(g.Neighbors(1))
	if len(nb) != 3 {
		t.Errorf("V2 neighbours = %v, want 3 of them", nb)
	}
	seen := map[int]bool{}
	for _, j := range nb {
		seen[j] = true
	}
	if !seen[0] || !seen[2] || !seen[3] {
		t.Errorf("V2 must neighbour V1, V3, V4; got %v", nb)
	}
	if d := g.Degree(0); d != 2 {
		t.Errorf("V1 degree = %d, want 2", d)
	}
}

func TestEdgesListMatchesCount(t *testing.T) {
	a := sparse.PaperExample().A
	g := paperGraph(t)
	edges := slices.Collect(g.Edges())
	if !slices.IsSortedFunc(edges, func(a, b Edge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) }) {
		t.Errorf("edges are not in ascending (U,V) order: %+v", edges)
	}
	if want := (a.NNZ() - a.Rows()) / 2; len(edges) != want {
		t.Fatalf("Edges() returned %d edges, the off-diagonal pattern has %d", len(edges), want)
	}
	for _, e := range edges {
		if e.U >= e.V {
			t.Errorf("edge list entry without U < V: %+v", e)
		}
		if e.Weight != a.At(e.U, e.V) {
			t.Errorf("edge list weight mismatch for %+v", e)
		}
	}
}

func TestConnectivityHelpers(t *testing.T) {
	g := paperGraph(t)
	if order, _ := g.BFS(0, make([]int32, 4), 0, 1, nil); len(order) != 4 {
		t.Errorf("the paper graph is connected, BFS from V1 reached %v", order)
	}

	// Two disconnected pairs.
	h := fromEdges(t, 4, [][2]int{{0, 1}, {2, 3}})
	mark := make([]int32, 4)
	order, last := h.BFS(0, mark, 0, 1, nil)
	if !slices.Equal(order, []int{0, 1}) || last != 1 {
		t.Errorf("BFS from 0 = %v (deepest level at %d), want [0 1] and 1", order, last)
	}
	if !slices.Equal(mark, []int32{1, 1, 0, 0}) {
		t.Errorf("unreachable vertices must keep their mark: %v", mark)
	}
}

func TestBFSLevelsPath(t *testing.T) {
	// A path 0-1-2-3 walked from 1: levels {1}, {0,2}, {3}.
	g := fromEdges(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	order, last := g.BFS(1, make([]int32, 4), 0, 1, nil)
	if !slices.Equal(order, []int{1, 0, 2, 3}) || last != 3 {
		t.Errorf("BFS from 1 = %v (deepest level at %d), want [1 0 2 3] and 3", order, last)
	}
	// The mark is the region mask: with vertex 2 stamped differently the walk
	// stays on {0, 1}, and it appends to what order already holds.
	mark := []int32{7, 7, 0, 7}
	order, last = g.BFS(0, mark, 7, 8, []int{9})
	if !slices.Equal(order, []int{9, 0, 1}) || last != 2 {
		t.Errorf("masked BFS = %v (deepest level at %d), want [9 0 1] and 2", order, last)
	}
	if !slices.Equal(mark, []int32{8, 8, 0, 7}) {
		t.Errorf("masked BFS left marks %v, want [8 8 0 7]", mark)
	}
}

// Property: the sum of all vertex degrees equals twice the number of edges.
func TestHandshakeLemmaProperty(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := 2 + int(rawN%25)
		sys := sparse.RandomSPD(n, 0.25, seed)
		g, err := FromSystem(sys.A, sys.B)
		if err != nil {
			return false
		}
		total := 0
		for i := 0; i < g.Order(); i++ {
			total += g.Degree(i)
		}
		return total == 2*len(slices.Collect(g.Edges()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Package graph implements the "electric graph" of Section 3 of the paper:
// the weighted undirected graph of a symmetric linear system A x = b in which
// vertex i carries weight a_ii (its self-admittance), source b_i (its injected
// current) and potential x_i, while edge {i,j} carries weight a_ij. The
// electric graph is one-to-one with the symmetric system, and Electric Vertex
// Splitting (package partition) operates on this representation.
//
// The graph is a read-only view of the system it was built from: the
// neighbours of vertex i are the columns of row i of A's CSR, the edge
// weights are A's entries and the sources are b itself. FromSystem checks
// that A is symmetric, in pattern and within a tolerance in value, and keeps
// only the diagonal beside it, so every traversal order — neighbours
// ascending, edges ascending by (U, V) — is A's own row order.
package graph

import (
	"fmt"
	"iter"
	"slices"

	"repro/internal/sparse"
)

// Edge is an undirected weighted edge between two vertices.
type Edge struct {
	U, V   int
	Weight float64
}

// Electric is the electric graph of a symmetric linear system. It holds A
// and b, which must not be modified while the graph is in use.
type Electric struct {
	a    *sparse.CSR // the system matrix: its rows are the adjacency
	b    sparse.Vec  // vertex sources b_i
	diag sparse.Vec  // vertex weights a_ii
}

// FromSystem builds the electric graph of the symmetric system (A, b).
// It returns an error when A is not square, its dimension does not match b,
// or it is not symmetric: an entry that differs from its mirror by more than
// 1e-9·(1 + max|a_ij|), or one stored without its mirror. Edge {i,j}, i < j,
// carries the upper-triangle entry A(i,j).
func FromSystem(a *sparse.CSR, b sparse.Vec) (*Electric, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("graph: matrix is %dx%d, not square", a.Rows(), a.Cols())
	}
	if len(b) != a.Rows() {
		return nil, fmt.Errorf("graph: rhs length %d does not match matrix dimension %d", len(b), a.Rows())
	}
	if !a.IsSymmetric(1e-9 * (1 + a.MaxAbs())) {
		return nil, fmt.Errorf("graph: matrix is not symmetric")
	}
	n := a.Rows()
	g := &Electric{a: a, b: b, diag: sparse.NewVec(n)}
	// The rows are the adjacency, so the pattern must be symmetric too. Rows
	// are scanned in ascending order, so the entries below the diagonal of
	// row j meet their mirrors in their own order: mirrored[j] counts those
	// met so far, and all of them have been by the time row j is reached.
	mirrored := make([]int, n)
	for i := range n {
		cols, vals := a.RowView(i)
		k, diag := slices.BinarySearch(cols, i)
		if mirrored[i] != k {
			return nil, fmt.Errorf("graph: matrix pattern is not symmetric: A(%d,%d) is stored, A(%d,%d) is not", i, cols[mirrored[i]], cols[mirrored[i]], i)
		}
		if diag {
			g.diag[i] = vals[k]
			k++
		}
		for _, j := range cols[k:] {
			if mcols, _ := a.RowView(j); mirrored[j] == len(mcols) || mcols[mirrored[j]] != i {
				return nil, fmt.Errorf("graph: matrix pattern is not symmetric: A(%d,%d) is stored, A(%d,%d) is not", i, j, j, i)
			}
			mirrored[j]++
		}
	}
	return g, nil
}

// Order returns the number of vertices.
func (g *Electric) Order() int { return len(g.diag) }

// VertexWeight returns a_ii.
func (g *Electric) VertexWeight(i int) float64 { return g.diag[i] }

// Source returns b_i.
func (g *Electric) Source(i int) float64 { return g.b[i] }

// Neighbors visits the neighbours of vertex i in ascending order: the columns
// of row i of A other than i itself.
func (g *Electric) Neighbors(i int) iter.Seq[int] {
	return func(yield func(int) bool) {
		cols, _ := g.a.RowView(i)
		for _, j := range cols {
			if j != i && !yield(j) {
				return
			}
		}
	}
}

// Degree returns the number of neighbours of vertex i.
func (g *Electric) Degree(i int) int {
	cols, _ := g.a.RowView(i)
	if _, diag := slices.BinarySearch(cols, i); diag {
		return len(cols) - 1
	}
	return len(cols)
}

// Edges visits all undirected edges with U < V in ascending (U, V) order.
func (g *Electric) Edges() iter.Seq[Edge] {
	return func(yield func(Edge) bool) {
		for u := range g.diag {
			cols, vals := g.a.RowView(u)
			k, _ := slices.BinarySearch(cols, u+1)
			for q, v := range cols[k:] {
				if !yield(Edge{U: u, V: v, Weight: vals[k+q]}) {
					return
				}
			}
		}
	}
}

// BFS is the one breadth-first traversal every consumer of the graph shares.
// It visits the vertices reachable from start through vertices v with
// mark[v] == from, taking neighbours in ascending order, sets the mark of each
// visited vertex to to (which must differ from from) and appends them to order
// in visiting order; order's free capacity is the queue. It returns the
// extended order and the index in it at which the deepest level begins.
//
// The mark doubles as the region mask: a caller confines the walk to a vertex
// set by stamping that set with a value no other vertex holds, and walks the
// same set again from another start by asking for from = the previous to.
func (g *Electric) BFS(start int, mark []int32, from, to int32, order []int) (out []int, lastLevel int) {
	head := len(order)
	mark[start] = to
	order = append(order, start)
	lastLevel, levelEnd := head, len(order)
	for ; head < len(order); head++ {
		if head == levelEnd {
			lastLevel, levelEnd = head, len(order)
		}
		// The walk reads the whole row: the vertex's own column is skipped
		// because its mark is already to.
		cols, _ := g.a.RowView(order[head])
		for _, w := range cols {
			if mark[w] == from {
				mark[w] = to
				order = append(order, w)
			}
		}
	}
	return order, lastLevel
}

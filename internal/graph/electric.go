// Package graph implements the "electric graph" of Section 3 of the paper:
// the weighted undirected graph of a symmetric linear system A x = b in which
// vertex i carries weight a_ii (its self-admittance), source b_i (its injected
// current) and potential x_i, while edge {i,j} carries weight a_ij. The
// electric graph is one-to-one with the symmetric system, and Electric Vertex
// Splitting (package partition) operates on this representation.
//
// The graph is a read-only view of the system it was built from: FromSystem
// lays the off-diagonal part of the CSR out as one flat adjacency (offsets,
// neighbours, weights) in a single O(nnz) pass and nothing mutates it
// afterwards, so it can be shared freely and every traversal order —
// neighbours ascending, edges ascending by (U, V) — is fixed by construction.
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

// Electric is the electric graph of a symmetric linear system.
type Electric struct {
	a       *sparse.CSR // the system matrix the graph was built from
	diag    sparse.Vec  // vertex weights a_ii
	sources sparse.Vec  // vertex sources b_i
	// The neighbours of vertex i are nbr[off[i]:off[i+1]], ascending, and
	// wt holds the edge weights a_ij beside them.
	off []int
	nbr []int
	wt  []float64
}

// FromSystem builds the electric graph of the symmetric system (A, b).
// It returns an error when A is not square, not symmetric, or its dimension
// does not match b. Edge {i,j}, i < j, carries the upper-triangle entry
// A(i,j) in both directions.
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
	g := &Electric{a: a, diag: sparse.NewVec(n), sources: b.Clone(), off: make([]int, n+1)}
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
	// Scanning rows in ascending order fills every list in ascending order:
	// the neighbours below i arrive from their own (earlier) rows, the ones
	// above i from row i itself. fill[i] is the next free slot of vertex i.
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
	return g, nil
}

// Order returns the number of vertices.
func (g *Electric) Order() int { return len(g.diag) }

// VertexWeight returns a_ii.
func (g *Electric) VertexWeight(i int) float64 { return g.diag[i] }

// Source returns b_i.
func (g *Electric) Source(i int) float64 { return g.sources[i] }

// Neighbors returns the neighbours of vertex i: ascending, without i itself,
// and read-only — the slice is a view of the graph's storage, shared by every
// caller, and must not be modified.
func (g *Electric) Neighbors(i int) []int { return g.nbr[g.off[i]:g.off[i+1]] }

// Edges visits all undirected edges with U < V in ascending (U, V) order.
func (g *Electric) Edges() iter.Seq[Edge] {
	return func(yield func(Edge) bool) {
		for u := range g.diag {
			for k := g.off[u]; k < g.off[u+1]; k++ {
				if v := g.nbr[k]; v > u && !yield(Edge{U: u, V: v, Weight: g.wt[k]}) {
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
		for _, w := range g.Neighbors(order[head]) {
			if mark[w] == from {
				mark[w] = to
				order = append(order, w)
			}
		}
	}
	return order, lastLevel
}

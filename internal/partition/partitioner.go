// Package partition implements graph partitioning and Electric Vertex
// Splitting (EVS, Section 4 of the paper, also called "wire tearing").
//
// A partitioner assigns every vertex of the electric graph to one of N parts.
// EVS then splits every boundary vertex (a vertex with a neighbour in another
// part) into one copy per adjacent part, splits its weight, source and
// boundary edges so that the per-part subsystems sum back to the original
// system, and records the twin links between copies — the places where the DTM
// engine will insert directed transmission line pairs (DTLPs).
//
// The graph is read-only and its orders are fixed (neighbours ascending, edges
// ascending by (U, V)), so every partitioner and EVS are deterministic without
// sorting anything they are handed. LevelSetGrow runs on graph.BFS; EVS keeps its per-vertex state in slices and walks the edge set
// once.
package partition

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// Assignment maps each vertex of a graph to a part in [0, NumParts).
type Assignment struct {
	Parts  int
	Assign []int
}

// Validate checks that the assignment is well formed for a graph with n
// vertices: every vertex has a part in range and every part is non-empty.
func (a Assignment) Validate(n int) error {
	if len(a.Assign) != n {
		return fmt.Errorf("partition: assignment covers %d vertices, graph has %d", len(a.Assign), n)
	}
	if a.Parts <= 0 {
		return fmt.Errorf("partition: number of parts must be positive, got %d", a.Parts)
	}
	counts := make([]int, a.Parts)
	for v, p := range a.Assign {
		if p < 0 || p >= a.Parts {
			return fmt.Errorf("partition: vertex %d assigned to part %d, out of range [0,%d)", v, p, a.Parts)
		}
		counts[p]++
	}
	for p, c := range counts {
		if c == 0 {
			return fmt.Errorf("partition: part %d is empty", p)
		}
	}
	return nil
}

// PartSizes returns the number of vertices assigned to each part.
func (a Assignment) PartSizes() []int {
	counts := make([]int, a.Parts)
	for _, p := range a.Assign {
		if p >= 0 && p < a.Parts {
			counts[p]++
		}
	}
	return counts
}

// Imbalance returns max part size divided by the ideal size n/Parts.
func (a Assignment) Imbalance() float64 {
	sizes := a.PartSizes()
	max := 0
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	ideal := float64(len(a.Assign)) / float64(a.Parts)
	if ideal == 0 {
		return 1
	}
	return float64(max) / ideal
}

// GridBlocks assigns the vertices of an nx×ny grid (vertex index ix + iy*nx)
// to a px×py block grid of parts. Part (bx, by) has index bx + by*px;
// GridBlocks(n, 1, parts, 1) cuts a chain into contiguous strips. This is
// the "regular partitioning" the paper uses on its grid-structured systems,
// and composed with EVS it yields exactly the level-one / level-two mixed wire
// tearing of Section 4 (edge vertices split in two, block-corner vertices split
// further).
func GridBlocks(nx, ny, px, py int) Assignment {
	if nx <= 0 || ny <= 0 || px <= 0 || py <= 0 || px > nx || py > ny {
		panic(fmt.Sprintf("partition: GridBlocks invalid configuration grid=%dx%d parts=%dx%d", nx, ny, px, py))
	}
	assign := make([]int, nx*ny)
	for iy := 0; iy < ny; iy++ {
		by := iy * py / ny
		if by >= py {
			by = py - 1
		}
		for ix := 0; ix < nx; ix++ {
			bx := ix * px / nx
			if bx >= px {
				bx = px - 1
			}
			assign[ix+iy*nx] = bx + by*px
		}
	}
	return Assignment{Parts: px * py, Assign: assign}
}

// LevelSetGrow partitions a general graph into `parts` balanced pieces by
// walking the vertices in breadth-first order from a pseudo-peripheral vertex
// and cutting the ordering into equal chunks. The start is found by the
// standard double-BFS heuristic: walk from vertex 0, move to the smallest
// vertex of the deepest level, and walk again. Contiguity of each part is good
// for connected graphs with small diameter growth (grids, meshes, circuits).
// Vertices unreachable from the start follow, each remaining component walked
// from its smallest vertex, so the order always covers the whole graph.
func LevelSetGrow(g *graph.Electric, parts int) Assignment {
	n := g.Order()
	if parts <= 0 || n < parts {
		panic(fmt.Sprintf("partition: LevelSetGrow needs 1 <= parts <= n, got n=%d parts=%d", n, parts))
	}
	// Marks: 0 unvisited, 2 the start's component after the two walks that
	// find the start, 3 placed in the order.
	mark := make([]int32, n)
	order := make([]int, 0, n)
	start := 0
	for pass := int32(0); pass < 2; pass++ {
		walk, last := g.BFS(start, mark, pass, pass+1, order)
		start = slices.Min(walk[last:])
	}
	order, _ = g.BFS(start, mark, 2, 3, order)
	for v := range mark {
		if mark[v] == 0 {
			order, _ = g.BFS(v, mark, 0, 3, order)
		}
	}
	assign := make([]int, n)
	for rank, v := range order {
		assign[v] = rank * parts / n
	}
	return Assignment{Parts: parts, Assign: assign}
}

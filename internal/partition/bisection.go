package partition

import (
	"slices"

	"repro/internal/graph"
)

// RecursiveBisection partitions a general electric graph into `parts` pieces
// by recursive BFS bisection: each region is ordered breadth-first from a
// pseudo-peripheral vertex of the region and cut into two halves whose target
// sizes follow the number of parts requested on each side. Compared with
// LevelSetGrow it produces more compact, lower-edge-cut parts on long thin
// graphs, at the cost of a little more work; both are deterministic.
//
// parts may be any positive number (it does not have to be a power of two).
func RecursiveBisection(g *graph.Electric, parts int) Assignment {
	n := g.Order()
	if parts <= 1 || n == 0 {
		return Assignment{Parts: max(parts, 1), Assign: make([]int, n)}
	}
	if parts > n {
		parts = n
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	b := bisector{g: g, assign: make([]int, n), mark: make([]int32, n), stamp: 1, scratch: make([]int, 0, n)}
	b.bisect(all, parts)
	return Assignment{Parts: b.next, Assign: b.assign}
}

// bisector is the state the recursion shares: the output, the next free part
// id, and the BFS mark array with the queue buffer, both sized once for the
// whole graph and reused by every region.
type bisector struct {
	g       *graph.Electric
	assign  []int
	next    int
	mark    []int32
	stamp   int32 // the smallest mark value no vertex holds yet
	scratch []int
}

// bisect assigns the vertices of region to `parts` consecutive part ids. It
// reorders region in place.
func (b *bisector) bisect(region []int, parts int) {
	if parts <= 1 || len(region) <= 1 {
		for _, v := range region {
			b.assign[v] = b.next
		}
		b.next++
		return
	}
	left := parts / 2
	b.orderBreadthFirst(region)
	cut := min(max(len(region)*left/parts, 1), len(region)-1)
	b.bisect(region[:cut], left)
	b.bisect(region[cut:], parts-left)
}

// orderBreadthFirst reorders the region breadth-first from a pseudo-peripheral
// vertex of it (the last vertex two walks from its smallest vertex reach),
// visiting only edges whose endpoints both lie inside the region; vertices of
// the region unreachable that way follow in ascending order.
func (b *bisector) orderBreadthFirst(region []int) {
	m := b.stamp
	b.stamp += 4
	for _, v := range region {
		b.mark[v] = m
	}
	last := func(deepest []int) int { return deepest[len(deepest)-1] }
	start := peripheral(b.g, slices.Min(region), b.mark, m, b.scratch, last)
	order, _ := b.g.BFS(start, b.mark, m+2, m+3, b.scratch[:0])
	if reached := len(order); reached < len(region) {
		for _, v := range region {
			if b.mark[v] != m+3 {
				order = append(order, v)
			}
		}
		slices.Sort(order[reached:])
	}
	copy(region, order)
}

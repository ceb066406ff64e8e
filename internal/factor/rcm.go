package factor

import (
	"fmt"
	"sort"

	"repro/internal/sparse"
)

// Perm is a vertex ordering: perm[new] = old, so applying it relabels old
// index perm[i] as new index i. The sparse Cholesky backend factorises the
// symmetrically permuted matrix C = A(perm, perm) and translates right-hand
// sides and solutions through the permutation on every solve.
type Perm []int

// Check validates that p is a permutation of 0..len(p)-1.
func (p Perm) Check() error {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return fmt.Errorf("factor: not a permutation of 0..%d: %v", len(p)-1, p)
		}
		seen[v] = true
	}
	return nil
}

// IsIdentity reports whether p maps every index to itself.
func (p Perm) IsIdentity() bool {
	for i, v := range p {
		if i != v {
			return false
		}
	}
	return true
}

// RCM computes the reverse Cuthill–McKee ordering of the symmetric sparsity
// pattern of a: a breadth-first ordering from a pseudo-peripheral vertex with
// neighbours visited in increasing-degree order, reversed. On banded and grid
// patterns it concentrates the factor's fill near the diagonal, which is what
// makes the sparse Cholesky backend scale. The ordering is deterministic (all
// ties break towards the smaller vertex index).
func RCM(a *sparse.CSR) Perm {
	n := a.Rows()
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		cols, _ := a.RowView(i)
		for _, j := range cols {
			if j != i {
				deg[i]++
			}
		}
	}
	visited := make([]bool, n)
	order := make([]int, 0, n)
	// BFS scratch for the pseudo-peripheral search: level is only trusted for
	// vertices whose mark carries the current stamp (stamps start at 1, so the
	// zero-valued mark array needs no initialisation).
	bfs := &bfsScratch{level: make([]int, n), mark: make([]int, n), queue: make([]int, 0, n)}
	var nbrs []int

	for start := 0; start < n; {
		// Root of the next component: the unvisited vertex of minimum degree.
		root := -1
		for v := 0; v < n; v++ {
			if !visited[v] && (root == -1 || deg[v] < deg[root]) {
				root = v
			}
		}
		if root == -1 {
			break
		}
		root = pseudoPeripheral(a, root, deg, visited, bfs)

		// Cuthill–McKee breadth-first sweep of the component.
		compStart := len(order)
		visited[root] = true
		order = append(order, root)
		for i := compStart; i < len(order); i++ {
			v := order[i]
			nbrs = nbrs[:0]
			cols, _ := a.RowView(v)
			for _, j := range cols {
				if j != v && !visited[j] {
					visited[j] = true
					nbrs = append(nbrs, j)
				}
			}
			sort.Slice(nbrs, func(x, y int) bool {
				if deg[nbrs[x]] != deg[nbrs[y]] {
					return deg[nbrs[x]] < deg[nbrs[y]]
				}
				return nbrs[x] < nbrs[y]
			})
			order = append(order, nbrs...)
		}
		start = len(order)
	}
	// Reverse: the R in RCM (shrinks the factor's profile vs plain CM).
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return Perm(order)
}

type bfsScratch struct {
	level []int
	mark  []int
	queue []int
	stamp int
}

// pseudoPeripheral runs the George–Liu heuristic: BFS from the root, move the
// root to a minimum-degree vertex of the last level, and repeat while the
// eccentricity keeps growing (capped, since the loop almost always settles in
// two or three sweeps).
func pseudoPeripheral(a *sparse.CSR, root int, deg []int, visited []bool, bfs *bfsScratch) int {
	ecc := bfsLevels(a, root, visited, bfs)
	for sweep := 0; sweep < 8; sweep++ {
		// Minimum-degree vertex of the deepest level (ties to smaller index).
		candidate := -1
		for _, v := range bfs.queue {
			if bfs.level[v] == ecc && (candidate == -1 || deg[v] < deg[candidate]) {
				candidate = v
			}
		}
		if candidate == -1 || candidate == root {
			break
		}
		cecc := bfsLevels(a, candidate, visited, bfs)
		if cecc <= ecc {
			break
		}
		root, ecc = candidate, cecc
	}
	return root
}

// bfsLevels breadth-first-searches the unvisited component of root, writing
// per-vertex levels and the traversal into the scratch. It returns the
// eccentricity (the deepest level reached).
func bfsLevels(a *sparse.CSR, root int, visited []bool, bfs *bfsScratch) int {
	bfs.stamp++
	q := bfs.queue[:0]
	q = append(q, root)
	bfs.level[root] = 0
	bfs.mark[root] = bfs.stamp
	ecc := 0
	for i := 0; i < len(q); i++ {
		v := q[i]
		cols, _ := a.RowView(v)
		for _, j := range cols {
			if j == v || visited[j] || bfs.mark[j] == bfs.stamp {
				continue
			}
			bfs.mark[j] = bfs.stamp
			bfs.level[j] = bfs.level[v] + 1
			if bfs.level[j] > ecc {
				ecc = bfs.level[j]
			}
			q = append(q, j)
		}
	}
	bfs.queue = q
	return ecc
}

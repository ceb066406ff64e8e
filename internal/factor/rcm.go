package factor

import (
	"fmt"
	"slices"

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
// ties break towards the smaller vertex index). Its permutation is the one
// the implementation it replaced computed, kept as the oracle in
// symbolic_oracle_test.go.
func RCM(a *sparse.CSR) Perm {
	n := a.Rows()
	w := getWorkspace()
	defer w.release()
	deg := w.take(n)
	maxDeg := int32(0)
	for i := 0; i < n; i++ {
		cols, _ := a.RowView(i)
		d := int32(0)
		for _, j := range cols {
			if j != i {
				d++
			}
		}
		deg[i] = d
		maxDeg = max(maxDeg, d)
	}
	// byDeg lists the vertices in (degree, index) order — a counting sort —
	// so each component's root, the unvisited vertex of least degree and
	// index, is the first unvisited entry past a cursor that only advances.
	byDeg := degreeOrder(w, deg, maxDeg)
	visited := w.filled(n, 0)
	order := make([]int, 0, n)
	// BFS scratch for the pseudo-peripheral search: level is only trusted for
	// vertices whose mark carries the current stamp (stamps start at 1, so the
	// zeroed mark array needs no other initialisation).
	bfs := bfsScratch{level: w.take(n), mark: w.filled(n, 0), queue: w.take(n)}
	keys := make([]int64, 0, 16)

	cursor := 0
	for len(order) < n {
		for visited[byDeg[cursor]] != 0 {
			cursor++
		}
		root := pseudoPeripheral(a, int(byDeg[cursor]), deg, visited, &bfs)

		// Cuthill–McKee breadth-first sweep of the component, each vertex's
		// new neighbours in (degree, index) order. The order is total, so
		// sorting the packed keys gives the permutation any sort would.
		compStart := len(order)
		visited[root] = 1
		order = append(order, root)
		for i := compStart; i < len(order); i++ {
			v := order[i]
			keys = keys[:0]
			cols, _ := a.RowView(v)
			for _, j := range cols {
				if j != v && visited[j] == 0 {
					visited[j] = 1
					keys = append(keys, int64(deg[j])<<32|int64(j))
				}
			}
			sortInt64(keys)
			for _, k := range keys {
				order = append(order, int(k&0xffffffff))
			}
		}
	}
	// Reverse: the R in RCM (shrinks the factor's profile vs plain CM).
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return Perm(order)
}

// degreeOrder returns the vertices sorted by (degree, index): a stable
// counting sort on the degree.
func degreeOrder(w *workspace, deg []int32, maxDeg int32) []int32 {
	start := w.filled(int(maxDeg)+2, 0)
	for _, d := range deg {
		start[d+1]++
	}
	for d := 1; d < len(start); d++ {
		start[d] += start[d-1]
	}
	out := w.take(len(deg))
	for v, d := range deg {
		out[start[d]] = int32(v)
		start[d]++
	}
	return out
}

// sortInt64 sorts small key slices by insertion and hands longer ones to
// slices.Sort (neither allocates).
func sortInt64(s []int64) {
	if len(s) > 16 {
		slices.Sort(s)
		return
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

type bfsScratch struct {
	level []int32
	mark  []int32
	queue []int32
	stamp int32
}

// pseudoPeripheral runs the George–Liu heuristic: BFS from the root, move the
// root to a minimum-degree vertex of the last level, and repeat while the
// eccentricity keeps growing (capped, since the loop almost always settles in
// two or three sweeps).
func pseudoPeripheral(a *sparse.CSR, root int, deg, visited []int32, bfs *bfsScratch) int {
	ecc := bfsLevels(a, root, visited, bfs)
	for sweep := 0; sweep < 8; sweep++ {
		// Minimum-degree vertex of the deepest level (ties to smaller index).
		candidate := -1
		for _, v := range bfs.queue {
			if bfs.level[v] == ecc && (candidate == -1 || deg[v] < deg[candidate]) {
				candidate = int(v)
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
// per-vertex levels and the traversal into the scratch (bfs.queue is
// resliced to it). It returns the eccentricity (the deepest level reached).
func bfsLevels(a *sparse.CSR, root int, visited []int32, bfs *bfsScratch) int32 {
	bfs.stamp++
	q := bfs.queue[:cap(bfs.queue)]
	q[0] = int32(root)
	tail := 1
	bfs.level[root] = 0
	bfs.mark[root] = bfs.stamp
	ecc := int32(0)
	for i := 0; i < tail; i++ {
		v := int(q[i])
		cols, _ := a.RowView(v)
		for _, j := range cols {
			if j == v || visited[j] != 0 || bfs.mark[j] == bfs.stamp {
				continue
			}
			bfs.mark[j] = bfs.stamp
			bfs.level[j] = bfs.level[v] + 1
			if bfs.level[j] > ecc {
				ecc = bfs.level[j]
			}
			q[tail] = int32(j)
			tail++
		}
	}
	bfs.queue = q[:tail]
	return ecc
}

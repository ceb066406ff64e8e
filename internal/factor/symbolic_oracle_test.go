package factor

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sparse"
)

// The symbolic phase as it was before Analyze: the lazy-heap AMD with one
// slice per vertex and per step, the RCM that rescans every vertex for each
// component's root and sorts neighbours through a closure, NewCholesky's own
// elimination tree and ereach counting pass, and the supernodal front half
// that materialises PAPᵀ twice. They are the oracles the orderings, the
// analysis and the factors built on it must match exactly
// (TestOrderingsMatchOracle, TestAnalyzeMatchesOracle and their fuzzers).

// fillReducingOracle is fillReducing on the oracle orderings (ND's leaves
// run the production AMD, which TestOrderingsMatchOracle holds to its
// oracle).
func fillReducingOracle(a *sparse.CSR, order Ordering) Perm {
	var p Perm
	switch order {
	case OrderRCM:
		p = rcmOracle(a)
	case OrderAMD:
		p, _ = amdOrderOracle(a)
	case OrderND:
		p = ND(a)
	default:
		return nil
	}
	if p.IsIdentity() {
		return nil
	}
	return p
}

// amdOrderOracle is amdOrder as it was: a lazy-deletion heap that skips
// stale entries, and one slice per variable, element and boundary.
func amdOrderOracle(a *sparse.CSR) (Perm, amdStats) {
	var stats amdStats
	n := a.Rows()
	perm := make(Perm, 0, n)

	// Variable adjacency (off-diagonal, pruned in place as the elimination
	// proceeds), per-variable element lists, and supervariable sizes. Element
	// e is the vertex whose elimination created it; bound[e] is its boundary
	// Le and boundSize[e] the live supervariable mass of that boundary.
	adj := make([][]int32, n)
	elems := make([][]int32, n)
	bound := make([][]int32, n)
	boundSize := make([]int, n)
	deg := make([]int, n)
	nv := make([]int, n)
	sub := make([][]int32, n) // supervariables absorbed into this principal
	for i := 0; i < n; i++ {
		cols, _ := a.RowView(i)
		row := make([]int32, 0, len(cols))
		for _, j := range cols {
			if j != i {
				row = append(row, int32(j))
			}
		}
		adj[i] = row
		deg[i] = len(row)
		nv[i] = 1
	}

	var (
		eliminated = make([]bool, n)
		deadElem   = make([]bool, n)
		mark       = make([]int, n) // Lp membership, stamped per elimination
		wseen      = make([]int, n) // |Le \ Lp| computation stamp
		w          = make([]int, n) // |Le \ Lp| per alive element (size-weighted)
		hseen      = make([]int, n) // hash-bucket stamp
		hhead      = make([]int32, n)
		hnext      = make([]int32, n)
		lp         = make([]int32, 0, n)
		emitStack  = make([]int32, 0, 16)
	)
	for i := range mark {
		mark[i], wseen[i], hseen[i] = -1, -1, -1
	}

	// emit appends a principal variable and, transitively, every
	// supervariable it absorbed (each group in absorption order).
	emit := func(v int32) {
		emitStack = append(emitStack[:0], v)
		for len(emitStack) > 0 {
			u := emitStack[len(emitStack)-1]
			emitStack = emitStack[:len(emitStack)-1]
			perm = append(perm, int(u))
			// Push in reverse so absorbed members emit in absorption order.
			for t := len(sub[u]) - 1; t >= 0; t-- {
				emitStack = append(emitStack, sub[u][t])
			}
			sub[u] = nil
		}
	}

	// Min-heap of deg<<32|vertex with lazy deletion: a popped entry whose
	// degree no longer matches deg[v] is stale and skipped. The packed key
	// makes ties break towards the smaller vertex index for free.
	heap := newLazyDegHeap(n)
	for v := 0; v < n; v++ {
		heap.push(deg[v], v)
	}

	step := 0
	for len(perm) < n {
		p := -1
		for {
			d, v, ok := heap.pop()
			if !ok {
				break
			}
			if eliminated[v] || d != deg[v] {
				continue
			}
			p = v
			break
		}
		if p == -1 {
			break // unreachable for a well-formed heap; defensive
		}
		step++

		// Form Lp = (Ap ∪ ⋃_{e∈Ep} Le) \ {p}: the uneliminated principal
		// variables the new element p is adjacent to, with their mass.
		lp = lp[:0]
		lpSize := 0
		mark[p] = step
		for _, j := range adj[p] {
			if v := int(j); !eliminated[v] && mark[v] != step {
				mark[v] = step
				lp = append(lp, j)
				lpSize += nv[v]
			}
		}
		for _, e := range elems[p] {
			if deadElem[e] {
				continue
			}
			for _, j := range bound[e] {
				if v := int(j); v != p && !eliminated[v] && mark[v] != step {
					mark[v] = step
					lp = append(lp, j)
					lpSize += nv[v]
				}
			}
			deadElem[e] = true // absorbed into p
			bound[e] = nil
		}
		sortInt32(lp)
		bound[p] = append([]int32(nil), lp...)
		boundSize[p] = lpSize
		eliminated[p] = true
		elems[p], adj[p] = nil, nil
		emit(int32(p))

		// First pass: w[e] = |Le \ Lp| (in supervariable mass) for every
		// alive element adjacent to Lp: initialise to boundSize[e] on first
		// sight, then subtract each boundary member found inside Lp.
		for _, ji := range lp {
			for _, e := range elems[ji] {
				if deadElem[e] {
					continue
				}
				if wseen[e] != step {
					wseen[e] = step
					w[e] = boundSize[e]
				}
				w[e] -= nv[ji]
			}
		}

		// Second pass: prune each i ∈ Lp and recompute its approximate degree
		//   d(i) ≈ |Ai \ Lp| + |Lp \ {i}| + Σ_{e ∈ Ei} |Le \ Lp|,
		// every term weighted by supervariable mass.
		for _, ji := range lp {
			i := int(ji)
			// Ai loses everything now reachable through element p.
			av := adj[i][:0]
			avSize := 0
			for _, j := range adj[i] {
				if v := int(j); !eliminated[v] && mark[v] != step {
					av = append(av, j)
					avSize += nv[v]
				}
			}
			adj[i] = av
			// Ei drops dead (absorbed) elements and gains p. An element whose
			// boundary is entirely inside Lp (w ≤ 0) is dominated by p and
			// absorbed.
			ev := elems[i][:0]
			d := avSize + lpSize - nv[i]
			for _, e := range elems[i] {
				if deadElem[e] {
					continue
				}
				if wseen[e] == step && w[e] <= 0 {
					deadElem[e] = true
					bound[e] = nil
					continue
				}
				ev = append(ev, e)
				if wseen[e] == step {
					d += w[e]
				} else {
					d += boundSize[e]
				}
			}
			elems[i] = append(ev, int32(p))
			deg[i] = d
		}

		// Mass elimination: a boundary variable with no remaining adjacency
		// and p as its only element is dominated by the new clique — it
		// eliminates now, for free. lp is sorted, so the group emits in
		// ascending index order.
		for _, ji := range lp {
			i := int(ji)
			if len(adj[i]) == 0 && len(elems[i]) == 1 {
				eliminated[i] = true
				boundSize[p] -= nv[i]
				elems[i] = nil
				stats.massElim += nv[i]
				emit(ji)
			}
		}

		// Supervariable detection among the surviving boundary: bucket by a
		// cheap hash of the pruned lists, then compare exactly. Equal lists
		// mean the variables are indistinguishable from here on, so the
		// larger index is absorbed into the smaller. (Both lists are pruned
		// to live entries in the same chronological order, so set equality is
		// plain elementwise equality.)
		for _, ji := range lp {
			i := int(ji)
			if eliminated[i] {
				continue
			}
			h := 0
			for _, j := range adj[i] {
				h += int(j)
			}
			for _, e := range elems[i] {
				h += int(e)
			}
			if h < 0 {
				h = -h
			}
			h %= n
			if hseen[h] != step {
				hseen[h] = step
				hhead[h] = -1
			}
			hnext[i] = hhead[h]
			hhead[h] = ji
			// Compare against the earlier bucket members (all larger lp
			// indices arrive later, so the chain holds smaller indices
			// further down; absorption goes towards the smallest).
			for cand := hnext[i]; cand != -1; cand = hnext[cand] {
				c := int(cand)
				if eliminated[c] || !int32SlicesEqual(adj[i], adj[c]) || !int32SlicesEqual(elems[i], elems[c]) {
					continue
				}
				// Indistinguishable: absorb the larger index into the
				// smaller. lp is sorted ascending, so cand < i here.
				m := nv[i]
				nv[c] += m
				sub[cand] = append(sub[cand], ji)
				stats.supervars++
				eliminated[i] = true
				adj[i], elems[i] = nil, nil
				// i leaves every boundary it was in, and cand gains exactly
				// its mass there (they share all elements), so boundary
				// sizes are unchanged. The principal's degree shrinks by the
				// absorbed mass (it no longer counts i as a neighbour).
				deg[c] -= m
				break
			}
		}

		// Re-queue the surviving boundary with their updated degrees, capped
		// by the remaining mass.
		remaining := n - len(perm)
		for _, ji := range lp {
			i := int(ji)
			if eliminated[i] {
				continue
			}
			d := deg[i]
			if limit := remaining - nv[i]; d > limit {
				d = limit
			}
			if d < 0 {
				d = 0
			}
			deg[i] = d
			heap.push(d, i)
		}
	}
	return perm, stats
}

// lazyDegHeap is a binary min-heap over packed (degree, vertex) keys with lazy
// deletion; the low 32 bits carry the vertex so equal degrees order by index.
type lazyDegHeap struct{ keys []int64 }

func newLazyDegHeap(capacity int) *lazyDegHeap {
	return &lazyDegHeap{keys: make([]int64, 0, capacity)}
}

func (h *lazyDegHeap) push(deg, v int) {
	h.keys = append(h.keys, int64(deg)<<32|int64(v))
	i := len(h.keys) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.keys[parent] <= h.keys[i] {
			break
		}
		h.keys[parent], h.keys[i] = h.keys[i], h.keys[parent]
		i = parent
	}
}

func (h *lazyDegHeap) pop() (deg, v int, ok bool) {
	if len(h.keys) == 0 {
		return 0, 0, false
	}
	top := h.keys[0]
	last := len(h.keys) - 1
	h.keys[0] = h.keys[last]
	h.keys = h.keys[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.keys[l] < h.keys[smallest] {
			smallest = l
		}
		if r < last && h.keys[r] < h.keys[smallest] {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.keys[i], h.keys[smallest] = h.keys[smallest], h.keys[i]
		i = smallest
	}
	return int(top >> 32), int(top & 0xffffffff), true
}

// rcmOracle is RCM as it was: each component's root found by a scan of
// every vertex, and neighbours sorted through a sort.Slice closure.
func rcmOracle(a *sparse.CSR) Perm {
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
	bfs := &bfsScratchOracle{level: make([]int, n), mark: make([]int, n), queue: make([]int, 0, n)}
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
		root = pseudoPeripheralOracle(a, root, deg, visited, bfs)

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

type bfsScratchOracle struct {
	level []int
	mark  []int
	queue []int
	stamp int
}

// pseudoPeripheralOracle runs the George–Liu heuristic: BFS from the root, move the
// root to a minimum-degree vertex of the last level, and repeat while the
// eccentricity keeps growing (capped, since the loop almost always settles in
// two or three sweeps).
func pseudoPeripheralOracle(a *sparse.CSR, root int, deg []int, visited []bool, bfs *bfsScratchOracle) int {
	ecc := bfsLevelsOracle(a, root, visited, bfs)
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
		cecc := bfsLevelsOracle(a, candidate, visited, bfs)
		if cecc <= ecc {
			break
		}
		root, ecc = candidate, cecc
	}
	return root
}

// bfsLevelsOracle breadth-first-searches the unvisited component of root, writing
// per-vertex levels and the traversal into the scratch. It returns the
// eccentricity (the deepest level reached).
func bfsLevelsOracle(a *sparse.CSR, root int, visited []bool, bfs *bfsScratchOracle) int {
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

// newCholeskyOracle is NewCholesky as it was: its own ordering, elimination
// tree and ereach counting pass on the fill-permuted matrix it formed.
func newCholeskyOracle(a *sparse.CSR, order Ordering) (*Cholesky, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("factor: sparse Cholesky of non-square %dx%d matrix", a.Rows(), a.Cols())
	}
	n := a.Rows()
	s := &Cholesky{n: n, order: resolveOrdering(a, order)}
	s.scratch.New = func() any { v := sparse.NewVec(n); return &v }
	c := a
	if n > 1 {
		if p := fillReducingOracle(a, s.order); p != nil {
			s.perm = p
			c = a.PermuteSym(p)
		}
	}

	parent := etreeOracle(c)

	// Symbolic phase: per-column counts of L via one ereachOracle sweep, then exact
	// allocation. mark/stack/pattern are shared with the numeric phase.
	mark := make([]int, n)
	stack := make([]int, n)
	pattern := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	count := make([]int, n)
	for k := 0; k < n; k++ {
		top := ereachOracle(c, k, parent, mark, stack, pattern)
		count[k]++ // diagonal
		for _, j := range pattern[top:] {
			count[j]++
		}
	}
	s.colPtr = make([]int, n+1)
	for j := 0; j < n; j++ {
		s.colPtr[j+1] = s.colPtr[j] + count[j]
	}
	s.rowIdx = make([]int32, s.colPtr[n])
	s.vals = make([]float64, s.colPtr[n])

	// Numeric phase (up-looking): for every row k solve the sparse triangular
	// system L(0:k-1,0:k-1)·l = C(0:k-1,k) over the ereachOracle pattern, then take
	// the square-root pivot. fill[j] tracks the next free slot of column j;
	// the diagonal lands first in each column because column k receives its
	// first entry at step k.
	for i := range mark {
		mark[i] = -1
	}
	fill := make([]int, n)
	copy(fill, s.colPtr[:n])
	x := make([]float64, n)
	for k := 0; k < n; k++ {
		top := ereachOracle(c, k, parent, mark, stack, pattern)
		d := 0.0
		cols, vals := c.RowView(k)
		for t, j := range cols {
			if j > k {
				break
			}
			if j == k {
				d = vals[t]
			} else {
				x[j] = vals[t]
			}
		}
		for _, j := range pattern[top:] {
			lkj := x[j] / s.vals[s.colPtr[j]]
			x[j] = 0
			for p := s.colPtr[j] + 1; p < fill[j]; p++ {
				x[s.rowIdx[p]] -= s.vals[p] * lkj
			}
			d -= lkj * lkj
			s.rowIdx[fill[j]] = int32(k)
			s.vals[fill[j]] = lkj
			fill[j]++
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: pivot %d is %g", ErrNotPositiveDefinite, k, d)
		}
		s.rowIdx[fill[k]] = int32(k)
		s.vals[fill[k]] = math.Sqrt(d)
		fill[k]++
	}
	return s, nil
}

// etreeOracle computes the elimination tree of the pattern-symmetric matrix c using
// ancestor path compression (parent[i] = -1 for roots).
func etreeOracle(c *sparse.CSR) []int {
	n := c.Rows()
	parent := make([]int, n)
	ancestor := make([]int, n)
	for i := range parent {
		parent[i], ancestor[i] = -1, -1
	}
	for k := 0; k < n; k++ {
		cols, _ := c.RowView(k)
		for _, j := range cols {
			if j >= k {
				break
			}
			for i := j; i != -1 && i < k; {
				next := ancestor[i]
				ancestor[i] = k
				if next == -1 {
					parent[i] = k
					break
				}
				i = next
			}
		}
	}
	return parent
}

// ereachOracle computes the nonzero pattern of row k of L — the reach of the lower
// row pattern of C through the elimination tree — in topological order. The
// pattern is written to out[top:] and top is returned; mark is stamped with k.
func ereachOracle(c *sparse.CSR, k int, parent, mark, stack, out []int) int {
	top := len(out)
	mark[k] = k
	cols, _ := c.RowView(k)
	for _, j := range cols {
		if j >= k {
			break
		}
		l := 0
		for i := j; i != -1 && i < k && mark[i] != k; i = parent[i] {
			stack[l] = i
			l++
			mark[i] = k
		}
		for l > 0 {
			l--
			top--
			out[top] = stack[l]
		}
	}
	return top
}

// snPrepareOracle is the front half NewSupernodal ran per factorisation:
// resolve the ordering, form PAPᵀ for its elimination tree, compose the
// fill-reducing permutation with the postorder, form the postordered matrix
// (discarding the first) and run the symbolic phase on it.
func snPrepareOracle(a *sparse.CSR, order Ordering) (c *sparse.CSR, perm Perm, sym *snSymOracle, resolved Ordering) {
	n := a.Rows()
	resolved = resolveOrdering(a, order)
	c = a
	var fillPerm Perm
	if n > 1 {
		if p := fillReducingOracle(a, resolved); p != nil {
			fillPerm = p
			c = a.PermuteSym(p)
		}
	}
	parent := etreeOracle(c)
	post := postorderOracle(parent)
	if !Perm(post).IsIdentity() {
		combined := make(Perm, n)
		for i, old := range post {
			if fillPerm != nil {
				combined[i] = fillPerm[old]
			} else {
				combined[i] = old
			}
		}
		perm = combined
		c = a.PermuteSym(combined)
		parent = relabelEtreeOracle(parent, post)
	} else if fillPerm != nil {
		perm = fillPerm
	}
	return c, perm, snSymbolicOracle(c, parent), resolved
}

// relabelEtreeOracle maps the elimination tree through the postorder permutation:
// the postordered matrix's etree is the relabelled old tree (a postorder is an
// equivalent reordering, so the structure is preserved).
func relabelEtreeOracle(parent, post []int) []int {
	n := len(parent)
	inv := make([]int, n)
	for newIdx, oldIdx := range post {
		inv[oldIdx] = newIdx
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		if p := parent[post[i]]; p == -1 {
			out[i] = -1
		} else {
			out[i] = inv[p]
		}
	}
	return out
}

// snColCountsOracle returns the per-column nonzero counts of L (diagonal included)
// for the postordered pattern-symmetric matrix c with elimination tree
// parent — the Gilbert–Ng–Peyton skeleton-matrix algorithm: an entry A(i,j)
// contributes to count deltas only when j is a leaf of row i's row subtree,
// detected with first-descendant stamps and a path-halving ancestor
// union-find, and the deltas accumulate up the tree in one final pass.
func snColCountsOracle(c *sparse.CSR, parent []int) []int {
	n := c.Rows()
	first := make([]int, n)
	maxfirst := make([]int, n)
	prevleaf := make([]int, n)
	ancestor := make([]int, n)
	delta := make([]int, n)
	for i := range first {
		first[i], maxfirst[i], prevleaf[i] = -1, -1, -1
		ancestor[i] = i
	}
	// First descendants (the matrix is postordered, so k is its own postorder
	// rank); delta[j] starts at 1 exactly when j is a leaf of the etreeOracle.
	for k := 0; k < n; k++ {
		if first[k] == -1 {
			delta[k] = 1
		}
		for j := k; j != -1 && first[j] == -1; j = parent[j] {
			first[j] = k
		}
	}
	for j := 0; j < n; j++ {
		if parent[j] != -1 {
			delta[parent[j]]--
		}
		cols, _ := c.RowView(j)
		for _, i := range cols {
			if i <= j || first[j] <= maxfirst[i] {
				continue // A(i,j) is not in the skeleton: j is not a new leaf
			}
			maxfirst[i] = first[j]
			jprev := prevleaf[i]
			prevleaf[i] = j
			if jprev == -1 {
				delta[j]++ // first leaf of row subtree i: no overlap
				continue
			}
			// q = least common ancestor of the previous leaf and j, found by
			// the union-find with path compression.
			q := jprev
			for q != ancestor[q] {
				q = ancestor[q]
			}
			for s := jprev; s != q; {
				next := ancestor[s]
				ancestor[s] = q
				s = next
			}
			delta[j]++
			delta[q]--
		}
		if parent[j] != -1 {
			ancestor[j] = parent[j]
		}
	}
	for j := 0; j < n; j++ {
		if parent[j] != -1 {
			delta[parent[j]] += delta[j]
		}
	}
	return delta
}

// snSymOracle is the symbolic analysis the numeric phase executes: the supernode
// partition, per-supernode row structures, the per-supernode update lists in
// their fixed deterministic order, and the per-supernode flop estimates.
type snSymOracle struct {
	n      int
	parent []int // postordered etree
	ns     int
	super  []int32 // column -> supernode
	sfirst []int32 // ns+1
	rx     []int32 // ns+1 offsets into rowind
	rowind []int32
	px     []int // ns+1 offsets into the panel value array

	sparent []int32   // supernodal etreeOracle (-1 for roots)
	upd     [][]snUpd // per-supernode update lists, ascending descendant order
	flops   []float64 // per-supernode numeric cost estimate

	nnzStored int
}

// snSymbolicOracle runs the full symbolic phase on the postordered matrix c:
// per-column counts (one ereachOracle sweep), fundamental supernode detection,
// relaxed amalgamation, supernodal row structures (merged child structures,
// no second sweep), update lists and flop estimates.
func snSymbolicOracle(c *sparse.CSR, parent []int) *snSymOracle {
	n := c.Rows()
	sym := &snSymOracle{n: n, parent: parent}
	if n == 0 {
		sym.sfirst = []int32{0}
		sym.rx = []int32{0}
		sym.px = []int{0}
		return sym
	}

	// Per-column counts of L — the Gilbert–Ng–Peyton skeleton algorithm,
	// O(nnz·α) instead of the O(nnz(L)) ereachOracle sweep the scalar Cholesky runs.
	count := snColCountsOracle(c, parent)

	// Fundamental supernodes: column j extends the current supernode when it
	// is the etreeOracle parent of its predecessor and the counts nest
	// (count[j-1] == count[j]+1 ⇔ struct(j-1) = {j-1} ∪ struct(j)).
	first := make([]int32, 0, 64)
	first = append(first, 0)
	for j := 1; j < n; j++ {
		w := j - int(first[len(first)-1])
		if parent[j-1] == j && count[j-1] == count[j]+1 && w < snMaxWidth {
			continue
		}
		first = append(first, int32(j))
	}

	// Relaxed amalgamation over the fundamental partition, processed as a
	// stack: when the next supernode fs is the supernodal parent of the stack
	// top (the top's last column's etreeOracle parent lies inside fs) and the merged
	// trapezoid stays within the zero-fill budget, the top is absorbed into
	// fs — repeatedly, since fs keeps growing downward.
	type snb struct {
		first, last int32 // column range
		ld          int32 // rows of the trapezoid (width + |U|)
		nnz         int   // true factor entries in the column range
	}
	fundLd := func(f, l int32) snb {
		nnz := 0
		for j := f; j <= l; j++ {
			nnz += count[j]
		}
		return snb{first: f, last: l, ld: int32(count[f]), nnz: nnz}
	}
	entries := func(b snb) int {
		w := int(b.last - b.first + 1)
		return w*int(b.ld) - w*(w-1)/2
	}
	var sstack []snb
	for i := 0; i < len(first); i++ {
		last := int32(n - 1)
		if i+1 < len(first) {
			last = first[i+1] - 1
		}
		cur := fundLd(first[i], last)
		for len(sstack) > 0 {
			top := sstack[len(sstack)-1]
			p := parent[top.last]
			if p == -1 || int32(p) < cur.first || int32(p) > cur.last {
				break // top is not a child of cur in the supernodal etreeOracle
			}
			merged := snb{
				first: top.first,
				last:  cur.last,
				ld:    top.last - top.first + 1 + cur.ld,
				nnz:   top.nnz + cur.nnz,
			}
			e := entries(merged)
			if !snRelaxOK(int(merged.last-merged.first+1), e-merged.nnz, e) {
				break
			}
			cur = merged
			sstack = sstack[:len(sstack)-1]
		}
		sstack = append(sstack, cur)
	}

	ns := len(sstack)
	sym.ns = ns
	sym.sfirst = make([]int32, ns+1)
	sym.super = make([]int32, n)
	for s, b := range sstack {
		sym.sfirst[s] = b.first
		for j := b.first; j <= b.last; j++ {
			sym.super[j] = int32(s)
		}
	}
	sym.sfirst[ns] = int32(n)

	// Supernodal etreeOracle.
	sym.sparent = make([]int32, ns)
	for s := 0; s < ns; s++ {
		lastCol := sym.sfirst[s+1] - 1
		if p := parent[lastCol]; p == -1 {
			sym.sparent[s] = -1
		} else {
			sym.sparent[s] = sym.super[p]
		}
	}

	// Row structures: rows(s) = cols(s) ++ U(s) with
	// U(s) = (∪_{child c} U(c) ∪ A-pattern below cols(s)) \ cols(s), merged
	// with a stamp array and sorted — no second ereachOracle sweep. Children lists
	// come from the supernodal etreeOracle (ascending automatically).
	children := make([][]int32, ns)
	for s := 0; s < ns; s++ {
		if p := sym.sparent[s]; p != -1 {
			children[p] = append(children[p], int32(s))
		}
	}
	sym.rx = make([]int32, ns+1)
	sym.px = make([]int, ns+1)
	rowind := make([]int32, 0, n)
	smark := make([]int32, n)
	for i := range smark {
		smark[i] = -1
	}
	var ubuf []int32
	for s := 0; s < ns; s++ {
		f, l := sym.sfirst[s], sym.sfirst[s+1]-1
		ubuf = ubuf[:0]
		for j := f; j <= l; j++ {
			cols, _ := c.RowView(int(j))
			for _, i := range cols {
				if int32(i) > l && smark[i] != int32(s) {
					smark[i] = int32(s)
					ubuf = append(ubuf, int32(i))
				}
			}
		}
		for _, ch := range children[s] {
			u := rowind[sym.rx[ch]+(sym.sfirst[ch+1]-sym.sfirst[ch]) : sym.rx[ch+1]]
			for _, r := range u {
				if r > l && smark[r] != int32(s) {
					smark[r] = int32(s)
					ubuf = append(ubuf, r)
				}
			}
		}
		sortInt32(ubuf)
		for j := f; j <= l; j++ {
			rowind = append(rowind, j)
		}
		rowind = append(rowind, ubuf...)
		sym.rx[s+1] = int32(len(rowind))
		w, ld := int(l-f+1), int(l-f+1)+len(ubuf)
		sym.px[s+1] = sym.px[s] + ld*w
		sym.nnzStored += w*ld - w*(w-1)/2
	}
	sym.rowind = rowind

	// Update lists: descendant d updates every supernode owning a row of its
	// below-diagonal structure. Scanning descendants in ascending order keeps
	// every update list in its deterministic (ascending-descendant) order; the
	// [lo, hi) row window of each update is recorded so the numeric phase does
	// no searching.
	sym.upd = make([][]snUpd, ns)
	sym.flops = make([]float64, ns)
	for d := 0; d < ns; d++ {
		wd := sym.sfirst[d+1] - sym.sfirst[d]
		rows := rowind[sym.rx[d]:sym.rx[d+1]]
		ld := int32(len(rows))
		for t := wd; t < ld; {
			s := sym.super[rows[t]]
			hi := t + 1
			lastCol := sym.sfirst[s+1]
			for hi < ld && rows[hi] < lastCol {
				hi++
			}
			sym.upd[s] = append(sym.upd[s], snUpd{d: int32(d), lo: t, hi: hi})
			// 2·m·q·k flops for the gemm plus the scatter.
			sym.flops[s] += 2 * float64(ld-t) * float64(hi-t) * float64(wd)
			t = hi
		}
		// Trapezoidal panel factorisation of d itself: ~w²·ld flops.
		sym.flops[d] += float64(wd) * float64(wd) * float64(ld)
	}
	return sym
}

// postorderOracle returns a postordering of the forest parent (children visited in
// ascending index order, every vertex emitted after its children), in the
// perm[new] = old convention.
func postorderOracle(parent []int) []int {
	n := len(parent)
	// Children lists in ascending child order: head/next singly linked lists
	// built by scanning vertices in DESCENDING order so each head ends lowest.
	head := make([]int, n)
	next := make([]int, n)
	for i := range head {
		head[i] = -1
	}
	for v := n - 1; v >= 0; v-- {
		if p := parent[v]; p != -1 {
			next[v] = head[p]
			head[p] = v
		}
	}
	post := make([]int, 0, n)
	stack := make([]int, 0, 64)
	for r := 0; r < n; r++ {
		if parent[r] != -1 {
			continue
		}
		// Iterative DFS emitting vertices postorder.
		stack = append(stack, r)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			if c := head[v]; c != -1 {
				head[v] = next[c] // consume the child link
				stack = append(stack, c)
				continue
			}
			post = append(post, v)
			stack = stack[:len(stack)-1]
		}
	}
	return post
}

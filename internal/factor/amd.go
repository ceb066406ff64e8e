package factor

import (
	"math"
	"slices"

	"repro/internal/sparse"
)

// AMD computes an approximate-minimum-degree ordering of the symmetric
// sparsity pattern of a, in the style of Amestoy, Davis and Duff: vertices are
// eliminated greedily by (approximate) external degree on a quotient graph
// whose eliminated vertices become elements, with the |Le \ Lp| bound standing
// in for the exact degree and with elements absorbed as soon as their
// boundary is swallowed by a newer element. The returned permutation follows
// the package convention perm[new] = old.
//
// Two constant-factor accelerations of the classic algorithm are applied:
//
//   - Supervariable detection: after each elimination, variables of the
//     pivot's boundary that have become indistinguishable (identical pruned
//     adjacency and element lists — found by hashing, then exact comparison)
//     merge into one supervariable. One representative does the graph work of
//     the whole group, and the group is emitted together when it is
//     eliminated, so the quotient graph shrinks far faster than one vertex
//     per step on meshes and saddle patterns full of twins.
//   - Mass elimination: a boundary variable whose entire remaining adjacency
//     is the pivot's boundary (empty pruned adjacency, the new element its
//     only element) is eliminated immediately with the pivot — it can add no
//     fill beyond the clique the pivot just formed.
//
// The ordering is deterministic: the pending-vertex heap breaks degree ties
// towards the smaller vertex index, every sweep runs in index order, and
// supervariables absorb towards the smallest member. Its permutation is the
// one the lazy-heap, slice-per-list implementation it replaced computed,
// which is kept as the oracle in symbolic_oracle_test.go.
func AMD(a *sparse.CSR) Perm {
	p, _ := amdOrder(a)
	return p
}

// amdStats counts the work the supervariable machinery saved: variables
// absorbed into an indistinguishable principal and variables mass-eliminated
// alongside a pivot. The property tests assert both mechanisms engage on the
// patterns they exist for.
type amdStats struct {
	supervars int // variables absorbed into an indistinguishable twin
	massElim  int // variables eliminated for free alongside their pivot
}

// amdOrder is AMD with its statistics. Every list and counter is an int32
// carved from a pooled workspace, and the variable, element and boundary
// lists live in three arenas instead of one slice per vertex and per step.
func amdOrder(a *sparse.CSR) (Perm, amdStats) {
	var stats amdStats
	n := a.Rows()
	perm := make(Perm, 0, n)
	if n == 0 {
		return perm, stats
	}
	w := getWorkspace()
	defer w.release()

	// Variable adjacency (off-diagonal, pruned in place as the elimination
	// proceeds) is adj[adjLo[i]:adjLo[i]+adjLen[i]]; variable i's element list
	// is elemArena[elemLo[i]:][:elemLen[i]] with room for elemCap[i]. Element
	// e is the vertex whose elimination created it; its boundary Le is
	// boundArena[boundLo[e]:][:boundLen[e]] and boundSize[e] the live
	// supervariable mass of that boundary. nv holds supervariable sizes.
	nnz := 0
	for i := 0; i < n; i++ {
		cols, _ := a.RowView(i)
		nnz += len(cols)
	}
	adj := w.take(nnz)
	adjLo, adjLen := w.take(n), w.take(n)
	// deg holds the heap's keys; a step computes the new degrees of its
	// boundary in dnew and re-keys them one at a time at its end, so the
	// heap is consistent at every operation.
	deg, dnew, nv := w.take(n), w.take(n), w.take(n)
	fill := 0
	for i := 0; i < n; i++ {
		cols, _ := a.RowView(i)
		adjLo[i] = int32(fill)
		for _, j := range cols {
			if j != i {
				adj[fill] = int32(j)
				fill++
			}
		}
		adjLen[i] = int32(fill) - adjLo[i]
		deg[i] = adjLen[i]
		nv[i] = 1
	}
	elemLo, elemLen, elemCap := w.filled(n, 0), w.filled(n, 0), w.filled(n, 0)
	boundLo, boundLen, boundSize := w.filled(n, 0), w.filled(n, 0), w.take(n)
	elemArena, boundArena := w.arena[0][:0], w.arena[1][:0]
	defer func() { w.arena[0], w.arena[1] = elemArena, boundArena }()

	var (
		deadElem = w.filled(n, 0)  // 1 once absorbed into a newer element
		mark     = w.filled(n, -1) // Lp membership stamp; gone once eliminated or absorbed
		wseen    = w.filled(n, -1) // |Le \ Lp| computation stamp
		wsz      = w.take(n)       // |Le \ Lp| per alive element (size-weighted)
		hseen    = w.filled(n, -1) // hash-bucket stamp
		hbucket  = w.take(n)       // each boundary variable's bucket, from the second pass
		hhead    = w.take(n)
		hnext    = w.take(n)
		lp       = w.take(n)
		// Supervariables absorbed into a principal, in absorption order: a
		// singly linked list per principal, and the cursor stack of emit.
		subHead   = w.filled(n, -1)
		subTail   = w.take(n)
		subNext   = w.take(n)
		emitStack = w.take(n + 1)
	)

	// emit appends a principal variable and, transitively, every
	// supervariable it absorbed: a preorder walk, each group in absorption
	// order.
	emit := func(v int32) {
		perm = append(perm, int(v))
		sp := 0
		emitStack[sp] = subHead[v]
		for sp >= 0 {
			u := emitStack[sp]
			if u == -1 {
				sp--
				continue
			}
			emitStack[sp] = subNext[u]
			perm = append(perm, int(u))
			sp++
			emitStack[sp] = subHead[u]
		}
	}

	// A variable is live and outside Lp exactly when mark[v] < step: Lp's
	// members carry the step's stamp, and an eliminated or absorbed variable
	// carries gone, above every stamp.
	const gone = math.MaxInt32

	// The pending variables in an indexed min-heap keyed by (degree, index):
	// one entry per live variable, updated in place when its degree changes
	// and removed when it is eliminated or absorbed.
	heap := newDegHeap(w, n, deg)

	step := int32(0)
	for len(perm) < n {
		if heap.len() == 0 {
			break // unreachable for a well-formed quotient graph; defensive
		}
		p := heap.pop()
		step++

		// Form Lp = (Ap ∪ ⋃_{e∈Ep} Le) \ {p}: the uneliminated principal
		// variables the new element p is adjacent to, with their mass.
		nlp := 0
		lpSize := int32(0)
		mark[p] = gone
		for _, v := range adj[adjLo[p] : adjLo[p]+adjLen[p]] {
			if mark[v] < step {
				mark[v] = step
				lp[nlp] = v
				nlp++
				lpSize += nv[v]
			}
		}
		for _, e := range elemArena[elemLo[p] : elemLo[p]+elemLen[p]] {
			if deadElem[e] != 0 {
				continue
			}
			for _, v := range boundArena[boundLo[e] : boundLo[e]+boundLen[e]] {
				if mark[v] < step {
					mark[v] = step
					lp[nlp] = v
					nlp++
					lpSize += nv[v]
				}
			}
			deadElem[e] = 1 // absorbed into p
			boundLen[e] = 0
		}
		lpv := lp[:nlp]
		sortInt32(lpv)
		boundLo[p], boundLen[p] = int32(len(boundArena)), int32(nlp)
		boundArena = append(boundArena, lpv...)
		boundSize[p] = lpSize
		elemLen[p], adjLen[p] = 0, 0
		emit(p)

		// First pass: w[e] = |Le \ Lp| (in supervariable mass) for every
		// alive element adjacent to Lp: initialise to boundSize[e] on first
		// sight, then subtract each boundary member found inside Lp.
		for _, i := range lpv {
			for _, e := range elemArena[elemLo[i] : elemLo[i]+elemLen[i]] {
				if deadElem[e] != 0 {
					continue
				}
				if wseen[e] != step {
					wseen[e] = step
					wsz[e] = boundSize[e]
				}
				wsz[e] -= nv[i]
			}
		}

		// Second pass: prune each i ∈ Lp and recompute its approximate degree
		//   d(i) ≈ |Ai \ Lp| + |Lp \ {i}| + Σ_{e ∈ Ei} |Le \ Lp|,
		// every term weighted by supervariable mass.
		for _, i := range lpv {
			// Ai loses everything now reachable through element p.
			ai := adj[adjLo[i] : adjLo[i]+adjLen[i]]
			k := 0
			avSize := int32(0)
			h := int(p) // the supervariable hash: the sum of both pruned lists
			for _, v := range ai {
				if mark[v] < step {
					ai[k] = v
					k++
					avSize += nv[v]
					h += int(v)
				}
			}
			adjLen[i] = int32(k)
			// Ei drops dead (absorbed) elements and gains p. An element whose
			// boundary is entirely inside Lp (w ≤ 0) is dominated by p and
			// absorbed.
			ei := elemArena[elemLo[i] : elemLo[i]+elemLen[i]]
			k = 0
			d := avSize + lpSize - nv[i]
			for _, e := range ei {
				if deadElem[e] != 0 {
					continue
				}
				if wseen[e] == step && wsz[e] <= 0 {
					deadElem[e] = 1
					boundLen[e] = 0
					continue
				}
				ei[k] = e
				k++
				h += int(e)
				if wseen[e] == step {
					d += wsz[e]
				} else {
					d += boundSize[e]
				}
			}
			if int32(k) == elemCap[i] {
				// Full: move the list to the end of the arena with twice the
				// room (in place when it already ends the arena).
				lo := elemLo[i]
				if elemCap[i] == 0 || int(lo+elemCap[i]) != len(elemArena) {
					lo = int32(len(elemArena))
					elemArena = append(elemArena, ei[:k]...)
					elemLo[i] = lo
				}
				c := max(2*elemCap[i], 4)
				elemArena = slices.Grow(elemArena, int(lo+c)-len(elemArena))[:lo+c]
				elemCap[i] = c
			}
			elemArena[elemLo[i]+int32(k)] = p
			elemLen[i] = int32(k) + 1
			dnew[i] = d
			hbucket[i] = int32(h % n)
		}

		// Mass elimination: a boundary variable with no remaining adjacency
		// and p as its only element is dominated by the new clique — it
		// eliminates now, for free. lp is sorted, so the group emits in
		// ascending index order.
		for _, i := range lpv {
			if adjLen[i] == 0 && elemLen[i] == 1 {
				mark[i] = gone
				heap.remove(i)
				boundSize[p] -= nv[i]
				elemLen[i] = 0
				stats.massElim += int(nv[i])
				emit(i)
			}
		}

		// Supervariable detection among the surviving boundary: bucket by a
		// cheap hash of the pruned lists, then compare exactly. Equal lists
		// mean the variables are indistinguishable from here on, so the
		// larger index is absorbed into the smaller. (Both lists are pruned
		// to live entries in the same chronological order, so set equality is
		// plain elementwise equality.)
		for _, i := range lpv {
			if mark[i] == gone {
				continue
			}
			ai := adj[adjLo[i] : adjLo[i]+adjLen[i]]
			ei := elemArena[elemLo[i] : elemLo[i]+elemLen[i]]
			h := hbucket[i]
			if hseen[h] != step {
				hseen[h] = step
				hhead[h] = -1
			}
			hnext[i] = hhead[h]
			hhead[h] = i
			// Compare against the earlier bucket members (all larger lp
			// indices arrive later, so the chain holds smaller indices
			// further down; absorption goes towards the smallest).
			for c := hnext[i]; c != -1; c = hnext[c] {
				if mark[c] == gone ||
					!int32SlicesEqual(ai, adj[adjLo[c]:adjLo[c]+adjLen[c]]) ||
					!int32SlicesEqual(ei, elemArena[elemLo[c]:elemLo[c]+elemLen[c]]) {
					continue
				}
				// Indistinguishable: absorb the larger index into the
				// smaller. lp is sorted ascending, so c < i here.
				m := nv[i]
				nv[c] += m
				subNext[i] = -1
				if subHead[c] == -1 {
					subHead[c] = i
				} else {
					subNext[subTail[c]] = i
				}
				subTail[c] = i
				stats.supervars++
				mark[i] = gone
				heap.remove(i)
				adjLen[i], elemLen[i] = 0, 0
				// i leaves every boundary it was in, and c gains exactly its
				// mass there (they share all elements), so boundary sizes
				// are unchanged. The principal's degree shrinks by the
				// absorbed mass (it no longer counts i as a neighbour).
				dnew[c] -= m
				break
			}
		}

		// Re-key the surviving boundary with their updated degrees, capped
		// by the remaining mass.
		remaining := int32(n - len(perm))
		for _, i := range lpv {
			if mark[i] == gone {
				continue
			}
			d := dnew[i]
			if limit := remaining - nv[i]; d > limit {
				d = limit
			}
			if d < 0 {
				d = 0
			}
			if d != deg[i] {
				deg[i] = d
				heap.fix(i)
			}
		}
	}
	return perm, stats
}

// int32SlicesEqual reports elementwise equality.
func int32SlicesEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// degHeap is an indexed binary min-heap of variables keyed by (deg[v], v):
// each live variable is in it once, at pos[v] (-1 when out), so a degree
// change re-keys the variable in place and nothing stale is ever popped. The
// index in the key makes every key distinct and breaks degree ties towards
// the smaller index.
type degHeap struct {
	deg  []int32 // the keys, owned by the caller
	heap []int32
	pos  []int32
}

// newDegHeap builds the heap of variables 0..n-1 from the workspace.
func newDegHeap(w *workspace, n int, deg []int32) degHeap {
	h := degHeap{deg: deg, heap: w.take(n), pos: w.take(n)}
	for v := range h.heap {
		h.heap[v], h.pos[v] = int32(v), int32(v)
	}
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

func (h *degHeap) len() int { return len(h.heap) }

func (h *degHeap) less(a, b int32) bool {
	da, db := h.deg[a], h.deg[b]
	return da < db || da == db && a < b
}

// pop removes and returns the variable of least (degree, index).
func (h *degHeap) pop() int32 {
	v := h.heap[0]
	h.remove(v)
	return v
}

// remove takes v out of the heap (a no-op when it is not in it).
func (h *degHeap) remove(v int32) {
	i := h.pos[v]
	if i < 0 {
		return
	}
	h.pos[v] = -1
	last := int32(len(h.heap) - 1)
	if i != last {
		u := h.heap[last]
		h.heap[i], h.pos[u] = u, i
		h.heap = h.heap[:last]
		h.fixAt(int(i))
		return
	}
	h.heap = h.heap[:last]
}

// fix restores the heap order after deg[v] changed.
func (h *degHeap) fix(v int32) { h.fixAt(int(h.pos[v])) }

func (h *degHeap) fixAt(i int) {
	if !h.up(i) {
		h.down(i)
	}
}

func (h *degHeap) up(i int) bool {
	v := h.heap[i]
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		u := h.heap[parent]
		if !h.less(v, u) {
			break
		}
		h.heap[i], h.pos[u] = u, int32(i)
		i, moved = parent, true
	}
	h.heap[i], h.pos[v] = v, int32(i)
	return moved
}

func (h *degHeap) down(i int) {
	n := len(h.heap)
	v := h.heap[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(h.heap[r], h.heap[c]) {
			c = r
		}
		u := h.heap[c]
		if !h.less(u, v) {
			break
		}
		h.heap[i], h.pos[u] = u, int32(i)
		i = c
	}
	h.heap[i], h.pos[v] = v, int32(i)
}

// sortInt32 is an insertion/quick hybrid over the small boundary slices AMD
// sorts per elimination (avoiding a sort.Slice closure allocation per call).
func sortInt32(s []int32) {
	if len(s) < 24 {
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return
	}
	pivot := s[len(s)/2]
	left, right := 0, len(s)-1
	for left <= right {
		for s[left] < pivot {
			left++
		}
		for s[right] > pivot {
			right--
		}
		if left <= right {
			s[left], s[right] = s[right], s[left]
			left++
			right--
		}
	}
	sortInt32(s[:right+1])
	sortInt32(s[left:])
}

package factor

import (
	"repro/internal/sparse"
)

// Nested-dissection ordering. RCM keeps grid factors banded, but a banded
// profile is exactly what makes the elimination tree a path: every column
// depends on the previous one, and the factorisation costs O(n·bw²) flops.
// Nested dissection attacks that: a small vertex separator splits the graph
// into two halves that share no edges, the halves are ordered first (each
// recursively dissected the same way) and the separator last — so in the
// elimination tree the two halves hang off the separator as *independent
// subtrees* and the fill of a planar-ish graph drops from O(n·bw) to
// O(n·log n).
//
// The implementation is the classic level-set scheme, fully deterministic
// (every tie breaks towards the smaller vertex index):
//
//  1. BFS from a pseudo-peripheral vertex (George–Liu sweeps, as in RCM)
//     gives the level structure of the region.
//  2. The cut level is chosen to minimise separator size with a balance
//     guard (each half must keep at least ndBalanceMin of the non-separator
//     vertices); the cut level's vertices are the initial separator.
//  3. Fiduccia–Mattheyses-style boundary refinement shrinks the separator:
//     a separator vertex with neighbours on only one side moves to the other
//     side (the separator shrinks by one), and a vertex with exactly one
//     neighbour on the minority side swaps with it when that improves the
//     balance. Moves never introduce an A–B edge, so separation is invariant.
//  4. Regions at or below ndLeafSize vertices — where separators no longer
//     pay for themselves — are ordered by AMD on the leaf subgraph.
//
// The returned permutation follows the package convention perm[new] = old.

const (
	// ndLeafSize is the region order below which recursion stops and AMD
	// orders the leaf subgraph directly: at this size the fill saved by one
	// more separator no longer covers the dissection overhead.
	ndLeafSize = 80
	// ndMinLevels is the minimum number of BFS levels a region must span to
	// be cut by a level set; shallower regions (near-cliques, expander-ish
	// balls) have no small level-set separator and fall back to AMD.
	ndMinLevels = 5
	// ndBalanceMin is the balance guard of the cut-level choice: each half
	// must keep at least this fraction of the region's non-separator
	// vertices, so the recursion depth stays logarithmic.
	ndBalanceMin = 0.25
	// ndMaxRefinePasses bounds the boundary-refinement sweeps; each pass
	// either shrinks the separator or strictly improves the balance, so the
	// loop terminates long before the bound on real inputs.
	ndMaxRefinePasses = 8
)

// ND computes a nested-dissection ordering of the symmetric sparsity pattern
// of a. It is deterministic: identical input patterns produce identical
// permutations run over run.
func ND(a *sparse.CSR) Perm {
	n := a.Rows()
	perm := make(Perm, n)
	if n <= 1 {
		for i := range perm {
			perm[i] = i
		}
		return perm
	}
	st := newNdState(a)
	verts := make([]int32, n)
	for i := range verts {
		verts[i] = int32(i)
	}
	st.dissect(verts, perm)
	return perm
}

// ndState is the scratch shared by every level of the dissection recursion.
// Regions are identified by stamping inReg, BFS traversals by stamping mark,
// so no per-region clearing of the n-sized arrays is ever needed.
type ndState struct {
	a     *sparse.CSR
	xadj  []int32 // n+1 offsets into adj
	adj   []int32 // off-diagonal neighbour lists, ascending per vertex
	inReg []int32 // region membership stamp
	reg   int32   // current region stamp
	mark  []int32 // BFS visit stamp
	stamp int32   // current BFS stamp
	level []int32 // BFS level, valid where mark holds the current stamp
	side  []int8  // bisection assignment: 0 = A, 1 = B, 2 = separator
	queue []int32 // BFS traversal order of the latest bfsRegion call
}

func newNdState(a *sparse.CSR) *ndState {
	n := a.Rows()
	st := &ndState{
		a:     a,
		xadj:  make([]int32, n+1),
		inReg: make([]int32, n),
		mark:  make([]int32, n),
		level: make([]int32, n),
		side:  make([]int8, n),
		queue: make([]int32, 0, n),
	}
	nnz := 0
	for i := 0; i < n; i++ {
		cols, _ := a.RowView(i)
		for _, j := range cols {
			if j != i {
				nnz++
			}
		}
	}
	st.adj = make([]int32, 0, nnz)
	for i := 0; i < n; i++ {
		cols, _ := a.RowView(i)
		for _, j := range cols {
			if j != i {
				st.adj = append(st.adj, int32(j))
			}
		}
		st.xadj[i+1] = int32(len(st.adj))
	}
	return st
}

// dissect orders the region verts (ascending vertex order) into out
// (len(out) == len(verts), perm[new] = old convention).
func (st *ndState) dissect(verts []int32, out Perm) {
	if len(verts) <= ndLeafSize {
		st.leafOrder(verts, out)
		return
	}
	st.reg++
	rs := st.reg
	for _, v := range verts {
		st.inReg[v] = rs
	}

	// Disconnected regions dissect component by component — no separator is
	// needed between pieces that share no edges.
	if comps := st.components(verts, rs); comps != nil {
		pos := 0
		for _, comp := range comps {
			st.dissect(comp, out[pos:pos+len(comp)])
			pos += len(comp)
		}
		return
	}

	if !st.bisect(verts, rs) {
		// Too shallow to cut by a level set: no small separator exists here.
		st.leafOrder(verts, out)
		return
	}

	// Bucket by side; scanning verts (ascending) keeps each bucket ascending.
	na, nb := 0, 0
	for _, v := range verts {
		switch st.side[v] {
		case 0:
			na++
		case 1:
			nb++
		}
	}
	avs := make([]int32, 0, na)
	bvs := make([]int32, 0, nb)
	sep := out[na+nb:]
	si := 0
	for _, v := range verts {
		switch st.side[v] {
		case 0:
			avs = append(avs, v)
		case 1:
			bvs = append(bvs, v)
		default:
			sep[si] = int(v)
			si++
		}
	}
	st.dissect(avs, out[:na])
	st.dissect(bvs, out[na:na+nb])
}

// leafOrder orders a leaf region by AMD on its subgraph (single vertices are
// emitted directly).
func (st *ndState) leafOrder(verts []int32, out Perm) {
	if len(verts) == 1 {
		out[0] = int(verts[0])
		return
	}
	idx := make([]int, len(verts))
	for i, v := range verts {
		idx[i] = int(v)
	}
	p := AMD(st.a.Submatrix(idx, idx))
	for i, local := range p {
		out[i] = idx[local]
	}
}

// components returns the connected components of the region in ascending
// vertex order each, or nil when the region is connected.
func (st *ndState) components(verts []int32, rs int32) [][]int32 {
	st.stamp++
	cs := st.stamp
	ncomp := 0
	comp := st.level // reuse: per-vertex component id, valid under stamp cs
	for _, v := range verts {
		if st.mark[v] == cs {
			continue
		}
		st.mark[v] = cs
		comp[v] = int32(ncomp)
		q := st.queue[:0]
		q = append(q, v)
		for i := 0; i < len(q); i++ {
			u := q[i]
			for _, w := range st.adj[st.xadj[u]:st.xadj[u+1]] {
				if st.inReg[w] == rs && st.mark[w] != cs {
					st.mark[w] = cs
					comp[w] = int32(ncomp)
					q = append(q, w)
				}
			}
		}
		st.queue = q
		ncomp++
	}
	if ncomp == 1 {
		return nil
	}
	out := make([][]int32, ncomp)
	for _, v := range verts {
		c := comp[v]
		out[c] = append(out[c], v)
	}
	return out
}

// bfsRegion breadth-first-searches the (connected) region from root, filling
// level/mark/queue, and returns the eccentricity.
func (st *ndState) bfsRegion(root, rs int32) int32 {
	st.stamp++
	q := st.queue[:0]
	q = append(q, root)
	st.mark[root] = st.stamp
	st.level[root] = 0
	var ecc int32
	for i := 0; i < len(q); i++ {
		v := q[i]
		for _, w := range st.adj[st.xadj[v]:st.xadj[v+1]] {
			if st.inReg[w] != rs || st.mark[w] == st.stamp {
				continue
			}
			st.mark[w] = st.stamp
			st.level[w] = st.level[v] + 1
			if st.level[w] > ecc {
				ecc = st.level[w]
			}
			q = append(q, w)
		}
	}
	st.queue = q
	return ecc
}

// regionDegree counts v's neighbours inside the region.
func (st *ndState) regionDegree(v, rs int32) int {
	d := 0
	for _, w := range st.adj[st.xadj[v]:st.xadj[v+1]] {
		if st.inReg[w] == rs {
			d++
		}
	}
	return d
}

// bisect runs one level-set bisection of the connected region: BFS level
// structure from a pseudo-peripheral vertex, cut-level selection, FM-style
// boundary refinement. On success the side array holds the A/B/separator
// assignment of every region vertex; it returns false when the region is too
// shallow to cut (the caller falls back to a leaf ordering).
func (st *ndState) bisect(verts []int32, rs int32) bool {
	_, ecc := st.pseudoPeripheral(verts[0], rs)
	if int(ecc)+1 < ndMinLevels {
		return false
	}
	st.assignSides(verts, ecc)
	st.refineSides(verts, rs)
	return true
}

// pseudoPeripheral runs the George–Liu heuristic inside the region: BFS from
// start, move to a minimum-degree vertex of the deepest level, repeat while
// the eccentricity grows. It leaves level/queue describing the BFS from the
// returned root.
func (st *ndState) pseudoPeripheral(start, rs int32) (root, ecc int32) {
	root = start
	ecc = st.bfsRegion(root, rs)
	for sweep := 0; sweep < 8; sweep++ {
		cand, cdeg := int32(-1), 0
		for _, v := range st.queue {
			if st.level[v] != ecc {
				continue
			}
			if d := st.regionDegree(v, rs); cand == -1 || d < cdeg || (d == cdeg && v < cand) {
				cand, cdeg = v, d
			}
		}
		if cand == -1 || cand == root {
			break
		}
		cecc := st.bfsRegion(cand, rs)
		if cecc <= ecc {
			// The candidate did not improve; restore the best root's levels.
			st.bfsRegion(root, rs)
			break
		}
		root, ecc = cand, cecc
	}
	return root, ecc
}

// assignSides picks the cut level of the current BFS level structure and
// assigns every region vertex a side: levels below the cut to A, above to B,
// the cut level itself to the separator. The cut level minimises separator
// size among the balanced cuts (each half at least ndBalanceMin of the
// non-separator vertices); when no cut is balanced, the most balanced one
// wins. Ties break towards the smaller level.
func (st *ndState) assignSides(verts []int32, ecc int32) {
	sizes := make([]int32, ecc+1)
	for _, v := range verts {
		sizes[st.level[v]]++
	}
	total := len(verts)
	best, bestScore, bestBalanced := int32(1), 0.0, false
	cum := int(sizes[0])
	for m := int32(1); m < ecc; m++ {
		na, ns := cum, int(sizes[m])
		nb := total - na - ns
		cum += ns
		minSide := na
		if nb < minSide {
			minSide = nb
		}
		balanced := float64(minSide) >= ndBalanceMin*float64(na+nb)
		var score float64
		if balanced {
			// Among balanced cuts: separator size scaled up by the imbalance,
			// so a slightly larger separator still wins when it splits the
			// region near the middle (halving drives the fill recurrence).
			imb := float64(na-nb) / float64(na+nb)
			if imb < 0 {
				imb = -imb
			}
			score = float64(ns) * (1 + imb)
		} else {
			// No balance: prefer the cut closest to balance regardless of size.
			score = -float64(minSide)
		}
		if m == 1 || (balanced && !bestBalanced) || (balanced == bestBalanced && score < bestScore) {
			best, bestScore, bestBalanced = m, score, balanced
		}
	}
	for _, v := range verts {
		switch {
		case st.level[v] < best:
			st.side[v] = 0
		case st.level[v] > best:
			st.side[v] = 1
		default:
			st.side[v] = 2
		}
	}
}

// refineSides shrinks the separator with Fiduccia–Mattheyses-style boundary
// moves. Each pass scans the separator in ascending vertex order:
//
//   - a vertex with no neighbour in one half moves to the other half
//     (separator −1, always an improvement);
//   - a vertex with exactly one neighbour in the smaller half swaps with it
//     (separator unchanged) when the swap strictly improves the balance.
//
// A move is only ever S→side, and a side vertex re-enters S only through a
// swap that removes its sole cross neighbour, so no A–B edge can appear.
func (st *ndState) refineSides(verts []int32, rs int32) {
	na, nb := 0, 0
	for _, v := range verts {
		switch st.side[v] {
		case 0:
			na++
		case 1:
			nb++
		}
	}
	for pass := 0; pass < ndMaxRefinePasses; pass++ {
		changed := false
		for _, v := range verts {
			if st.side[v] != 2 {
				continue
			}
			cntA, cntB := 0, 0
			lastA, lastB := int32(-1), int32(-1)
			for _, w := range st.adj[st.xadj[v]:st.xadj[v+1]] {
				if st.inReg[w] != rs {
					continue
				}
				switch st.side[w] {
				case 0:
					cntA++
					lastA = w
				case 1:
					cntB++
					lastB = w
				}
			}
			switch {
			case cntA == 0 && cntB == 0:
				// Interior to the separator: join the smaller half.
				if na <= nb {
					st.side[v] = 0
					na++
				} else {
					st.side[v] = 1
					nb++
				}
				changed = true
			case cntB == 0:
				st.side[v] = 0
				na++
				changed = true
			case cntA == 0:
				st.side[v] = 1
				nb++
				changed = true
			case cntB == 1 && na+1 < nb:
				// Swap towards the smaller half: v joins A, its sole B
				// neighbour replaces it in the separator.
				st.side[v] = 0
				st.side[lastB] = 2
				na++
				nb--
				changed = true
			case cntA == 1 && nb+1 < na:
				st.side[v] = 1
				st.side[lastA] = 2
				nb++
				na--
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

package factor

import (
	"fmt"
	"sync"

	"repro/internal/sparse"
)

// Analysis is the symbolic analysis of one sparsity pattern under one
// ordering: the resolved ordering and its fill-reducing permutation, the
// elimination tree, its postorder, the column counts of L and — computed on
// first use — the supernode partition with its row structures and update
// schedule. All of it depends on the off-diagonal pattern alone, so one
// analysis serves every factorisation of every matrix with that pattern:
// both sparse backends (NewCholesky, NewSupernodal), a Cholesky attempt and
// its LDLᵀ fallback, the shifted matrices A ∓ τI CheckTheorem factorises,
// and a subdomain's refactorisation after a crash restart.
//
// An Analysis is immutable once built (the supernode partition is filled
// once, under a sync.Once), so concurrent factorisations may share one.
type Analysis struct {
	n         int
	requested Ordering    // the ordering asked for (OrderAuto stays OrderAuto)
	order     Ordering    // the resolved concrete ordering (never OrderAuto)
	pattern   *sparse.CSR // the analysed matrix; factors take its off-diagonal pattern

	fill   Perm    // fill-reducing permutation, perm[new] = old; nil if identity
	parent []int32 // elimination tree of the fill-permuted pattern (-1 for roots)
	post   []int32 // postorder of parent, perm[new] = old in fill labels; nil if identity

	// The postordered labelling the supernodal backend factorises in: perm is
	// fill ∘ post (nil when both are the identity), inv its inverse, and
	// parentPost and count the elimination tree and the column counts of L
	// (diagonal included) in those labels.
	perm       Perm
	inv        []int32
	parentPost []int32
	count      []int32

	snOnce sync.Once
	sn     *snSym
}

// Analyze runs the symbolic analysis of a's pattern under the given ordering
// (OrderAuto resolves per the grid-vs-irregular policy). The elimination tree
// is read from a's own rows through the inverse permutation and the column
// counts come from the Gilbert–Ng–Peyton skeleton algorithm, so no permuted
// copy of a is formed; the temporaries come from a pooled workspace.
func Analyze(a *sparse.CSR, order Ordering) (*Analysis, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("factor: symbolic analysis of non-square %dx%d matrix", a.Rows(), a.Cols())
	}
	n := a.Rows()
	an := &Analysis{n: n, requested: order, order: resolveOrdering(a, order), pattern: a}
	w := getWorkspace()
	defer w.release()
	if n > 1 {
		an.fill = fillReducing(a, an.order)
	}
	var fillInv []int32
	if an.fill != nil {
		fillInv = inverse(an.fill, w.take(n))
	}
	an.parent = make([]int32, n)
	etreeOf(a, an.fill, fillInv, an.parent, w.take(n))

	post := postorder(an.parent, w.take(n), w)
	an.perm, an.parentPost = an.fill, an.parent
	if !isIdentity32(post) {
		an.post = append([]int32(nil), post...)
		an.perm = make(Perm, n)
		for i, old := range post {
			if an.fill != nil {
				an.perm[i] = an.fill[old]
			} else {
				an.perm[i] = int(old)
			}
		}
		postInv := w.take(n)
		for i, old := range post {
			postInv[old] = int32(i)
		}
		// A postorder is an equivalent reordering: the postordered pattern's
		// elimination tree is the relabelled tree.
		an.parentPost = make([]int32, n)
		for i, old := range post {
			if p := an.parent[old]; p == -1 {
				an.parentPost[i] = -1
			} else {
				an.parentPost[i] = postInv[p]
			}
		}
	}
	if an.perm != nil {
		an.inv = inverse(an.perm, make([]int32, n))
	}
	an.count = make([]int32, n)
	colCounts(a, an.perm, an.inv, an.parentPost, an.count, w)
	return an, nil
}

// check reports whether a has the analysed off-diagonal pattern (the
// diagonal may differ: A ∓ τI shares A's analysis whether or not A stores
// every diagonal entry).
func (an *Analysis) check(a *sparse.CSR) error {
	if a == an.pattern {
		return nil
	}
	if a.Rows() != an.n || a.Cols() != an.n {
		return fmt.Errorf("factor: a %dx%d matrix on the analysis of a %dx%d pattern", a.Rows(), a.Cols(), an.n, an.n)
	}
	for i := 0; i < an.n; i++ {
		x, _ := a.RowView(i)
		y, _ := an.pattern.RowView(i)
		for p, q := 0, 0; p < len(x) || q < len(y); {
			if p < len(x) && x[p] == i {
				p++
				continue
			}
			if q < len(y) && y[q] == i {
				q++
				continue
			}
			if p == len(x) || q == len(y) || x[p] != y[q] {
				return fmt.Errorf("factor: row %d's pattern differs from the analysed pattern's", i)
			}
			p++
			q++
		}
	}
	return nil
}

// inverse writes the inverse of the permutation p into inv and returns it.
func inverse(p Perm, inv []int32) []int32 {
	for i, old := range p {
		inv[old] = int32(i)
	}
	return inv
}

func isIdentity32(p []int32) bool {
	for i, v := range p {
		if int(v) != i {
			return false
		}
	}
	return true
}

// etreeOf computes into parent the elimination tree of the pattern of PAPᵀ
// (-1 for roots) with Liu's ancestor path compression, reading row k of PAPᵀ
// as row perm[k] of a with columns mapped through inv (perm nil: a itself).
// The tree is a function of the pattern alone, so visiting a row's entries
// in a's column order gives the tree the materialised PAPᵀ gives.
func etreeOf(a *sparse.CSR, perm Perm, inv, parent, ancestor []int32) {
	for i := range parent {
		parent[i], ancestor[i] = -1, -1
	}
	for k := range parent {
		row := k
		if perm != nil {
			row = perm[k]
		}
		cols, _ := a.RowView(row)
		for _, c := range cols {
			j := c
			if inv != nil {
				j = int(inv[c])
			}
			if j >= k {
				continue
			}
			for i := int32(j); i != -1 && int(i) < k; {
				next := ancestor[i]
				ancestor[i] = int32(k)
				if next == -1 {
					parent[i] = int32(k)
					break
				}
				i = next
			}
		}
	}
}

// postorder writes into post a postordering of the forest parent (children
// visited in ascending index order, every vertex emitted after its
// children), in the perm[new] = old convention, and returns it.
func postorder(parent, post []int32, w *workspace) []int32 {
	n := len(parent)
	top := w.off
	defer func() { w.off = top }()
	// Children lists in ascending child order: head/next singly linked lists
	// built by scanning vertices in DESCENDING order so each head ends lowest.
	head, next, stack := w.filled(n, -1), w.take(n), w.take(n)
	for v := n - 1; v >= 0; v-- {
		if p := parent[v]; p != -1 {
			next[v] = head[p]
			head[p] = int32(v)
		}
	}
	k := 0
	for r := 0; r < n; r++ {
		if parent[r] != -1 {
			continue
		}
		// Iterative DFS emitting vertices postorder.
		sp := 0
		stack[0] = int32(r)
		for sp >= 0 {
			v := stack[sp]
			if c := head[v]; c != -1 {
				head[v] = next[c] // consume the child link
				sp++
				stack[sp] = c
				continue
			}
			post[k] = v
			k++
			sp--
		}
	}
	return post
}

// colCounts writes into count the per-column nonzero counts of L (diagonal
// included) of the postordered PAPᵀ with elimination tree parent, reading
// its rows through perm and inv as etreeOf does — the Gilbert–Ng–Peyton
// skeleton-matrix algorithm: an entry A(i,j) contributes to count deltas
// only when j is a leaf of row i's row subtree, detected with
// first-descendant stamps and a path-compressing ancestor union-find, and
// the deltas accumulate up the tree in one final pass. The state an entry
// touches is its own row's, so the order of a row's entries does not matter.
func colCounts(a *sparse.CSR, perm Perm, inv, parent, count []int32, w *workspace) {
	n := len(parent)
	top := w.off
	defer func() { w.off = top }()
	first, maxfirst, prevleaf := w.filled(n, -1), w.filled(n, -1), w.filled(n, -1)
	ancestor := w.take(n)
	delta := count
	for i := range ancestor {
		ancestor[i] = int32(i)
		delta[i] = 0
	}
	// First descendants (the labels are a postorder, so k is its own
	// postorder rank); delta[j] starts at 1 exactly when j is a leaf.
	for k := 0; k < n; k++ {
		if first[k] == -1 {
			delta[k] = 1
		}
		for j := int32(k); j != -1 && first[j] == -1; j = parent[j] {
			first[j] = int32(k)
		}
	}
	for j := 0; j < n; j++ {
		if parent[j] != -1 {
			delta[parent[j]]--
		}
		row := j
		if perm != nil {
			row = perm[j]
		}
		cols, _ := a.RowView(row)
		for _, c := range cols {
			i := c
			if inv != nil {
				i = int(inv[c])
			}
			if i <= j || first[j] <= maxfirst[i] {
				continue // A(i,j) is not in the skeleton: j is not a new leaf
			}
			maxfirst[i] = first[j]
			jprev := prevleaf[i]
			prevleaf[i] = int32(j)
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
}

// snUpd is one scheduled rank-k update: descendant supernode d contributes
// the outer product of its panel rows [lo, hi) (its rows falling inside the
// target's columns) against rows [lo, ld_d) (those rows and everything below).
type snUpd struct{ d, lo, hi int32 }

// snSym is the supernodal half of an analysis, the structure the numeric
// phase executes: the supernode partition, per-supernode row structures and
// the update lists in their fixed deterministic order.
type snSym struct {
	ns     int
	sfirst []int32 // ns+1: supernode s covers columns [sfirst[s], sfirst[s+1])
	rx     []int32 // ns+1 offsets into rowind
	rowind []int32
	px     []int // ns+1 offsets into the panel value array
	maxLd  int   // the tallest supernode's row count

	// upd[updPtr[s]:updPtr[s+1]] are the updates supernode s pulls, in
	// ascending descendant order.
	updPtr []int32
	upd    []snUpd

	nnzStored int     // stored trapezoid entries (incl. amalgamation zeros)
	flops     float64 // symbolic estimate of the factorisation flops
}

// snBlock is a supernode under construction in the relaxed amalgamation.
type snBlock struct {
	first, last int32 // column range
	ld          int32 // rows of the trapezoid (width + |U|)
	nnz         int   // true factor entries in the column range
}

// supernodes returns the analysis's supernodal structure, computing it on
// the first call.
func (an *Analysis) supernodes() *snSym {
	an.snOnce.Do(func() {
		w := getWorkspace()
		an.sn = snSymbolic(an, w)
		w.release()
	})
	return an.sn
}

// snSymbolic runs the supernodal half of the analysis on the postordered
// labels: fundamental supernode detection from the column counts, relaxed
// amalgamation, supernodal row structures (merged child structures, the
// pattern's rows read through the permutation), update lists and flop
// estimates.
func snSymbolic(an *Analysis, w *workspace) *snSym {
	n := an.n
	sym := &snSym{}
	if n == 0 {
		sym.sfirst = []int32{0}
		sym.rx = []int32{0}
		sym.px = []int{0}
		sym.updPtr = []int32{0}
		return sym
	}
	a, perm, inv := an.pattern, an.perm, an.inv
	parent, count := an.parentPost, an.count

	// Fundamental supernodes: column j extends the current supernode when it
	// is the etree parent of its predecessor and the counts nest
	// (count[j-1] == count[j]+1 ⇔ struct(j-1) = {j-1} ∪ struct(j)).
	first := w.take(n)
	nf := 1
	first[0] = 0
	for j := 1; j < n; j++ {
		width := j - int(first[nf-1])
		if parent[j-1] == int32(j) && count[j-1] == count[j]+1 && width < snMaxWidth {
			continue
		}
		first[nf] = int32(j)
		nf++
	}

	// Relaxed amalgamation over the fundamental partition, processed as a
	// stack: when the next supernode fs is the supernodal parent of the stack
	// top (the top's last column's etree parent lies inside fs) and the merged
	// trapezoid stays within the zero-fill budget, the top is absorbed into
	// fs — repeatedly, since fs keeps growing downward.
	entries := func(b snBlock) int {
		width := int(b.last - b.first + 1)
		return width*int(b.ld) - width*(width-1)/2
	}
	sstack := w.blocks[:0]
	for i := 0; i < nf; i++ {
		last := int32(n - 1)
		if i+1 < nf {
			last = first[i+1] - 1
		}
		cur := snBlock{first: first[i], last: last, ld: count[first[i]]}
		for j := cur.first; j <= last; j++ {
			cur.nnz += int(count[j])
		}
		for len(sstack) > 0 {
			top := sstack[len(sstack)-1]
			p := parent[top.last]
			if p == -1 || p < cur.first || p > cur.last {
				break // top is not a child of cur in the supernodal etree
			}
			merged := snBlock{
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
	w.blocks = sstack

	ns := len(sstack)
	sym.ns = ns
	sym.sfirst = make([]int32, ns+1)
	super := w.take(n) // column -> supernode
	total := 0
	for s, b := range sstack {
		sym.sfirst[s] = b.first
		for j := b.first; j <= b.last; j++ {
			super[j] = int32(s)
		}
		total += int(b.ld)
	}
	sym.sfirst[ns] = int32(n)

	// Supernodal etree, as children lists in ascending order (head/next,
	// built descending).
	head, next := w.filled(ns, -1), w.take(ns)
	for s := ns - 1; s >= 0; s-- {
		if p := parent[sym.sfirst[s+1]-1]; p != -1 {
			ps := super[p]
			next[s] = head[ps]
			head[ps] = int32(s)
		}
	}

	// Row structures: rows(s) = cols(s) ++ U(s) with
	// U(s) = (∪_{child c} U(c) ∪ A-pattern below cols(s)) \ cols(s), merged
	// with a stamp array and sorted — no second ereach sweep.
	sym.rx = make([]int32, ns+1)
	sym.px = make([]int, ns+1)
	rowind := make([]int32, 0, total)
	smark := w.filled(n, -1)
	ubuf := w.take(n)
	for s := 0; s < ns; s++ {
		f, l := sym.sfirst[s], sym.sfirst[s+1]-1
		nu := 0
		for j := f; j <= l; j++ {
			row := int(j)
			if perm != nil {
				row = perm[j]
			}
			cols, _ := a.RowView(row)
			for _, c := range cols {
				i := int32(c)
				if inv != nil {
					i = inv[c]
				}
				if i > l && smark[i] != int32(s) {
					smark[i] = int32(s)
					ubuf[nu] = i
					nu++
				}
			}
		}
		for ch := head[s]; ch != -1; ch = next[ch] {
			u := rowind[sym.rx[ch]+(sym.sfirst[ch+1]-sym.sfirst[ch]) : sym.rx[ch+1]]
			for _, r := range u {
				if r > l && smark[r] != int32(s) {
					smark[r] = int32(s)
					ubuf[nu] = r
					nu++
				}
			}
		}
		sortInt32(ubuf[:nu])
		for j := f; j <= l; j++ {
			rowind = append(rowind, j)
		}
		rowind = append(rowind, ubuf[:nu]...)
		sym.rx[s+1] = int32(len(rowind))
		width, ld := int(l-f+1), int(l-f+1)+nu
		sym.px[s+1] = sym.px[s] + ld*width
		sym.nnzStored += width*ld - width*(width-1)/2
		sym.maxLd = max(sym.maxLd, ld)
	}
	sym.rowind = rowind

	// Update lists: descendant d updates every supernode owning a row of its
	// below-diagonal structure, over the [lo, hi) row window recorded so the
	// numeric phase does no searching. One pass counts each target's updates
	// and sums the flop estimates, a second fills the lists; scanning the
	// descendants in ascending order keeps every list in its deterministic
	// (ascending-descendant) order.
	flops := w.floats(ns)
	sym.updPtr = make([]int32, ns+1)
	for pass := 0; pass < 2; pass++ {
		cursor := sym.updPtr
		if pass == 1 {
			for s := 0; s < ns; s++ {
				sym.updPtr[s+1] += sym.updPtr[s]
			}
			sym.upd = make([]snUpd, sym.updPtr[ns])
			cursor = w.take(ns)
			copy(cursor, sym.updPtr[:ns])
		}
		for d := 0; d < ns; d++ {
			wd := sym.sfirst[d+1] - sym.sfirst[d]
			rows := rowind[sym.rx[d]:sym.rx[d+1]]
			ld := int32(len(rows))
			for t := wd; t < ld; {
				s := super[rows[t]]
				hi := t + 1
				lastCol := sym.sfirst[s+1]
				for hi < ld && rows[hi] < lastCol {
					hi++
				}
				if pass == 0 {
					cursor[s+1]++
					// 2·m·q·k flops for the gemm plus the scatter.
					flops[s] += 2 * float64(ld-t) * float64(hi-t) * float64(wd)
				} else {
					sym.upd[cursor[s]] = snUpd{d: int32(d), lo: t, hi: hi}
					cursor[s]++
				}
				t = hi
			}
			if pass == 0 {
				// Trapezoidal panel factorisation of d itself: ~w²·ld flops.
				flops[d] += float64(wd) * float64(wd) * float64(ld)
			}
		}
	}
	for _, f := range flops {
		sym.flops += f
	}
	return sym
}

// SupernodalAnalysis is what a supernodal factorisation under a given
// ordering would cost, measured symbolically — no numeric work is done.
type SupernodalAnalysis struct {
	Ordering   Ordering // the resolved concrete ordering
	Supernodes int
	NNZL       int     // stored trapezoid entries (incl. amalgamation zeros)
	Flops      float64 // estimated factorisation flops
}

// AnalyzeSupernodal runs only the symbolic phase and reports the factor's
// cost profile — the cheap way to compare orderings (E6's ND-vs-RCM column)
// without paying for numeric factorisations. It is a view of Analyze.
func AnalyzeSupernodal(a *sparse.CSR, order Ordering) (SupernodalAnalysis, error) {
	an, err := Analyze(a, order)
	if err != nil {
		return SupernodalAnalysis{}, err
	}
	sym := an.supernodes()
	return SupernodalAnalysis{Ordering: an.order, Supernodes: sym.ns, NNZL: sym.nnzStored, Flops: sym.flops}, nil
}

package factor

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/sparse"
)

// SupernodalMode selects which factorisation the supernodal backend computes:
// P·A·Pᵀ = L·Lᵀ (Cholesky, SPD only) or P·A·Pᵀ = L·D·Lᵀ (signed 1×1 pivots,
// symmetric quasi-definite and friends).
type SupernodalMode int

const (
	// ModeCholesky factorises P·A·Pᵀ = L·Lᵀ and fails with
	// ErrNotPositiveDefinite on a non-positive pivot.
	ModeCholesky SupernodalMode = iota
	// ModeLDLT factorises P·A·Pᵀ = L·D·Lᵀ with unit-lower L and signed 1×1
	// pivots, failing with ErrSingular on a numerically zero pivot.
	ModeLDLT
)

// String returns the mode's short name as used in reports.
func (m SupernodalMode) String() string {
	if m == ModeLDLT {
		return "ldlt"
	}
	return "cholesky"
}

// ldltPivotRelTol is the 1×1 pivot acceptance threshold of LDLᵀ mode: a pivot
// whose magnitude falls below this fraction of the matrix's largest entry is
// declared (numerically) singular. Unlike Bunch–Kaufman there is no 2×2 pivot
// rescue — the symmetric quasi-definite and shifted-SNND blocks the auto
// policy routes here are exactly the class where 1×1 diagonal pivots are safe
// under any symmetric permutation.
const ldltPivotRelTol = 1e-13

// Supernode partitioning and amalgamation parameters. A supernode is a run of
// consecutive columns factorised as one dense trapezoidal panel; relaxed
// amalgamation merges a child supernode into its parent when the explicit
// zeros this introduces stay below a width-staged budget, trading a few wasted
// flops for larger dense blocks (longer unit-stride kernels, fewer scatters).
const (
	// snMaxWidth caps the column count of a supernode. Wider panels amortise
	// indexing better but blow past the L1-resident working set the blocked
	// kernels are tuned for.
	snMaxWidth = 48
	// snChunkRows is the row blocking of the rank-k update: update rows are
	// processed in chunks of this many rows so the accumulation buffer
	// (snChunkRows × snMaxWidth floats) stays cache resident.
	snChunkRows = 128
)

// snRelaxOK is the relaxed-amalgamation budget: merging is allowed while the
// merged width stays within snMaxWidth and the fraction of explicit zeros in
// the merged trapezoid stays under a width-staged cap (small supernodes gain
// the most from merging, so they tolerate the most padding).
func snRelaxOK(width, zeros, entries int) bool {
	if width > snMaxWidth {
		return false
	}
	frac := float64(zeros) / float64(entries)
	switch {
	case width <= 4:
		return frac <= 0.6
	case width <= 12:
		return frac <= 0.35
	case width <= 24:
		return frac <= 0.2
	default:
		return frac <= 0.1
	}
}

// snRelaxFracMax is the loosest zero-fill fraction snRelaxOK ever accepts;
// the partition property tests assert no supernode exceeds it.
const snRelaxFracMax = 0.6

// Supernodal is the blocked sparse factorisation P·A·Pᵀ = L·Lᵀ (ModeCholesky)
// or L·D·Lᵀ (ModeLDLT). Columns are grouped into supernodes — runs of columns
// with (near-)identical sparsity structure below the diagonal, detected on the
// postordered elimination tree and enlarged by relaxed amalgamation — and each
// supernode is stored as one dense column-major trapezoidal panel. The numeric
// phase factorises each panel with dense kernels (register-blocked rank-k
// updates pulled from descendant supernodes, then a dense trapezoidal
// factorisation), one supernode after another in ascending order on the
// calling goroutine; the triangular sweeps are sequential too. Nothing here
// reads GOMAXPROCS or starts a goroutine, so factors and solves are
// byte-identical at every setting by construction. The parallelism this
// backend serves is between callers: one factor answers concurrent SolveTo
// calls (see scratch below).
type Supernodal struct {
	n     int
	mode  SupernodalMode
	order Ordering // resolved concrete ordering (never OrderAuto)
	perm  Perm     // perm[new] = old, fill-reducing ∘ postorder; nil if identity

	// Partition: supernode s covers columns [sfirst[s], sfirst[s+1]) and rows
	// rowind[rx[s]:rx[s+1]] (the first width entries are its own columns); its
	// panel is panel[px[s]:px[s+1]], column-major with leading dimension
	// rx[s+1]-rx[s]. Entries of the panel strictly above the diagonal block's
	// diagonal are dead storage.
	ns     int
	sfirst []int32
	rx     []int32
	rowind []int32
	px     []int
	panel  []float64

	d []float64 // ModeLDLT: the signed pivots in permuted order

	// scratch pools per-call solve buffers (*snSolveScratch), so SolveTo is
	// reentrant: concurrent solves on one factor — the factor-once/solve-many
	// pattern of the DTM subdomains — share nothing mutable.
	scratch sync.Pool

	// Stats from the symbolic phase.
	nnzStored int     // stored trapezoid entries (incl. amalgamation zeros)
	flopsEst  float64 // symbolic estimate of the factorisation flops
}

// snSolveScratch is the per-call scratch of SolveTo: the permuted
// rhs/solution vector and the gather/scatter buffer (maxLd long).
type snSolveScratch struct {
	w sparse.Vec
	g []float64
}

// NewSupernodal factorises the sparse symmetric matrix a under the given
// fill-reducing ordering (OrderAuto resolves per the grid-vs-irregular
// policy) in the given mode. Like the scalar sparse Cholesky it reads only
// one triangle of the input (the upper rows of the CSR, which for the
// symmetric matrices every caller passes is the mirror of the lower).
func NewSupernodal(a *sparse.CSR, order Ordering, mode SupernodalMode) (*Supernodal, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("factor: supernodal factorisation of non-square %dx%d matrix", a.Rows(), a.Cols())
	}
	n := a.Rows()
	c, perm, sym, resolved := snPrepare(a, order)
	s := &Supernodal{n: n, mode: mode, order: resolved, perm: perm}
	s.ns = sym.ns
	s.sfirst = sym.sfirst
	s.rx = sym.rx
	s.rowind = sym.rowind
	s.px = sym.px
	s.nnzStored = sym.nnzStored
	for _, f := range sym.flops {
		s.flopsEst += f
	}
	s.panel = make([]float64, s.px[s.ns])
	if mode == ModeLDLT {
		s.d = make([]float64, n)
	}
	maxLd := 0
	for i := 0; i < s.ns; i++ {
		if ld := int(s.rx[i+1] - s.rx[i]); ld > maxLd {
			maxLd = ld
		}
	}
	s.scratch.New = func() any {
		return &snSolveScratch{w: sparse.NewVec(n), g: make([]float64, maxLd)}
	}

	if err := s.factorAll(c, sym); err != nil {
		return nil, err
	}
	return s, nil
}

// snPrepare is the shared front half of NewSupernodal and AnalyzeSupernodal:
// resolve the ordering, compose the fill-reducing permutation with the
// elimination-tree postorder (supernode detection needs postordered columns)
// and run the symbolic phase. c is the permuted matrix the numeric phase
// reads; perm is nil when the combined permutation is the identity.
func snPrepare(a *sparse.CSR, order Ordering) (c *sparse.CSR, perm Perm, sym *snSym, resolved Ordering) {
	n := a.Rows()
	resolved = resolveOrdering(a, order)
	c = a
	var fillPerm Perm
	if n > 1 {
		if p := fillReducing(a, resolved); p != nil {
			fillPerm = p
			c = a.PermuteSym(p)
		}
	}
	parent := etree(c)
	post := postorder(parent)
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
		parent = relabelEtree(parent, post)
	} else if fillPerm != nil {
		perm = fillPerm
	}
	return c, perm, snSymbolic(c, parent), resolved
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
// without paying for numeric factorisations.
func AnalyzeSupernodal(a *sparse.CSR, order Ordering) (SupernodalAnalysis, error) {
	if a.Rows() != a.Cols() {
		return SupernodalAnalysis{}, fmt.Errorf("factor: supernodal analysis of non-square %dx%d matrix", a.Rows(), a.Cols())
	}
	_, _, sym, resolved := snPrepare(a, order)
	an := SupernodalAnalysis{
		Ordering:   resolved,
		Supernodes: sym.ns,
		NNZL:       sym.nnzStored,
	}
	for _, f := range sym.flops {
		an.Flops += f
	}
	return an, nil
}

// postorder returns a postordering of the forest parent (children visited in
// ascending index order, every vertex emitted after its children), in the
// perm[new] = old convention.
func postorder(parent []int) []int {
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

// relabelEtree maps the elimination tree through the postorder permutation:
// the postordered matrix's etree is the relabelled old tree (a postorder is an
// equivalent reordering, so the structure is preserved).
func relabelEtree(parent, post []int) []int {
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

// snColCounts returns the per-column nonzero counts of L (diagonal included)
// for the postordered pattern-symmetric matrix c with elimination tree
// parent — the Gilbert–Ng–Peyton skeleton-matrix algorithm: an entry A(i,j)
// contributes to count deltas only when j is a leaf of row i's row subtree,
// detected with first-descendant stamps and a path-halving ancestor
// union-find, and the deltas accumulate up the tree in one final pass.
func snColCounts(c *sparse.CSR, parent []int) []int {
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
	// rank); delta[j] starts at 1 exactly when j is a leaf of the etree.
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

// snUpd is one scheduled rank-k update: descendant supernode d contributes
// the outer product of its panel rows [lo, hi) (its rows falling inside the
// target's columns) against rows [lo, ld_d) (those rows and everything below).
type snUpd struct{ d, lo, hi int32 }

// snSym is the symbolic analysis the numeric phase executes: the supernode
// partition, per-supernode row structures, the per-supernode update lists in
// their fixed deterministic order, and the per-supernode flop estimates.
type snSym struct {
	n      int
	parent []int // postordered etree
	ns     int
	super  []int32 // column -> supernode
	sfirst []int32 // ns+1
	rx     []int32 // ns+1 offsets into rowind
	rowind []int32
	px     []int // ns+1 offsets into the panel value array

	sparent []int32   // supernodal etree (-1 for roots)
	upd     [][]snUpd // per-supernode update lists, ascending descendant order
	flops   []float64 // per-supernode numeric cost estimate

	nnzStored int
}

// snSymbolic runs the full symbolic phase on the postordered matrix c:
// per-column counts (one ereach sweep), fundamental supernode detection,
// relaxed amalgamation, supernodal row structures (merged child structures,
// no second sweep), update lists and flop estimates.
func snSymbolic(c *sparse.CSR, parent []int) *snSym {
	n := c.Rows()
	sym := &snSym{n: n, parent: parent}
	if n == 0 {
		sym.sfirst = []int32{0}
		sym.rx = []int32{0}
		sym.px = []int{0}
		return sym
	}

	// Per-column counts of L — the Gilbert–Ng–Peyton skeleton algorithm,
	// O(nnz·α) instead of the O(nnz(L)) ereach sweep the scalar Cholesky runs.
	count := snColCounts(c, parent)

	// Fundamental supernodes: column j extends the current supernode when it
	// is the etree parent of its predecessor and the counts nest
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
	// top (the top's last column's etree parent lies inside fs) and the merged
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
				break // top is not a child of cur in the supernodal etree
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

	// Supernodal etree.
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
	// with a stamp array and sorted — no second ereach sweep. Children lists
	// come from the supernodal etree (ascending automatically).
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

// Dim returns the dimension of the factorised matrix.
func (s *Supernodal) Dim() int { return s.n }

// Backend implements LocalSolver.
func (s *Supernodal) Backend() string { return SparseSupernodal }

// Mode returns which factorisation the backend computed (Cholesky or LDLᵀ).
func (s *Supernodal) Mode() SupernodalMode { return s.mode }

// Ordering returns the concrete fill-reducing ordering the factorisation
// resolved to (OrderRCM or OrderAMD when built with OrderAuto).
func (s *Supernodal) Ordering() Ordering { return s.order }

// NNZL returns the number of stored factor entries — the dense trapezoids,
// including the explicit zeros relaxed amalgamation padded in. This is the
// factor's true memory footprint, the number comparable to the scalar
// Cholesky's NNZL (which counts only true entries).
func (s *Supernodal) NNZL() int { return s.nnzStored }

// Supernodes returns the number of supernodes of the partition.
func (s *Supernodal) Supernodes() int { return s.ns }

// Inertia returns the number of positive, negative and exactly-zero pivots of
// D — by Sylvester's law the inertia of A itself, which is how callers tell a
// definite block from a genuine saddle point after the fact. In Cholesky mode
// every pivot is positive by construction. (A zero pivot can only be reported
// on a matrix whose largest entry is itself zero: anything else fails the
// relative pivot threshold and the factorisation returns ErrSingular
// instead.)
func (s *Supernodal) Inertia() (pos, neg, zero int) {
	if s.mode == ModeCholesky {
		return s.n, 0, 0
	}
	return inertiaOf(s.d)
}

// inertiaOf classifies the pivots of d by exact sign; a zero is neither
// positive nor negative.
func inertiaOf(d []float64) (pos, neg, zero int) {
	for _, v := range d {
		switch {
		case v > 0:
			pos++
		case v < 0:
			neg++
		default:
			zero++
		}
	}
	return pos, neg, zero
}

// Flops returns the symbolic estimate of the factorisation's floating-point
// work (panel factorisations plus rank-k updates) — the number the E6
// ordering comparison reports.
func (s *Supernodal) Flops() float64 { return s.flopsEst }

// FactorBytes returns the factor's resident memory footprint: panels,
// pivots and row structure.
func (s *Supernodal) FactorBytes() int64 {
	return int64(len(s.panel)+len(s.d))*8 +
		int64(len(s.rowind)+len(s.sfirst)+len(s.rx))*4 +
		int64(len(s.px)+len(s.perm))*8
}

// Solve solves A·x = b and returns x.
func (s *Supernodal) Solve(b sparse.Vec) sparse.Vec {
	x := sparse.NewVec(s.n)
	s.SolveTo(x, b)
	return x
}

// SolveTo solves A·x = b into x using the precomputed factor, on the calling
// goroutine: permute, supernodal forward substitution (dense triangular solve
// per diagonal block, gathered rectangular updates), the D⁻¹ scaling in LDLᵀ
// mode, supernodal backward substitution, permute back. Its floating-point
// order is pinned: TestSupernodalDeterministicAcrossGOMAXPROCS's hashes and
// the bigblock-grid65 benchmark counters move on any last-bit change. x may
// alias b. SolveTo is reentrant — all scratch is per call — so one factor may
// serve concurrent solves.
func (s *Supernodal) SolveTo(x, b sparse.Vec) {
	n := s.n
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("factor: supernodal solve dimension mismatch n=%d len(b)=%d len(x)=%d", n, len(b), len(x)))
	}
	sc := s.scratch.Get().(*snSolveScratch)
	w := sc.w
	if s.perm != nil {
		for i, old := range s.perm {
			w[i] = b[old]
		}
	} else {
		copy(w, b)
	}
	unit := s.mode == ModeLDLT

	// Forward: L y = P b. Per supernode: dense (unit-)lower solve on the
	// diagonal block, then one gathered accumulation of the rectangular
	// panel's contribution, scattered to the ancestor rows once.
	for sn := 0; sn < s.ns; sn++ {
		f := int(s.sfirst[sn])
		width := int(s.sfirst[sn+1]) - f
		ld := int(s.rx[sn+1] - s.rx[sn])
		panel := s.panel[s.px[sn]:s.px[sn+1]]
		rows := s.rowind[s.rx[sn]:s.rx[sn+1]]
		g := sc.g[:ld-width]
		for i := range g {
			g[i] = 0
		}
		for jj := 0; jj < width; jj++ {
			col := panel[jj*ld:]
			v := w[f+jj]
			if !unit {
				v /= col[jj]
				w[f+jj] = v
			}
			if v == 0 {
				continue
			}
			for i := jj + 1; i < width; i++ {
				w[f+i] -= col[i] * v
			}
			for i := width; i < ld; i++ {
				g[i-width] += col[i] * v
			}
		}
		for i := width; i < ld; i++ {
			w[rows[i]] -= g[i-width]
		}
	}
	if unit {
		for j := 0; j < n; j++ {
			w[j] /= s.d[j]
		}
	}
	// Backward: Lᵀ z = y, per supernode descending.
	for sn := s.ns - 1; sn >= 0; sn-- {
		s.backwardSupernode(sn, w, sc.g)
	}
	if s.perm != nil {
		for i, old := range s.perm {
			x[old] = w[i]
		}
	} else {
		copy(x, w)
	}
	s.scratch.Put(sc)
}

// backwardSupernode runs supernode sn's slice of the backward sweep Lᵀ z = y
// on the permuted working vector w: gather the ancestor rows into g, subtract
// each column's pre-summed rectangular contribution, then the dense
// (unit-)upper solve on the diagonal block. The rectangular contribution is
// pre-summed per column in ascending row order; that order is part of the
// pinned solve bytes (see SolveTo).
func (s *Supernodal) backwardSupernode(sn int, w sparse.Vec, g []float64) {
	f := int(s.sfirst[sn])
	width := int(s.sfirst[sn+1]) - f
	ld := int(s.rx[sn+1] - s.rx[sn])
	panel := s.panel[s.px[sn]:s.px[sn+1]]
	rows := s.rowind[s.rx[sn]:s.rx[sn+1]]
	unit := s.mode == ModeLDLT
	if m := ld - width; m > 0 {
		gb := g[:m]
		for i := 0; i < m; i++ {
			gb[i] = w[rows[width+i]]
		}
		for jj := 0; jj < width; jj++ {
			col := panel[jj*ld+width:]
			sum := 0.0
			for i := 0; i < m; i++ {
				sum += col[i] * gb[i]
			}
			w[f+jj] -= sum
		}
	}
	for jj := width - 1; jj >= 0; jj-- {
		col := panel[jj*ld:]
		sum := w[f+jj]
		for i := jj + 1; i < width; i++ {
			sum -= col[i] * w[f+i]
		}
		if !unit {
			sum /= col[jj]
		}
		w[f+jj] = sum
	}
}

// snPivotError builds the deterministic pivot failure for permuted column k.
func (s *Supernodal) snPivotError(k int, dk, tol float64) error {
	if s.mode == ModeCholesky {
		return fmt.Errorf("%w: pivot %d is %g", ErrNotPositiveDefinite, k, dk)
	}
	return fmt.Errorf("%w: LDLT pivot %d is %g (threshold %g)", ErrSingular, k, dk, tol)
}

// snPivotBad reports whether pivot dk fails the mode's acceptance test.
func (s *Supernodal) snPivotBad(dk, tol float64) bool {
	if s.mode == ModeCholesky {
		return dk <= 0 || math.IsNaN(dk)
	}
	return math.Abs(dk) <= tol || math.IsNaN(dk)
}

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
	an    *Analysis

	// Partition, shared with the analysis: supernode s covers columns
	// [sfirst[s], sfirst[s+1]) and rows rowind[rx[s]:rx[s+1]] (the first
	// width entries are its own columns); its panel is panel[px[s]:px[s+1]],
	// column-major with leading dimension rx[s+1]-rx[s]. Entries of the panel
	// strictly above the diagonal block's diagonal are dead storage.
	ns     int
	sfirst []int32
	rx     []int32
	rowind []int32
	px     []int
	panel  []float64

	d []float64 // ModeLDLT: the signed pivots in permuted order

	// Ports, when NewPorts named any (markClosure): portPos[p] is the permuted
	// column of port p, and closure[sn] says supernode sn lies on an
	// elimination-tree path from a port column to a root. Both nil otherwise.
	portPos []int32
	closure []bool

	// scratch pools per-call solve buffers (*snSolveScratch), so SolveTo is
	// reentrant: concurrent solves on one factor — the factor-once/solve-many
	// pattern of the DTM subdomains — share nothing mutable.
	scratch sync.Pool

	// Stats from the analysis.
	nnzStored int     // stored trapezoid entries (incl. amalgamation zeros)
	flopsEst  float64 // symbolic estimate of the factorisation flops
}

// snSolveScratch is the per-call scratch of SolveTo: the permuted
// rhs/solution vector and the gather/scatter buffer (maxLd long).
type snSolveScratch struct {
	w sparse.Vec
	g []float64
}

// NewSupernodal factorises a, which must have the analysed off-diagonal
// pattern, in the given mode on the analysis's supernode partition. The
// factor shares the analysis's structure, and the numeric phase reads a's
// rows through the permutation: no permuted copy of a is formed. Like the
// scalar sparse Cholesky it reads only one triangle of a (the upper rows of
// the CSR, which for the symmetric matrices every caller passes is the
// mirror of the lower).
func (an *Analysis) NewSupernodal(a *sparse.CSR, mode SupernodalMode) (*Supernodal, error) {
	if err := an.check(a); err != nil {
		return nil, err
	}
	sym := an.supernodes()
	n := an.n
	s := &Supernodal{
		n: n, mode: mode, order: an.order, perm: an.perm, an: an,
		ns: sym.ns, sfirst: sym.sfirst, rx: sym.rx, rowind: sym.rowind, px: sym.px,
		nnzStored: sym.nnzStored, flopsEst: sym.flops,
	}
	s.panel = make([]float64, s.px[s.ns])
	if mode == ModeLDLT {
		s.d = make([]float64, n)
	}
	maxLd := sym.maxLd
	s.scratch.New = func() any {
		return &snSolveScratch{w: sparse.NewVec(n), g: make([]float64, maxLd)}
	}
	if err := s.factorAll(a, an.inv, sym); err != nil {
		return nil, err
	}
	return s, nil
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
// the bigblock-grid65 benchmark counters move on any last-bit change, and
// TestBlockedSweepsMatchScalar holds the sweeps to that order on every
// target. Every update in them is one `a += b*c` or `a -= b*c` statement, so
// a target that fuses multiply-adds fuses the same operations whatever the
// grouping. x may
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
	// Forward: L y = P b, per supernode ascending.
	for sn := 0; sn < s.ns; sn++ {
		s.forwardSupernode(sn, w, sc.g)
	}
	if s.mode == ModeLDLT {
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

// forwardSupernode runs supernode sn's slice of the forward sweep L y = P b
// on the permuted working vector w: the dense (unit-)lower solve on the
// diagonal block, and one gathered accumulation of the rectangular panel's
// contribution into g[:ld-width], scattered to the ancestor rows once. g
// still holds that contribution on return. Its order is part of the pinned
// solve bytes (see SolveTo): every g[i] starts at 0 and adds, one `+= col·v`
// each, the columns whose value is nonzero in ascending column order.
//
// The panel is swept four nonzero columns per pass, g loaded and stored once
// for all four, each pass as soon as the diagonal solve has finished its
// fourth column (a column's value is final once its own step is done). A
// column whose value is zero, of either sign, is skipped; the columns after
// it fill the pass in its place.
func (s *Supernodal) forwardSupernode(sn int, w sparse.Vec, g []float64) {
	f := int(s.sfirst[sn])
	width := int(s.sfirst[sn+1]) - f
	ld := int(s.rx[sn+1] - s.rx[sn])
	panel := s.panel[s.px[sn]:s.px[sn+1]]
	rows := s.rowind[s.rx[sn]:s.rx[sn+1]]
	unit := s.mode == ModeLDLT
	g = g[:ld-width]
	clear(g)
	var cols [4]int // the pending pass's columns, ascending
	k := 0
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
		if cols[k] = jj; k < 3 {
			k++
			continue
		}
		k = 0
		c0, c1 := panel[cols[0]*ld+width:][:len(g)], panel[cols[1]*ld+width:][:len(g)]
		c2, c3 := panel[cols[2]*ld+width:][:len(g)], col[width:][:len(g)]
		v0, v1, v2 := w[f+cols[0]], w[f+cols[1]], w[f+cols[2]]
		for i := range g {
			t := g[i]
			t += c0[i] * v0
			t += c1[i] * v1
			t += c2[i] * v2
			t += c3[i] * v
			g[i] = t
		}
	}
	for _, jj := range cols[:k] {
		col, v := panel[jj*ld+width:][:len(g)], w[f+jj]
		for i := range g {
			g[i] += col[i] * v
		}
	}
	for i, r := range rows[width:] {
		w[r] -= g[i]
	}
}

// backwardSupernode runs supernode sn's slice of the backward sweep Lᵀ z = y
// on the permuted working vector w: gather the ancestor rows into g, subtract
// each column's pre-summed rectangular contribution, and the dense
// (unit-)upper solve on the diagonal block. The rectangular contribution is
// pre-summed per column from 0 in ascending row order, one `+= col·g` each;
// that order is part of the pinned solve bytes (see SolveTo).
//
// The columns go in groups of four from the last: one pass over the gathered
// rows sums a group's four contributions in four accumulators, four
// independent chains of adds where one would make every add wait on the
// last. The group's diagonal solve follows, so the next group's pass can run
// beside that solve's dependent chain; it reads only columns above its own
// group, which are final.
func (s *Supernodal) backwardSupernode(sn int, w sparse.Vec, g []float64) {
	f := int(s.sfirst[sn])
	width := int(s.sfirst[sn+1]) - f
	ld := int(s.rx[sn+1] - s.rx[sn])
	m := ld - width
	panel := s.panel[s.px[sn]:s.px[sn+1]]
	rows := s.rowind[s.rx[sn]:s.rx[sn+1]]
	unit := s.mode == ModeLDLT
	gb := g[:m]
	for i, r := range rows[width:] {
		gb[i] = w[r]
	}
	for hi := width; hi > 0; hi -= 4 {
		lo := max(hi-4, 0)
		if m > 0 {
			// A group short of four repeats its last column in the spare
			// chains, whose sums are dropped.
			j1, j2, j3 := min(lo+1, hi-1), min(lo+2, hi-1), min(lo+3, hi-1)
			c0, c1 := panel[lo*ld+width:][:m], panel[j1*ld+width:][:m]
			c2, c3 := panel[j2*ld+width:][:m], panel[j3*ld+width:][:m]
			var s0, s1, s2, s3 float64
			for i, x := range gb {
				s0 += c0[i] * x
				s1 += c1[i] * x
				s2 += c2[i] * x
				s3 += c3[i] * x
			}
			switch hi - lo {
			case 4:
				w[f+lo+3] -= s3
				fallthrough
			case 3:
				w[f+lo+2] -= s2
				fallthrough
			case 2:
				w[f+lo+1] -= s1
			}
			w[f+lo] -= s0
		}
		for jj := hi - 1; jj >= lo; jj-- {
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

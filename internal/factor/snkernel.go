package factor

import (
	"math"

	"repro/internal/sparse"
)

// Dense numeric kernels of the supernodal factorisation. Every kernel works
// on column-major panels and is deterministic: a supernode's floating-point
// operations run in one fixed order, set by the symbolic phase.
//
// The rank-k update is organised like a register-blocked BLAS: both operands
// are packed into contiguous 4-wide, k-major panels (zero-padded, so the
// 4×4 microkernel has no remainder cases), the product accumulates in sixteen
// registers per tile, and the result lands in a cache-resident chunk buffer
// before being scattered into the target supernode.

// snPanelStrip is the column-strip width of the blocked trapezoidal
// factorisation: strips factorise scalar, everything to their right updates
// through the packed microkernel.
const snPanelStrip = 8

// snWorker is the scratch of the numeric phase, allocated once per
// factorisation.
type snWorker struct {
	relind []int32   // global row -> row within the supernode being built
	abuf   []float64 // packed left operand, one row chunk
	bbuf   []float64 // packed right operand (D-scaled in LDLᵀ mode)
	cbuf   []float64 // accumulation chunk (snChunkRows × snMaxWidth, padded)
}

func newSnWorker(n int) *snWorker {
	return &snWorker{
		relind: make([]int32, n),
		abuf:   make([]float64, snChunkRows*snMaxWidth),
		bbuf:   make([]float64, snMaxWidth*snMaxWidth),
		cbuf:   make([]float64, snChunkRows*snMaxWidth),
	}
}

// packPanels packs rows [rowOff, rowOff+rows) of the ld-strided column-major
// k-column matrix src into dst as ⌈rows/4⌉ consecutive k-major 4-row panels,
// zero-padding the last panel. When scale is non-nil, column kk is multiplied
// by scale[kk] on the way in (the D of an LDLᵀ update).
func packPanels(dst, src []float64, ld, rowOff, rows, k int, scale []float64) {
	for ip := 0; ip < rows; ip += 4 {
		base := ip * k
		r := rows - ip
		if r > 4 {
			r = 4
		}
		for kk := 0; kk < k; kk++ {
			s := src[kk*ld+rowOff+ip:]
			d := dst[base+kk*4 : base+kk*4+4 : base+kk*4+4]
			f := 1.0
			if scale != nil {
				f = scale[kk]
			}
			switch r {
			case 4:
				d[0], d[1], d[2], d[3] = s[0]*f, s[1]*f, s[2]*f, s[3]*f
			case 3:
				d[0], d[1], d[2], d[3] = s[0]*f, s[1]*f, s[2]*f, 0
			case 2:
				d[0], d[1], d[2], d[3] = s[0]*f, s[1]*f, 0, 0
			default:
				d[0], d[1], d[2], d[3] = s[0]*f, 0, 0, 0
			}
		}
	}
}

// gemmPacked computes C = A·Bᵀ from packed operands: ap holds ⌈m/4⌉ and bp
// ⌈q/4⌉ k-major 4-wide panels; C is written column-major with leading
// dimension ldc (a multiple of 4 at least ⌈m/4⌉·4, so full 4×4 tiles always
// fit). The microkernel keeps sixteen accumulators live and unrolls the
// shared k loop by two.
func gemmPacked(c []float64, ldc int, ap []float64, m int, bp []float64, q, k int) {
	gemmPackedFrom(c, ldc, ap, m, bp, q, k, false)
}

// gemmPackedTrap is gemmPacked for a trapezoidal target: output rows below
// row index jq are the only ones consumed for output column jq (the scatter
// discards the rest), so tiles entirely above the diagonal are skipped.
func gemmPackedTrap(c []float64, ldc int, ap []float64, m int, bp []float64, q, k int) {
	gemmPackedFrom(c, ldc, ap, m, bp, q, k, true)
}

func gemmPackedFrom(c []float64, ldc int, ap []float64, m int, bp []float64, q, k int, trap bool) {
	k4 := k * 4
	for jq := 0; jq < q; jq += 4 {
		bb := bp[jq*k : jq*k+k4 : jq*k+k4]
		im := 0
		if trap {
			im = jq // tiles with im+4 ≤ jq never reach the diagonal
		}
		if gemmUseAVX {
			for ; im < m; im += 4 {
				gemmTileAVX(&c[jq*ldc+im], ldc, &ap[im*k], &bp[jq*k], k)
			}
			continue
		}
		for ; im < m; im += 4 {
			aa := ap[im*k : im*k+k4 : im*k+k4]
			var c00, c01, c02, c03 float64
			var c10, c11, c12, c13 float64
			var c20, c21, c22, c23 float64
			var c30, c31, c32, c33 float64
			o := 0
			for ; o+8 <= k4; o += 8 {
				ar := aa[o : o+8 : o+8]
				br := bb[o : o+8 : o+8]
				a0, a1, a2, a3 := ar[0], ar[1], ar[2], ar[3]
				b0, b1, b2, b3 := br[0], br[1], br[2], br[3]
				c00 += a0 * b0
				c10 += a1 * b0
				c20 += a2 * b0
				c30 += a3 * b0
				c01 += a0 * b1
				c11 += a1 * b1
				c21 += a2 * b1
				c31 += a3 * b1
				c02 += a0 * b2
				c12 += a1 * b2
				c22 += a2 * b2
				c32 += a3 * b2
				c03 += a0 * b3
				c13 += a1 * b3
				c23 += a2 * b3
				c33 += a3 * b3
				a0, a1, a2, a3 = ar[4], ar[5], ar[6], ar[7]
				b0, b1, b2, b3 = br[4], br[5], br[6], br[7]
				c00 += a0 * b0
				c10 += a1 * b0
				c20 += a2 * b0
				c30 += a3 * b0
				c01 += a0 * b1
				c11 += a1 * b1
				c21 += a2 * b1
				c31 += a3 * b1
				c02 += a0 * b2
				c12 += a1 * b2
				c22 += a2 * b2
				c32 += a3 * b2
				c03 += a0 * b3
				c13 += a1 * b3
				c23 += a2 * b3
				c33 += a3 * b3
			}
			if o < k4 {
				ar := aa[o : o+4 : o+4]
				br := bb[o : o+4 : o+4]
				a0, a1, a2, a3 := ar[0], ar[1], ar[2], ar[3]
				b0, b1, b2, b3 := br[0], br[1], br[2], br[3]
				c00 += a0 * b0
				c10 += a1 * b0
				c20 += a2 * b0
				c30 += a3 * b0
				c01 += a0 * b1
				c11 += a1 * b1
				c21 += a2 * b1
				c31 += a3 * b1
				c02 += a0 * b2
				c12 += a1 * b2
				c22 += a2 * b2
				c32 += a3 * b2
				c03 += a0 * b3
				c13 += a1 * b3
				c23 += a2 * b3
				c33 += a3 * b3
			}
			t := jq*ldc + im
			c[t], c[t+1], c[t+2], c[t+3] = c00, c10, c20, c30
			t += ldc
			c[t], c[t+1], c[t+2], c[t+3] = c01, c11, c21, c31
			t += ldc
			c[t], c[t+1], c[t+2], c[t+3] = c02, c12, c22, c32
			t += ldc
			c[t], c[t+1], c[t+2], c[t+3] = c03, c13, c23, c33
		}
	}
}

// factorAll runs the numeric phase: assemble and factorise every supernode in
// ascending order (descendants before ancestors, by the postorder) on one
// scratch, stopping at the first bad pivot.
func (s *Supernodal) factorAll(c *sparse.CSR, sym *snSym) error {
	pivTol := 0.0
	if s.mode == ModeLDLT {
		pivTol = ldltPivotRelTol * c.MaxAbs()
	}
	wk := newSnWorker(s.n)
	for sn := 0; sn < s.ns; sn++ {
		if err := s.factorSupernode(sn, c, sym, wk, pivTol); err != nil {
			return err
		}
	}
	return nil
}

// factorSupernode assembles and factorises supernode sn: scatter the matrix
// values into the zeroed panel, pull the scheduled rank-k updates from
// descendant supernodes (in the fixed symbolic order), then run the blocked
// dense trapezoidal factorisation. pivTol is the LDLᵀ acceptance threshold
// (unused in Cholesky mode).
func (s *Supernodal) factorSupernode(sn int, c *sparse.CSR, sym *snSym, wk *snWorker, pivTol float64) error {
	f := int(s.sfirst[sn])
	width := int(s.sfirst[sn+1]) - f
	ld := int(s.rx[sn+1] - s.rx[sn])
	rows := s.rowind[s.rx[sn]:s.rx[sn+1]]
	panel := s.panel[s.px[sn]:s.px[sn+1]]

	// Map the supernode's global rows to panel rows. No clearing needed: the
	// numeric phase only ever reads relind at rows of this supernode's
	// structure, all of which are (re)stamped here.
	for i, g := range rows {
		wk.relind[g] = int32(i)
	}

	// Assemble A: row j of the (symmetric, permuted) matrix holds column j's
	// below-diagonal values at its ≥ j entries.
	for i := range panel {
		panel[i] = 0
	}
	for jj := 0; jj < width; jj++ {
		j := f + jj
		cols, vals := c.RowView(j)
		col := panel[jj*ld : (jj+1)*ld]
		for t, i := range cols {
			if i >= j {
				col[wk.relind[i]] = vals[t]
			}
		}
	}

	// Pull the scheduled updates, in their fixed (ascending-descendant) order.
	for _, u := range sym.upd[sn] {
		s.applyUpdate(sn, u, wk)
	}

	// Blocked dense trapezoidal factorisation of the panel.
	if s.mode == ModeCholesky {
		return s.panelCholesky(panel, width, ld, f, wk)
	}
	return s.panelLDLT(panel, width, ld, f, pivTol, wk)
}

// applyUpdate subtracts descendant d's rank-k contribution from the target
// supernode's panel: C = D[lo:ldd, :] · W[lo:hi, :]ᵀ with W the (D-scaled in
// LDLᵀ mode) rows of d falling inside the target's columns. W packs once,
// the row range streams through in packed chunks, and each chunk's product
// scatters through relind.
func (s *Supernodal) applyUpdate(sn int, u snUpd, wk *snWorker) {
	d := int(u.d)
	lo, hi := int(u.lo), int(u.hi)
	ldd := int(s.rx[d+1] - s.rx[d])
	k := int(s.sfirst[d+1] - s.sfirst[d])
	dpanel := s.panel[s.px[d]:s.px[d+1]]
	drows := s.rowind[s.rx[d]:s.rx[d+1]]
	q := hi - lo

	var scale []float64
	if s.mode == ModeLDLT {
		scale = s.d[s.sfirst[d]:s.sfirst[d+1]]
	}
	packPanels(wk.bbuf, dpanel, ldd, lo, q, k, scale)

	fTarget := int(s.sfirst[sn])
	ldt := int(s.rx[sn+1] - s.rx[sn])
	tpanel := s.panel[s.px[sn]:s.px[sn+1]]

	mAll := ldd - lo
	for ii := 0; ii < mAll; ii += snChunkRows {
		mc := mAll - ii
		if mc > snChunkRows {
			mc = snChunkRows
		}
		mc4 := (mc + 3) &^ 3
		packPanels(wk.abuf, dpanel, ldd, lo+ii, mc, k, nil)
		if ii == 0 {
			// The diagonal lives in the first chunk (q ≤ snMaxWidth <
			// snChunkRows): skip the above-diagonal tiles the scatter would
			// discard anyway.
			gemmPackedTrap(wk.cbuf, mc4, wk.abuf, mc, wk.bbuf, q, k)
		} else {
			gemmPacked(wk.cbuf, mc4, wk.abuf, mc, wk.bbuf, q, k)
		}
		// Scatter-subtract the (lower-trapezoid part of the) chunk.
		for t := 0; t < q; t++ {
			gcol := int(drows[lo+t]) - fTarget
			dst := tpanel[gcol*ldt : (gcol+1)*ldt]
			src := wk.cbuf[t*mc4 : t*mc4+mc]
			iStart := t - ii
			if iStart < 0 {
				iStart = 0
			}
			for i := iStart; i < mc; i++ {
				dst[wk.relind[drows[lo+ii+i]]] -= src[i]
			}
		}
	}
}

// panelRightUpdate subtracts the just-factorised strip's rank-wb contribution
// from the rest of its own panel: columns [r0, width) and rows [r0, ld) lose
// A·(D·)Bᵀ where both operands are rows of the strip (columns [kb, kb+wb)).
// The target is the panel itself — contiguous columns, no scatter indices.
func (s *Supernodal) panelRightUpdate(panel []float64, width, ld, kb, wb int, scale []float64, wk *snWorker) {
	r0 := kb + wb
	q := width - r0
	if q <= 0 {
		return
	}
	strip := panel[kb*ld:]
	packPanels(wk.bbuf, strip, ld, r0, q, wb, scale)
	mAll := ld - r0
	for ii := 0; ii < mAll; ii += snChunkRows {
		mc := mAll - ii
		if mc > snChunkRows {
			mc = snChunkRows
		}
		mc4 := (mc + 3) &^ 3
		packPanels(wk.abuf, strip, ld, r0+ii, mc, wb, nil)
		if ii == 0 {
			gemmPackedTrap(wk.cbuf, mc4, wk.abuf, mc, wk.bbuf, q, wb)
		} else {
			gemmPacked(wk.cbuf, mc4, wk.abuf, mc, wk.bbuf, q, wb)
		}
		for t := 0; t < q; t++ {
			dst := panel[(r0+t)*ld:]
			src := wk.cbuf[t*mc4 : t*mc4+mc]
			iStart := t - ii
			if iStart < 0 {
				iStart = 0
			}
			for i := iStart; i < mc; i++ {
				dst[r0+ii+i] -= src[i]
			}
		}
	}
}

// panelCholesky factorises the assembled trapezoidal panel in place: the top
// width×width block becomes L11 (lower) and the rows below become
// L21 = A21·L11⁻ᵀ — the dense triangular solve fused into the column sweep.
// Columns factorise in strips of snPanelStrip; each strip's effect on the
// columns to its right goes through the packed rank-k kernel. f is the
// supernode's first (permuted) column, for error reporting only.
func (s *Supernodal) panelCholesky(panel []float64, width, ld, f int, wk *snWorker) error {
	for kb := 0; kb < width; kb += snPanelStrip {
		wb := width - kb
		if wb > snPanelStrip {
			wb = snPanelStrip
		}
		for kk := kb; kk < kb+wb; kk++ {
			col := panel[kk*ld : (kk+1)*ld]
			dk := col[kk]
			if s.snPivotBad(dk, 0) {
				return s.snPivotError(f+kk, dk, 0)
			}
			dk = math.Sqrt(dk)
			col[kk] = dk
			inv := 1 / dk
			for i := kk + 1; i < ld; i++ {
				col[i] *= inv
			}
			// Rank-1 update of the rest of the strip, two columns at a time.
			jj := kk + 1
			for ; jj+2 <= kb+wb; jj += 2 {
				l0, l1 := col[jj], col[jj+1]
				c0 := panel[jj*ld : (jj+1)*ld]
				c1 := panel[(jj+1)*ld : (jj+2)*ld]
				c0[jj] -= l0 * l0
				for i := jj + 1; i < ld; i++ {
					v := col[i]
					c0[i] -= v * l0
					c1[i] -= v * l1
				}
			}
			for ; jj < kb+wb; jj++ {
				ljk := col[jj]
				cj := panel[jj*ld : (jj+1)*ld]
				for i := jj; i < ld; i++ {
					cj[i] -= col[i] * ljk
				}
			}
		}
		s.panelRightUpdate(panel, width, ld, kb, wb, nil, wk)
	}
	return nil
}

// panelLDLT factorises the assembled trapezoidal panel in place as L·D·Lᵀ:
// unit-lower L with the pivot stored both in s.d and in the (otherwise
// unused) diagonal slot. Same strip blocking as panelCholesky; the strip's
// right-update scales by the strip's pivots. f is the supernode's first
// (permuted) column.
func (s *Supernodal) panelLDLT(panel []float64, width, ld, f int, pivTol float64, wk *snWorker) error {
	for kb := 0; kb < width; kb += snPanelStrip {
		wb := width - kb
		if wb > snPanelStrip {
			wb = snPanelStrip
		}
		for kk := kb; kk < kb+wb; kk++ {
			col := panel[kk*ld : (kk+1)*ld]
			dk := col[kk]
			if s.snPivotBad(dk, pivTol) {
				return s.snPivotError(f+kk, dk, pivTol)
			}
			s.d[f+kk] = dk
			inv := 1 / dk
			// Update the rest of the strip with the unscaled column (which
			// holds L(i,kk)·dk), then scale the column to L values.
			for jj := kk + 1; jj < kb+wb; jj++ {
				cjk := col[jj] * inv // L(jj, kk)
				if cjk == 0 {
					continue
				}
				cj := panel[jj*ld : (jj+1)*ld]
				for i := jj; i < ld; i++ {
					cj[i] -= col[i] * cjk
				}
			}
			for i := kk + 1; i < ld; i++ {
				col[i] *= inv
			}
		}
		s.panelRightUpdate(panel, width, ld, kb, wb, s.d[f+kb:f+kb+wb], wk)
	}
	return nil
}

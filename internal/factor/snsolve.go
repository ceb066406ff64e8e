package factor

import "repro/internal/sparse"

// Batched triangular solves of the supernodal factorisation.
//
// SolveBatchTo is byte-identical to k SolveTo calls because every value of the
// solution is produced by the same floating-point operations in the same
// order: it replaces k scalar sweeps with one panel sweep whose rectangular
// updates run through the packed rank-k kernels, and the kernels accumulate
// each output element over the shared dimension ascending — the same chain
// the scalar sweep runs — so every right-hand side of the panel gets the
// scalar solve's bytes.

// snBatchMaxK caps the right-hand-side panel width per sweep; wider batches
// run as several passes so the working panel and the packed operands stay
// cache-resident.
const snBatchMaxK = 64

// snBatchScratch is the per-batch scratch of SolveBatchTo, acquired once per
// panel sweep rather than once per right-hand side: the row-major n×kp
// working panel, the pivot-row buffer, and the packed-operand/accumulator
// buffers of the rank-k kernels.
type snBatchScratch struct {
	w    []float64 // working panel, row-major n×kp
	vbuf []float64 // solved pivot row of the diagonal-block sweep (kp values)
	ab   []float64 // packed left operand, one forward row chunk
	bb   []float64 // packed right operand (forward: Yᵀ, backward: Gᵀ)
	ta   []float64 // packed L21ᵀ (backward left operand)
	cb   []float64 // kernel accumulation chunk
}

func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

// SolveBatchTo solves A·X[r] = B[r] for every right-hand side of the batch by
// sweeping the whole panel through the factor once per supernode instead of
// once per RHS: the diagonal-block solves run across the panel row-wise, and
// the rectangular updates become rank-width panel products through the packed
// 4×4 kernels (one operand pack per supernode, amortised over the batch). The
// scratch panel is acquired once per batch. Every X[r] carries exactly the
// bytes SolveTo(X[r], B[r]) would produce; batches wider than snBatchMaxK
// run as several passes. X[r] may alias B[r]; the call is reentrant.
func (s *Supernodal) SolveBatchTo(X, B []sparse.Vec) {
	batchValidate(s.n, X, B)
	if len(B) == 0 {
		return
	}
	if len(B) == 1 {
		s.SolveTo(X[0], B[0])
		return
	}
	for r0 := 0; r0 < len(B); r0 += snBatchMaxK {
		r1 := r0 + snBatchMaxK
		if r1 > len(B) {
			r1 = len(B)
		}
		s.solvePanel(X[r0:r1], B[r0:r1])
	}
}

// solvePanel is one pass of SolveBatchTo: kp ≤ snBatchMaxK right-hand sides
// as a row-major n×kp working panel.
func (s *Supernodal) solvePanel(X, B []sparse.Vec) {
	n, kp := s.n, len(B)
	sc := s.bscratch.Get().(*snBatchScratch)
	mld := s.maxLd
	if mld < snMaxWidth {
		mld = snMaxWidth
	}
	w := growFloats(&sc.w, n*kp)
	vb := growFloats(&sc.vbuf, kp)
	ab := growFloats(&sc.ab, snChunkRows*snMaxWidth)
	bb := growFloats(&sc.bb, snBatchMaxK*mld)
	ta := growFloats(&sc.ta, snMaxWidth*mld)
	cb := growFloats(&sc.cb, snChunkRows*snBatchMaxK)

	batchPanelIn(w, B, s.perm, n)
	unit := s.mode == ModeLDLT

	// Forward: L Y = P B. Diagonal-block solve across the panel, then the
	// rectangular update as one rank-width product per row chunk.
	for sn := 0; sn < s.ns; sn++ {
		f := int(s.sfirst[sn])
		width := int(s.sfirst[sn+1]) - f
		ld := int(s.rx[sn+1] - s.rx[sn])
		panel := s.panel[s.px[sn]:s.px[sn+1]]
		rows := s.rowind[s.rx[sn]:s.rx[sn+1]]
		for jj := 0; jj < width; jj++ {
			col := panel[jj*ld:]
			base := w[(f+jj)*kp : (f+jj)*kp+kp]
			if !unit {
				piv := col[jj]
				for r, v := range base {
					v /= piv
					base[r] = v
					vb[r] = v
				}
			} else {
				copy(vb, base)
			}
			// The scalar sweep skips a zero pivot value entirely; mirror that
			// per panel element, but hoist the zero scan out of the column
			// loop — pivot rows without zeros (the common case) run the tight
			// unguarded loop, which only differs from the guarded one by the
			// subtractions the guard would skip.
			anyZero := false
			for _, v := range vb {
				if v == 0 {
					anyZero = true
					break
				}
			}
			if anyZero {
				for i := jj + 1; i < width; i++ {
					lij := col[i]
					dst := w[(f+i)*kp : (f+i)*kp+kp]
					for r, v := range vb {
						if v != 0 {
							dst[r] -= lij * v
						}
					}
				}
			} else {
				for i := jj + 1; i < width; i++ {
					lij := col[i]
					dst := w[(f+i)*kp : (f+i)*kp+kp]
					for r, v := range vb {
						dst[r] -= lij * v
					}
				}
			}
		}
		m := ld - width
		if m == 0 {
			continue
		}
		// Left operand: Yᵀ — the solved rows of this supernode, read as a
		// column-major kp×width block of the working panel. Keeping Y on the
		// kernel's A side makes the product land row-major per destination row
		// (ldc = kp4), so the scatter-subtract below runs contiguous in both
		// the chunk and the panel.
		kp4 := (kp + 3) &^ 3
		packPanels(bb, w[f*kp:], kp, 0, kp, width, nil)
		for ii := 0; ii < m; ii += snChunkRows {
			mc := m - ii
			if mc > snChunkRows {
				mc = snChunkRows
			}
			packPanels(ab, panel, ld, width+ii, mc, width, nil)
			gemmPacked(cb, kp4, bb, kp, ab, mc, width)
			for i := 0; i < mc; i++ {
				dst := w[int(rows[width+ii+i])*kp : int(rows[width+ii+i])*kp+kp]
				src := cb[i*kp4 : i*kp4+kp]
				for r, v := range src {
					dst[r] -= v
				}
			}
		}
	}
	if unit {
		for j := 0; j < n; j++ {
			dj := s.d[j]
			dst := w[j*kp : j*kp+kp]
			for r := range dst {
				dst[r] /= dj
			}
		}
	}
	// Backward: Lᵀ Z = Y, supernodes descending. The rectangular contribution
	// is one width×kp product L21ᵀ·G (G gathered from the ancestor rows of
	// the panel), subtracted before the dense triangular solve — the same
	// split, and the same ascending-row accumulation per element, as
	// backwardSupernode.
	for sn := s.ns - 1; sn >= 0; sn-- {
		f := int(s.sfirst[sn])
		width := int(s.sfirst[sn+1]) - f
		ld := int(s.rx[sn+1] - s.rx[sn])
		panel := s.panel[s.px[sn]:s.px[sn+1]]
		rows := s.rowind[s.rx[sn]:s.rx[sn+1]]
		m := ld - width
		if m > 0 {
			kp4 := (kp + 3) &^ 3
			packPanelsT(ta, panel, ld, width, width, m)
			packPanelsGather(bb, w, kp, rows[width:], m)
			// G on the A side: the product lands row-major per supernode
			// column (ldc = kp4), so the subtraction is contiguous.
			gemmPacked(cb, kp4, bb, kp, ta, width, m)
			for t := 0; t < width; t++ {
				dst := w[(f+t)*kp : (f+t)*kp+kp]
				src := cb[t*kp4 : t*kp4+kp]
				for r, v := range src {
					dst[r] -= v
				}
			}
		}
		for jj := width - 1; jj >= 0; jj-- {
			col := panel[jj*ld:]
			base := w[(f+jj)*kp : (f+jj)*kp+kp]
			for i := jj + 1; i < width; i++ {
				lij := col[i]
				src := w[(f+i)*kp:]
				for r := range base {
					base[r] -= lij * src[r]
				}
			}
			if !unit {
				piv := col[jj]
				for r := range base {
					base[r] /= piv
				}
			}
		}
	}
	batchPanelOut(w, X, s.perm, n)
	s.bscratch.Put(sc)
}

package factor

import (
	"fmt"

	"repro/internal/sparse"
)

// BatchSolver is the optional extension of LocalSolver for backends that can
// sweep several right-hand sides through the factor as one panel — one pass
// over the factor's memory instead of k, and rank-k kernel products instead
// of k rank-1 sweeps; the supernodal backend is the one that does.
// SolveBatchTo must be byte-identical per right-hand side to k sequential
// SolveTo calls, must tolerate X[r] aliasing B[r], and must be reentrant,
// exactly like SolveTo — the batched path is a throughput optimisation, never
// a semantic change.
type BatchSolver interface {
	LocalSolver
	// SolveBatchTo solves A·X[r] = B[r] for every r. len(X) must equal
	// len(B) and every vector must have the factor's dimension.
	SolveBatchTo(X, B []sparse.Vec)
}

// SolveBatch solves the k systems A·X[r] = B[r] through s: one panel sweep on
// a BatchSolver (the supernodal backend), k sequential SolveTo calls on every
// other backend. Either way each X[r] holds the bytes SolveTo would produce.
func SolveBatch(s LocalSolver, X, B []sparse.Vec) {
	if len(X) != len(B) {
		panic(fmt.Sprintf("factor: batch solve mismatch len(X)=%d len(B)=%d", len(X), len(B)))
	}
	if bs, ok := s.(BatchSolver); ok {
		bs.SolveBatchTo(X, B)
		return
	}
	for r := range B {
		s.SolveTo(X[r], B[r])
	}
}

// batchPanelBlock is the row-block size of the panel transposes: one block of
// the working panel (batchPanelBlock×kp ≤ 128 KiB) stays cache-resident while
// every right-hand side streams through it, instead of touching k scattered
// vectors per panel row.
const batchPanelBlock = 256

// batchPanelIn loads the working panel from the batch: w[i*kp+r] = B[r][p(i)]
// with p the factor's permutation (nil = identity). The transpose runs
// row-blocked, four right-hand sides at a time per block, so every panel row
// visited gets one contiguous 32-byte write instead of four strided stores.
// Returns the panel width.
func batchPanelIn(w []float64, B []sparse.Vec, perm Perm, n int) int {
	kp := len(B)
	for i0 := 0; i0 < n; i0 += batchPanelBlock {
		i1 := i0 + batchPanelBlock
		if i1 > n {
			i1 = n
		}
		r := 0
		for ; r+4 <= kp; r += 4 {
			b0, b1, b2, b3 := B[r], B[r+1], B[r+2], B[r+3]
			for i := i0; i < i1; i++ {
				pi := i
				if perm != nil {
					pi = perm[i]
				}
				dst := w[i*kp+r : i*kp+r+4 : i*kp+r+4]
				dst[0], dst[1], dst[2], dst[3] = b0[pi], b1[pi], b2[pi], b3[pi]
			}
		}
		for ; r < kp; r++ {
			b := B[r]
			if perm != nil {
				for i := i0; i < i1; i++ {
					w[i*kp+r] = b[perm[i]]
				}
			} else {
				for i := i0; i < i1; i++ {
					w[i*kp+r] = b[i]
				}
			}
		}
	}
	return kp
}

// batchPanelOut stores the solved working panel back into the batch:
// X[r][p(i)] = w[i*kp+r], row-blocked and four-wide like batchPanelIn.
func batchPanelOut(w []float64, X []sparse.Vec, perm Perm, n int) {
	kp := len(X)
	for i0 := 0; i0 < n; i0 += batchPanelBlock {
		i1 := i0 + batchPanelBlock
		if i1 > n {
			i1 = n
		}
		r := 0
		for ; r+4 <= kp; r += 4 {
			x0, x1, x2, x3 := X[r], X[r+1], X[r+2], X[r+3]
			for i := i0; i < i1; i++ {
				pi := i
				if perm != nil {
					pi = perm[i]
				}
				src := w[i*kp+r : i*kp+r+4 : i*kp+r+4]
				x0[pi], x1[pi], x2[pi], x3[pi] = src[0], src[1], src[2], src[3]
			}
		}
		for ; r < kp; r++ {
			x := X[r]
			if perm != nil {
				for i := i0; i < i1; i++ {
					x[perm[i]] = w[i*kp+r]
				}
			} else {
				for i := i0; i < i1; i++ {
					x[i] = w[i*kp+r]
				}
			}
		}
	}
}

// batchValidate panics on a shape mismatch between the batch and the factor.
func batchValidate(n int, X, B []sparse.Vec) {
	if len(X) != len(B) {
		panic(fmt.Sprintf("factor: supernodal batch solve mismatch len(X)=%d len(B)=%d", len(X), len(B)))
	}
	for r := range B {
		if len(B[r]) != n || len(X[r]) != n {
			panic(fmt.Sprintf("factor: supernodal batch solve dimension mismatch n=%d len(B[%d])=%d len(X[%d])=%d", n, r, len(B[r]), r, len(X[r])))
		}
	}
}

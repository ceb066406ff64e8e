package factor

import (
	"fmt"
	"sort"

	"repro/internal/sparse"
)

// The ports-only solve of the supernodal backend. Between two activations of
// a DTM subdomain only the port entries of the right-hand side change and
// only the port potentials are read. By Gilbert's theorem the entries of L⁻¹b
// that a change of b_j can reach lie on the elimination-tree path from column
// j to its root (J. R. Gilbert, "Predicting structure in sparse matrix
// computations", SIAM J. Matrix Anal. Appl. 15(1), 1994), and the backward
// sweep gives column j its value from the columns on that same path. So the
// port potentials need dense work only on the closure — the supernodes on a
// path from a port column to a root — and every other supernode contributes
// what the fixed interior of the right-hand side makes it contribute, the
// same on every activation.

// markClosure tells the factor that the first k unknowns of the matrix are
// its ports: it records their permuted columns and marks their closure. The
// supernodal etree parent of sn is the supernode of its first row below the
// diagonal block (that row is the etree parent of sn's last column), and
// parents come after children, so one ascending pass marks every ancestor.
func (s *Supernodal) markClosure(k int) {
	if k == 0 {
		return
	}
	s.portPos = make([]int32, k)
	s.closure = make([]bool, s.ns)
	for i := 0; i < s.n; i++ {
		old := i
		if s.perm != nil {
			old = s.perm[i]
		}
		if old < k {
			s.portPos[old] = int32(i)
			s.closure[s.supernodeOf(i)] = true
		}
	}
	for sn := 0; sn < s.ns; sn++ {
		if below := s.rx[sn] + s.sfirst[sn+1] - s.sfirst[sn]; s.closure[sn] && below < s.rx[sn+1] {
			s.closure[s.supernodeOf(int(s.rowind[below]))] = true
		}
	}
}

// supernodeOf returns the supernode owning permuted column j.
func (s *Supernodal) supernodeOf(j int) int {
	return sort.Search(s.ns, func(sn int) bool { return int(s.sfirst[sn+1]) > j })
}

// PortsOnly is a supernodal factor's solve of the port potentials alone, for
// right-hand sides that agree with one fixed base outside the ports. Its
// SolveTo writes the first k entries of A⁻¹b, byte-identical to the
// factor's SolveTo. It is immutable once built, so like SolveTo it is
// reentrant.
type PortsOnly struct {
	s *Supernodal
	// The forward contributions of the supernodes outside the closure to the
	// closure's rows, computed once from the base: supernode sn subtracts
	// vals[vx[sn]:vx[sn+1]] from the last vx[sn+1]−vx[sn] rows of its
	// structure, which are exactly its rows inside the closure.
	vx   []int32
	vals []float64
}

// PortsOnly returns the ports-only solve for right-hand sides that equal base
// outside the ports NewPorts named, or nil when it named none. Filling its
// cache is one forward pass over the supernodes outside the closure.
func (s *Supernodal) PortsOnly(base sparse.Vec) *PortsOnly {
	if s.closure == nil {
		return nil
	}
	if len(base) != s.n {
		panic(fmt.Sprintf("factor: ports-only base of %d entries on a factor of dimension %d", len(base), s.n))
	}
	po := &PortsOnly{s: s, vx: make([]int32, s.ns+1)}
	sc := s.scratch.Get().(*snSolveScratch)
	s.gatherRHS(sc.w, base, false)
	for sn := 0; sn < s.ns; sn++ {
		if !s.closure[sn] {
			s.forwardSupernode(sn, sc.w, sc.g)
			width := int(s.sfirst[sn+1] - s.sfirst[sn])
			rows := s.rowind[s.rx[sn]:s.rx[sn+1]]
			// The rows of sn's structure climb its ancestors, so the ones
			// inside the closure are a suffix.
			from := width
			for from < len(rows) && !s.closure[s.supernodeOf(int(rows[from]))] {
				from++
			}
			po.vals = append(po.vals, sc.g[from-width:len(rows)-width]...)
		}
		po.vx[sn+1] = int32(len(po.vals))
	}
	s.scratch.Put(sc)
	return po
}

// gatherRHS permutes b into w on the columns of the closure (inClosure) or
// of the supernodes outside it.
func (s *Supernodal) gatherRHS(w, b sparse.Vec, inClosure bool) {
	for sn := 0; sn < s.ns; sn++ {
		if s.closure[sn] != inClosure {
			continue
		}
		for j := s.sfirst[sn]; j < s.sfirst[sn+1]; j++ {
			if s.perm != nil {
				w[j] = b[s.perm[j]]
			} else {
				w[j] = b[j]
			}
		}
	}
}

// SolveTo writes into u the k port entries of A⁻¹b, for a b that equals the
// base outside the ports: SolveTo's sweeps on the closure, with every other
// supernode's forward contribution replayed from the cache in its place in
// the ascending order, so every closure entry sees the operations SolveTo
// performs, in SolveTo's order.
func (po *PortsOnly) SolveTo(u, b sparse.Vec) {
	s := po.s
	if len(b) != s.n || len(u) != len(s.portPos) {
		panic(fmt.Sprintf("factor: ports-only solve of %d ports from %d entries on a factor with %d ports of %d", len(u), len(b), len(s.portPos), s.n))
	}
	sc := s.scratch.Get().(*snSolveScratch)
	w := sc.w
	s.gatherRHS(w, b, true)
	for sn := 0; sn < s.ns; sn++ {
		if s.closure[sn] {
			s.forwardSupernode(sn, w, sc.g)
			continue
		}
		vals := po.vals[po.vx[sn]:po.vx[sn+1]]
		rows := s.rowind[s.rx[sn+1]-int32(len(vals)) : s.rx[sn+1]]
		for i, r := range rows {
			w[r] -= vals[i]
		}
	}
	for sn := s.ns - 1; sn >= 0; sn-- {
		if !s.closure[sn] {
			continue
		}
		if s.mode == ModeLDLT {
			for j := s.sfirst[sn]; j < s.sfirst[sn+1]; j++ {
				w[j] /= s.d[j]
			}
		}
		s.backwardSupernode(sn, w, sc.g)
	}
	for p, j := range s.portPos {
		u[p] = w[j]
	}
	s.scratch.Put(sc)
}

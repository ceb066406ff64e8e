package iterative

import (
	"fmt"

	"repro/internal/factor"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// Preconditioner applies M⁻¹ to a vector, writing the result into dst. It must
// correspond to a symmetric positive definite M for PCG to be well defined.
type Preconditioner interface {
	// Apply computes dst = M⁻¹·r.
	Apply(dst, r sparse.Vec)
	// Name identifies the preconditioner in reports.
	Name() string
}

// JacobiPreconditioner is the diagonal (Jacobi) preconditioner M = diag(A).
type JacobiPreconditioner struct {
	invDiag sparse.Vec
}

// NewJacobiPreconditioner builds the diagonal preconditioner of a. It returns
// an error when the diagonal has a zero or negative entry (the matrix would
// not be SPD).
func NewJacobiPreconditioner(a *sparse.CSR) (*JacobiPreconditioner, error) {
	d := a.Diag()
	inv := sparse.NewVec(len(d))
	for i, v := range d {
		if v <= 0 {
			return nil, fmt.Errorf("iterative: Jacobi preconditioner needs a positive diagonal, row %d has %g", i, v)
		}
		inv[i] = 1 / v
	}
	return &JacobiPreconditioner{invDiag: inv}, nil
}

// Apply implements Preconditioner.
func (p *JacobiPreconditioner) Apply(dst, r sparse.Vec) {
	for i := range dst {
		dst[i] = r[i] * p.invDiag[i]
	}
}

// Name implements Preconditioner.
func (p *JacobiPreconditioner) Name() string { return "jacobi" }

// BlockJacobiPreconditioner applies M⁻¹ = blockdiag(A)⁻¹ under a
// vertex-to-part assignment: one factorised diagonal block per part, exactly
// the blocks the synchronous and asynchronous block-Jacobi solvers use. It is
// the natural domain-decomposition preconditioner to compare against the DTM
// subdomain structure, since both factorise their local systems once.
//
// The per-block gather/solve scratch is hoisted into the struct, so Apply and
// ApplyBatch allocate nothing in steady state. A preconditioner instance is
// consequently confined to one solver loop at a time (PCG applies it
// sequentially); build one instance per concurrent solve.
type BlockJacobiPreconditioner struct {
	blocks []*blockData
	rhs    []sparse.Vec // per-block gathered right-hand side
	sol    []sparse.Vec // per-block local solution
	// brhs/bsol are the per-block panels of the batched path, grown to the
	// widest batch seen so far.
	brhs [][]sparse.Vec
	bsol [][]sparse.Vec
}

// NewBlockJacobiPreconditioner factorises the diagonal blocks induced by the
// assignment.
func NewBlockJacobiPreconditioner(a *sparse.CSR, assign partition.Assignment) (*BlockJacobiPreconditioner, error) {
	blocks, err := buildBlocks(a, sparse.NewVec(a.Rows()), assign, factor.Settings{})
	if err != nil {
		return nil, err
	}
	p := &BlockJacobiPreconditioner{
		blocks: blocks,
		rhs:    make([]sparse.Vec, len(blocks)),
		sol:    make([]sparse.Vec, len(blocks)),
		brhs:   make([][]sparse.Vec, len(blocks)),
		bsol:   make([][]sparse.Vec, len(blocks)),
	}
	for i, blk := range blocks {
		p.rhs[i] = sparse.NewVec(len(blk.own))
		p.sol[i] = sparse.NewVec(len(blk.own))
	}
	return p, nil
}

// Apply implements Preconditioner: it solves each diagonal block against the
// corresponding slice of r.
func (p *BlockJacobiPreconditioner) Apply(dst, r sparse.Vec) {
	for i, blk := range p.blocks {
		rhs, local := p.rhs[i], p.sol[i]
		for li, gv := range blk.own {
			rhs[li] = r[gv]
		}
		blk.solver.SolveTo(local, rhs)
		for li, gv := range blk.own {
			dst[gv] = local[li]
		}
	}
}

// ApplyBatch applies M⁻¹ to every column of R at once: each diagonal block is
// swept through the whole batch with one factor.SolveBatch call, so backends
// implementing factor.BatchSolver stream their factor once per direction
// instead of once per right-hand side. Dst[s] receives M⁻¹·R[s]; Dst[s] may
// alias R[s]. Like Apply, the call reuses struct-level scratch and must not
// run concurrently with other applications on the same instance.
func (p *BlockJacobiPreconditioner) ApplyBatch(Dst, R []sparse.Vec) {
	if len(Dst) != len(R) {
		panic(fmt.Sprintf("iterative: ApplyBatch with %d outputs for %d inputs", len(Dst), len(R)))
	}
	k := len(R)
	if k == 0 {
		return
	}
	for i, blk := range p.blocks {
		dim := len(blk.own)
		for len(p.brhs[i]) < k {
			p.brhs[i] = append(p.brhs[i], sparse.NewVec(dim))
			p.bsol[i] = append(p.bsol[i], sparse.NewVec(dim))
		}
		rhs, sol := p.brhs[i][:k], p.bsol[i][:k]
		for s := 0; s < k; s++ {
			r := R[s]
			dst := rhs[s]
			for li, gv := range blk.own {
				dst[li] = r[gv]
			}
		}
		factor.SolveBatch(blk.solver, sol, rhs)
		for s := 0; s < k; s++ {
			dst := Dst[s]
			src := sol[s]
			for li, gv := range blk.own {
				dst[gv] = src[li]
			}
		}
	}
}

// Name implements Preconditioner.
func (p *BlockJacobiPreconditioner) Name() string {
	return fmt.Sprintf("block-jacobi(%d)", len(p.blocks))
}

// PCG solves the SPD system A·x = b by the preconditioned conjugate gradient
// method starting from the zero vector. With a nil preconditioner it reduces
// to plain CG.
func PCG(a *sparse.CSR, b sparse.Vec, m Preconditioner, cfg Config) (sparse.Vec, Stats, error) {
	if m == nil {
		return CG(a, b, cfg)
	}
	n := a.Rows()
	if err := cfg.validate(n); err != nil {
		return nil, Stats{}, err
	}
	x := sparse.NewVec(n)
	r := b.Clone()
	z := sparse.NewVec(n)
	m.Apply(z, r)
	p := z.Clone()
	ap := sparse.NewVec(n)
	rz := r.Dot(z)
	bn := b.Norm2()
	if bn == 0 {
		bn = 1
	}
	st := Stats{}
	for k := 1; k <= cfg.MaxIterations; k++ {
		a.MulVecTo(ap, p)
		den := p.Dot(ap)
		if den == 0 {
			break
		}
		alpha := rz / den
		x.AddScaled(alpha, p)
		r.AddScaled(-alpha, ap)
		st.Iterations = k
		if cfg.Exact != nil {
			st.ErrorTrace = append(st.ErrorTrace, x.RMSError(cfg.Exact))
		}
		if r.Norm2()/bn <= cfg.Tol {
			st.Converged = true
			break
		}
		m.Apply(z, r)
		rzNew := r.Dot(z)
		p.Scale(rzNew / rz)
		p.AddScaled(1, z)
		rz = rzNew
	}
	st.Residual = relResidual(a, x, b)
	return x, st, nil
}

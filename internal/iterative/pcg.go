package iterative

import (
	"fmt"

	"repro/internal/sparse"
)

// Preconditioner applies M⁻¹ to a vector, writing the result into dst. It must
// correspond to a symmetric positive definite M for PCG to be well defined.
type Preconditioner interface {
	// Apply computes dst = M⁻¹·r.
	Apply(dst, r sparse.Vec)
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

// Package iterative implements the classical solvers the paper positions DTM
// against: conjugate gradients (the reference solve of the experiments), the
// synchronous block-Jacobi (additive Schwarz) domain-decomposition iteration,
// and an asynchronous block-Jacobi baseline that runs on the same
// discrete-event network simulator as DTM so the two can be compared on equal
// footing (Section 1: "the performances of the traditional asynchronous
// algorithms, e.g. asynchronous block-Jacobi, are not comparable to the
// synchronous ones").
package iterative

import (
	"fmt"
	"math"

	"repro/internal/factor"
	"repro/internal/sparse"
)

// Stats reports how an iterative solve went.
type Stats struct {
	// Iterations is the number of iterations (or sweeps) performed.
	Iterations int
	// Converged reports whether the tolerance was met before the limit.
	Converged bool
	// Residual is the final relative residual ‖b−A·x‖₂/‖b‖₂.
	Residual float64
	// ErrorTrace, when error tracking was requested, holds the RMS error
	// against the exact solution after each iteration.
	ErrorTrace []float64
}

// Config is shared by CG and the synchronous block-Jacobi iteration.
type Config struct {
	// MaxIterations bounds the iteration count. Required.
	MaxIterations int
	// Tol is the relative-residual stopping tolerance.
	Tol float64
	// Exact, when non-nil, records an RMS-error trace.
	Exact sparse.Vec
	// Factor says how the block methods factorise their diagonal blocks
	// (backend and ordering; the zero value is auto). CG ignores it.
	Factor factor.Settings
}

func (c Config) validate(n int) error {
	if c.MaxIterations <= 0 {
		return fmt.Errorf("iterative: MaxIterations must be positive")
	}
	if !(c.Tol >= 0) { // NaN too
		return fmt.Errorf("iterative: Tol must be non-negative, got %g", c.Tol)
	}
	if c.Exact != nil && len(c.Exact) != n {
		return fmt.Errorf("iterative: Exact has length %d, want %d", len(c.Exact), n)
	}
	return nil
}

// CG solves the SPD system A·x = b by the conjugate gradient method starting
// from the zero vector. It is the strongest practical single-machine baseline
// and the reference for "how hard is this system".
func CG(a *sparse.CSR, b sparse.Vec, cfg Config) (sparse.Vec, Stats, error) {
	n := a.Rows()
	if err := cfg.validate(n); err != nil {
		return nil, Stats{}, err
	}
	x := sparse.NewVec(n)
	r := b.Clone()
	p := r.Clone()
	ap := sparse.NewVec(n)
	rsOld := r.Dot(r)
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
		alpha := rsOld / den
		x.AddScaled(alpha, p)
		r.AddScaled(-alpha, ap)
		rsNew := r.Dot(r)
		st.Iterations = k
		if cfg.Exact != nil {
			st.ErrorTrace = append(st.ErrorTrace, x.RMSError(cfg.Exact))
		}
		if math.Sqrt(rsNew)/bn <= cfg.Tol {
			st.Converged = true
			break
		}
		p.Scale(rsNew / rsOld)
		p.AddScaled(1, r)
		rsOld = rsNew
	}
	st.Residual = a.RelResidual(x, b)
	return x, st, nil
}

package core

import (
	"context"
	"errors"
)

// ErrDeadlineExceeded is returned by Solve when the caller's context ends the
// run before the convergence tolerance is reached. The returned Result is
// still valid: it carries the partial solution, its residual, and the trace
// up to the deadline.
var ErrDeadlineExceeded = errors.New("core: solve deadline exceeded before convergence")

// Solve runs the configured engine on the problem and returns the assembled
// solution, the convergence verdict, and the trace. It is the single entry
// point of the package: cfg.Engine selects among the deterministic DES engine
// (the default, byte-identical run over run), the synchronous VTM baseline
// and the mixed sync/async variant. A run on real concurrency is a
// dist.Fleet's.
//
// The ctx bounds the run: a caller that wants a deadline passes one.
// Cancellation ends the run early and returns the partial result — still
// carrying the assembled X, its residual, and the trace so far — alongside
// ErrDeadlineExceeded. The engines only poll the ctx when it can actually
// fire, so a context.Background() run pays nothing.
func Solve(ctx context.Context, p *Problem, cfg Config) (*Result, error) {
	cfg.normalize()
	if err := cfg.validate(p); err != nil {
		return nil, err
	}
	if len(p.Partition.Links) == 0 {
		// No twin links: every subdomain is a whole system and one local
		// solve of each is the exact answer, whatever the engine.
		eng, err := newEngine(p, &cfg)
		if err != nil {
			return nil, err
		}
		return eng.solveUncoupled(), nil
	}
	switch cfg.Engine {
	case EngineVTM:
		return solveVTM(ctx, p, &cfg)
	case EngineMixed:
		return solveMixed(ctx, p, &cfg)
	default:
		return solveDES(ctx, p, &cfg)
	}
}

// deadlineErr converts an early interruption by the caller's context into the
// API's deadline error.
func deadlineErr(interrupted bool) error {
	if interrupted {
		return ErrDeadlineExceeded
	}
	return nil
}

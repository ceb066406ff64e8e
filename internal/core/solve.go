package core

import "context"

// Solve runs the configured engine on the problem and returns the assembled
// solution, the convergence verdict, and the trace. It is the single entry
// point of the package: cfg.Engine selects among the deterministic DES engine
// (the default, byte-identical run over run), the synchronous VTM baseline,
// the mixed sync/async variant, and the live goroutine engine.
//
// The ctx bounds the run. Cancellation (or cfg.MaxWallTime, whichever fires
// first) ends the run early and returns the partial result — still carrying
// the assembled X, its residual, and the trace so far — alongside
// ErrDeadlineExceeded when a convergence target was set (cfg.Tol or an
// external cancellation); a time-boxed run with no target simply ends. The
// deterministic engines only poll the ctx when it can actually fire, so a
// context.Background() run pays nothing.
func Solve(ctx context.Context, p *Problem, cfg Config) (*Result, error) {
	cfg.normalize()
	if err := cfg.validate(p); err != nil {
		return nil, err
	}
	if cfg.MaxWallTime > 0 && cfg.Engine != EngineLive {
		// The live engine owns its MaxWallTime handling (it is the engine's
		// primary bound, not a safety net).
		runCtx, cancel := context.WithTimeout(ctx, cfg.MaxWallTime)
		defer cancel()
		ctx = runCtx
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
	case EngineLive:
		return solveLive(ctx, p, &cfg)
	default:
		return solveDES(ctx, p, &cfg)
	}
}

// deadlineErr converts an early interruption into the API's deadline error:
// a run cut short by the caller's context, or by MaxWallTime while a
// convergence tolerance was set, failed its deadline; a time-boxed run with
// no target is complete by definition. ctx here is the caller's context, not
// the derived MaxWallTime one.
func deadlineErr(ctx context.Context, cfg *Config, interrupted bool) error {
	if !interrupted {
		return nil
	}
	if ctx.Err() != nil || cfg.Tol > 0 {
		return ErrDeadlineExceeded
	}
	return nil
}

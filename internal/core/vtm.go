package core

import "context"

// solveVTM runs the Virtual Transmission Method, the lock-step special case
// of the engine: MaxIterations barrier sweeps at unit cost, so virtual time
// is the sweep count. cfg must be normalized and validated.
func solveVTM(ctx context.Context, p *Problem, cfg *Config) (*Result, error) {
	eng, err := newEngine(p, cfg)
	if err != nil {
		return nil, err
	}
	done := ctx.Done()
	it := 0
	for it < cfg.MaxIterations && !eng.converged && !eng.cancelled(done) {
		eng.sweep(float64(it))
		it++
		if eng.exact != nil {
			// A sweep replaces every entry of x, so the exact error costs no
			// more than the incremental one and carries no rounding residue.
			eng.recomputeErr()
		}
		eng.record(float64(it))
		eng.shouldStop(float64(it)) // latches eng.converged
	}
	res := eng.finish(float64(it))
	res.Iterations = it
	return res, deadlineErr(eng.interrupted)
}

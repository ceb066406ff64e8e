package core

import (
	"context"
	"math"
)

// solveMixed runs the sync-async-mixed variant: asynchronous windows of
// AsyncWindow, each followed by one barrier sweep charged
// Problem.BarrierCost, on one virtual time axis. cfg must be normalized and
// validated.
func solveMixed(ctx context.Context, p *Problem, cfg *Config) (*Result, error) {
	eng, err := newEngine(p, cfg)
	if err != nil {
		return nil, err
	}
	syncCost := p.BarrierCost()

	now := 0.0
	phases, sweeps := 0, 0
	running := func() bool { return now < cfg.MaxTime && !eng.converged && !eng.interrupted }
	for running() {
		// Every window starts by announcing the current waves: the paper's
		// zero waves in the first, the last barrier's state after it.
		now = eng.window(ctx, now, math.Min(cfg.AsyncWindow, cfg.MaxTime-now))
		phases++
		if running() {
			eng.sweep(now)
			sweeps++
			now += syncCost
			eng.record(now)
			eng.shouldStop(now) // latches eng.converged
		}
	}

	res := eng.finish(math.Min(now, cfg.MaxTime))
	res.AsyncPhases, res.SyncSweepsDone = phases, sweeps
	return res, deadlineErr(eng.interrupted)
}

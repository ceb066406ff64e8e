package core

import (
	"context"
	"math"
)

// solveMixed runs the sync-async-mixed variant: asynchronous windows of
// AsyncWindow separated by SyncSweeps barrier sweeps, each charged the
// slowest round trip of the machine, on one virtual time axis. cfg must be
// normalized and validated.
func solveMixed(ctx context.Context, p *Problem, cfg *Config) (*Result, error) {
	eng, err := newEngine(p, cfg)
	if err != nil {
		return nil, err
	}
	syncCost := slowestAdjacentRoundTrip(p)

	now := 0.0
	phases, sweeps := 0, 0
	running := func() bool { return now < cfg.MaxTime && !eng.converged && !eng.interrupted }
	for running() {
		// Only the very first window starts from the paper's zero waves.
		now = eng.window(ctx, now, math.Min(cfg.AsyncWindow, cfg.MaxTime-now), phases > 0)
		phases++
		for s := 0; s < cfg.SyncSweeps && running(); s++ {
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

// slowestAdjacentRoundTrip returns the largest delay(a→b)+delay(b→a) over
// pairs of adjacent subdomains — the per-sweep price of a global barrier on
// the problem's machine.
func slowestAdjacentRoundTrip(p *Problem) float64 {
	worst := 0.0
	for a, neighbours := range p.Partition.AdjacentParts() {
		for _, b := range neighbours {
			if rt := p.Delay(a, b) + p.Delay(b, a); rt > worst {
				worst = rt
			}
		}
	}
	if worst == 0 {
		worst = 1
	}
	return worst
}

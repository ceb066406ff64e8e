package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/dist"
	"repro/internal/factor"
	"repro/internal/sparse"
	"repro/internal/transport"
)

// A -method live run holds a wave on a 10-unit link for 0.2 ms (liveScale per
// topology time unit, the -faults spec's times included), polls at least
// every 2 ms — at once when every worker has told the coordinator its shard
// fell silent — and stops after 3 s unless -timeout says otherwise.
const (
	liveScale  = 20 * time.Microsecond
	livePoll   = 2 * time.Millisecond
	liveBudget = 3 * time.Second
)

// liveRun is one -method live session: a dist.Fleet over an in-process
// channel fabric, member 0 coordinating and one worker per part of the tear
// every member derives from spec. Each wave is held for its link's delay ×
// scale, the fault spec applied on the way (transport.FaultClock); its
// crash=P@t+r kills member P+1 at t and restarts it r later, and the budget
// ends the poll phase with the gathered partial result. Windows, crashes and
// budget run on one clock, the fault clock's, which the first wave starts. A
// part sends its first waves right after its first solve, so set-up is
// outside that clock, and so is a host that has yet to run any worker: the
// budget cannot end a run before it has done any work. (A run that never
// sends a wave has no twin links, one part, and converges on its first
// solve.)
type liveRun struct {
	spec   dist.SpecV2
	delay  func(from, to int) float64 // topology time units
	scale  time.Duration
	faults *chaos.Spec
	budget time.Duration
	tol    float64
	fs     factor.Settings
}

// liveResult is a session's outcome, the wall time from its first poll to the
// gather, and what a fault spec injected (stats nil without one).
type liveResult struct {
	*dist.Result
	seconds           float64
	stats             *chaos.Stats
	crashes, restarts int
}

func (r liveRun) run() (*liveResult, error) {
	n := r.spec.Parts()
	faults := r.faults
	if faults == nil {
		faults = &chaos.Spec{}
	}
	if err := faults.CheckParts(n); err != nil {
		return nil, err
	}
	clock := transport.NewFaultClock(faults, n, r.delay, r.scale)
	fleet := dist.NewFleet(transport.NewChanNetwork(n+1), func(m int, tr transport.Transport) transport.Transport {
		if m == 0 {
			return tr
		}
		return clock.Wrap(tr)
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &liveResult{}
	down := make([]int, len(faults.Crashes)) // per crash: 0 pending, 1 killed, 2 restarted
	var firstPoll time.Time
	onPoll := func(poll int) {
		if poll == 0 {
			firstPoll = time.Now()
		}
		start := clock.Started()
		if start.IsZero() {
			return
		}
		since := time.Since(start)
		if since >= r.budget {
			cancel()
			return
		}
		now := float64(since) / float64(r.scale)
		for i, c := range faults.Crashes {
			switch {
			case down[i] == 0 && now >= c.At:
				fleet.Kill(c.Part + 1)
				down[i], out.crashes = 1, out.crashes+1
			case down[i] == 1 && now >= c.At+c.RestartAfter:
				// Every restart outranks every earlier life of its member.
				down[i], out.restarts = 2, out.restarts+1
				fleet.Start(c.Part+1, uint32(1+out.restarts))
			}
		}
	}
	res, err := fleet.Coordinate(ctx, dist.CoordConfig{Spec: r.spec, Tol: r.tol, Factor: r.fs, PollInterval: livePoll, OnPoll: onPoll})
	out.Result, out.seconds = res, time.Since(firstPoll).Seconds()
	if cerr := fleet.Close(); err == nil {
		err = cerr
	}
	if faults.Enabled() {
		st := clock.Stats()
		out.stats = &st
	}
	return out, err
}

// solveLive is -method live on the -source, or on the -matrix as an mm:
// source every worker loads and checks by content hash.
func solveLive(o options, sys sparse.System, faults *chaos.Spec) (sparse.Vec, string, error) {
	if err := checkParts(o, sys.Dim()); err != nil {
		return nil, "", err
	}
	source := o.source
	if source == "" {
		if o.rhs != "" {
			return nil, "", fmt.Errorf("-rhs does not go with -method live: its workers load -matrix as an mm: source, whose right-hand side is all ones")
		}
		h, err := sparse.HashFileFNV64(o.matrix)
		if err != nil {
			return nil, "", err
		}
		source = sparse.MMSource{Path: o.matrix, Hash: h}.String()
	}
	topo, err := machine(o)
	if err != nil {
		return nil, "", err
	}
	r := liveRun{spec: dist.SpecV2{V: 2, Source: source, NParts: o.parts, Topology: o.topo},
		delay: topo.Delay, scale: liveScale, faults: faults, budget: liveBudget, tol: o.tol, fs: o.fs}
	if o.timeout > 0 {
		r.budget = o.timeout
	}
	res, err := r.run()
	if err != nil {
		return nil, "", err
	}
	summary := fmt.Sprintf("converged=%v after %.2f s of real asynchronous execution, %d local solves, %d messages",
		res.Converged, res.seconds, res.Solves, res.Messages)
	if f := res.stats; f != nil {
		summary += fmt.Sprintf("\nfaults: %d dropped, %d duplicated, %d delayed, %d crashes / %d restarts, %d failovers / %d rejoins, %d fenced",
			f.Dropped, f.Duplicated, f.Delayed, res.crashes, res.restarts, res.Failovers, res.Rejoins, res.Fenced)
	}
	return res.X, summary, nil
}

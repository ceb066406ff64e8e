package core

import (
	"math"

	"repro/internal/sparse"
)

// TracePoint is one sample of the convergence monitor: the state of the
// computation at a virtual time instant (for DTM) or after a synchronous
// iteration (for VTM).
type TracePoint struct {
	// Time is the virtual time of the sample (for VTM, the iteration index).
	Time float64
	// RMSError is the root-mean-square error of the assembled global solution
	// against the exact solution; NaN when no exact solution was supplied.
	RMSError float64
	// TwinGap is the largest absolute disagreement between the potentials of
	// any pair of twin vertices (the function TwinGap) — the distributed
	// convergence indicator: the Tol rule stops only while it is at most Tol.
	TwinGap float64
	// Solves is the cumulative number of local solves across all subdomains.
	Solves int
	// Messages is the cumulative number of messages sent. Result.Messages
	// counts deliveries, so an asynchronous run that stops with waves in
	// flight ends its trace above it.
	Messages int
}

// Result is the outcome of a DTM run.
type Result struct {
	// X is the assembled global solution (owner copy of every split vertex).
	X sparse.Vec
	// Converged reports whether the stopping tolerance was reached before the
	// time limit.
	Converged bool
	// FinalTime is the virtual time at which the run stopped.
	FinalTime float64
	// RMSError is the final RMS error against the exact solution (NaN when no
	// exact solution was supplied).
	RMSError float64
	// TwinGap is the final maximum twin disagreement.
	TwinGap float64
	// Residual is the final relative residual ‖b−A·x‖₂ / ‖b‖₂.
	Residual float64
	// Solves is the total number of local solves across subdomains.
	Solves int
	// Messages is the total number of delivered messages.
	Messages int
	// Trace is the recorded convergence history (empty unless requested).
	Trace []TracePoint
	// Impedances holds the characteristic impedance chosen for each twin link.
	Impedances []float64
	// Iterations is the number of synchronous sweeps performed; set only by
	// the VTM engine (zero elsewhere).
	Iterations int
	// AsyncPhases and SyncSweepsDone count the mixed engine's asynchronous
	// windows and barrier sweeps; set only by the mixed engine.
	AsyncPhases, SyncSweepsDone int
	// Faults summarises the injected faults and the recovery work of the run;
	// nil unless the run had an enabled fault spec.
	Faults *FaultStats
}

// FaultStats counts the faults a run was subjected to and the recovery
// machinery's responses.
type FaultStats struct {
	// Dropped, Duplicated and Delayed count what the channel layer injected:
	// sends that were lost, delivered twice, or delivered through an open
	// burst/degraded window.
	Dropped, Duplicated, Delayed int64
	// Retransmissions counts watchdog re-announcements of the latest wave.
	Retransmissions int
	// Crashes, Restarts and Snapshots count the crash-restart machinery's
	// events: processes lost, recoveries performed, and periodic snapshots
	// taken.
	Crashes, Restarts, Snapshots int
}

// measure fills in how good the assembled X is: the RMS error against the
// exact solution (NaN when none was supplied) and the relative residual.
func (r *Result) measure(p *Problem, exact sparse.Vec) {
	r.RMSError = math.NaN()
	if exact != nil {
		r.RMSError = r.X.RMSError(exact)
	}
	r.Residual = p.System.A.RelResidual(r.X, p.System.B)
}

// ErrorAtTime returns the RMS error of the last trace point at or before the
// given time (and the time of that point). It returns NaN when the trace is
// empty or starts after t — callers use it to read "the error at t = 100 µs"
// off a Fig. 8-style trace.
func (r *Result) ErrorAtTime(t float64) (float64, float64) {
	best := math.NaN()
	bestT := math.NaN()
	for _, p := range r.Trace {
		if p.Time <= t {
			best = p.RMSError
			bestT = p.Time
		} else {
			break
		}
	}
	return best, bestT
}

// TimeToError returns the earliest trace time at which the RMS error dropped
// to or below the target, or NaN if it never did.
func (r *Result) TimeToError(target float64) float64 {
	for _, p := range r.Trace {
		if !math.IsNaN(p.RMSError) && p.RMSError <= target {
			return p.Time
		}
	}
	return math.NaN()
}

// downsample keeps at most maxPoints of the trace, always retaining the first
// and last points, by uniform thinning.
func downsample(trace []TracePoint, maxPoints int) []TracePoint {
	if maxPoints <= 0 || len(trace) <= maxPoints {
		return trace
	}
	out := make([]TracePoint, 0, maxPoints)
	step := float64(len(trace)-1) / float64(maxPoints-1)
	last := -1
	for i := 0; i < maxPoints; i++ {
		idx := int(math.Round(float64(i) * step))
		if idx >= len(trace) {
			idx = len(trace) - 1
		}
		if idx == last {
			continue
		}
		out = append(out, trace[idx])
		last = idx
	}
	return out
}

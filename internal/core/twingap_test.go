package core

import (
	"context"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/chaos"
	"repro/internal/dtl"
	"repro/internal/sparse"
	"repro/internal/topology"
)

// ring9Problem is bench/dtmperf's ring9-grid13 lane: a random 13×13 grid torn
// 3×3 onto a 9-processor ring.
func ring9Problem(t *testing.T) *Problem {
	t.Helper()
	topo, err := topology.ParseTopology("ring", 9, 10)
	if err != nil {
		t.Fatalf("ParseTopology: %v", err)
	}
	prob, err := GridProblem(sparse.RandomGridSPD(13, 13, 169), 13, 13, 3, 3, topo)
	if err != nil {
		t.Fatalf("GridProblem: %v", err)
	}
	return prob
}

// sourceProblem tears a registered source into parts on a uniform machine.
func sourceProblem(t *testing.T, source string, parts int) *Problem {
	t.Helper()
	src, err := sparse.ParseSource(source)
	if err != nil {
		t.Fatalf("ParseSource: %v", err)
	}
	sys, _, err := src.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	topo, err := topology.ParseTopology("uniform", parts, 10)
	if err != nil {
		t.Fatalf("ParseTopology: %v", err)
	}
	prob, err := AutoProblem(sys, parts, topo)
	if err != nil {
		t.Fatalf("AutoProblem: %v", err)
	}
	return prob
}

// runWindow builds the engine for prob under opts and runs one DES window of
// maxTime, as solveDES does, returning the result and the engine it ran on.
// observe, when non-nil, becomes the run's Observer with the engine at hand.
func runWindow(t *testing.T, prob *Problem, opts CommonOptions, maxTime float64, trace bool, observe func(*engine)) (*Result, *engine) {
	t.Helper()
	var eng *engine
	cfg := Config{CommonOptions: opts, MaxTime: maxTime}
	cfg.RecordTrace = trace
	if observe != nil {
		cfg.Observer = func(float64, int, sparse.Vec) { observe(eng) }
	}
	cfg.normalize()
	if err := cfg.validate(prob); err != nil {
		t.Fatalf("validate: %v", err)
	}
	eng, err := newEngine(prob, &cfg)
	if err != nil {
		t.Fatalf("newEngine: %v", err)
	}
	return eng.finish(eng.window(context.Background(), 0, cfg.MaxTime)), eng
}

// TestOnDemandTwinGapTree runs the three shapes the engine meets — the 13×13
// 3×3 ring of bench/dtmperf, an irregular 4-part spanner, and a crash/restart
// schedule with snapshots (whose restart rewrites incoming waves outside a
// solve, just before one) — with the trace on and off. The twin gap
// is read on every activation with the trace on and only when the stop rule
// gets that far with it off; both must be the same run bit for bit, and the
// trace-off run's solve count is pinned exactly.
func TestOnDemandTwinGapTree(t *testing.T) {
	crash, err := chaos.ParseSpec("crash=5@400+300,snap=100,seed=5")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	for _, tc := range []struct {
		name    string
		problem func(*testing.T) *Problem
		opts    CommonOptions
		maxTime float64
		// solves of the trace-off run (amd64's: where the compiler fuses
		// multiply-adds the iteration may take other steps).
		solves int
	}{
		{"ring9-grid13", ring9Problem, CommonOptions{Tol: 1e-9}, 1e9, 15843},
		{"spanner-lsg4", func(t *testing.T) *Problem { return sourceProblem(t, "spanner:n=1000,k=6,seed=1", 4) }, CommonOptions{Tol: 1e-9}, 1e9, 1496},
		{"crash+snap", faultTestProblem, CommonOptions{Tol: 1e-9, SendThreshold: 1e-11, Faults: crash}, 200000, 99950},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(trace bool) *Result {
				res, _ := runWindow(t, tc.problem(t), tc.opts, tc.maxTime, trace, nil)
				if !res.Converged {
					t.Fatalf("trace=%v: not converged (gap %g at t=%g)", trace, res.TwinGap, res.FinalTime)
				}
				if res.Faults != nil && res.Faults.Restarts != 1 {
					t.Fatalf("trace=%v: %d restarts, the spec schedules one", trace, res.Faults.Restarts)
				}
				return res
			}
			off, on := run(false), run(true)
			if off.Solves != on.Solves || off.Messages != on.Messages || off.FinalTime != on.FinalTime ||
				math.Float64bits(off.TwinGap) != math.Float64bits(on.TwinGap) {
				t.Errorf("trace off: %d solves, %d messages, t=%g, gap %x; trace on: %d, %d, %g, %x",
					off.Solves, off.Messages, off.FinalTime, math.Float64bits(off.TwinGap),
					on.Solves, on.Messages, on.FinalTime, math.Float64bits(on.TwinGap))
			}
			for i := range off.X {
				if math.Float64bits(off.X[i]) != math.Float64bits(on.X[i]) {
					t.Fatalf("X[%d] = %x with the trace off, %x with it on", i, math.Float64bits(off.X[i]), math.Float64bits(on.X[i]))
				}
			}
			t.Logf("%d solves, %d messages", off.Solves, off.Messages)
			if runtime.GOARCH == "amd64" && off.Solves != tc.solves {
				t.Errorf("trace-off run: %d solves, want %d", off.Solves, tc.solves)
			}
		})
	}
}

// shardStates reports each part of e as a one-part ShardState, the form a
// dist worker's Shard.State gives the coordinator: read from the subdomains
// themselves, not from the engine's port views.
func shardStates(e *engine) []ShardState {
	sts := make([]ShardState, len(e.subs))
	for part, sub := range e.subs {
		sts[part].Parts = []PartState{{
			Part:       int32(part),
			SolvedOnce: !math.IsInf(e.lastChange[part], 1),
			LastChange: e.lastChange[part],
			Ports:      slices.Clone(sub.x[:sub.numPorts]),
		}}
	}
	return sts
}

// TestStopRulesShareTwinGap holds the two stopping rules to one twin gap:
// at every solve of a DES run (ring9, and the crash/restart schedule whose
// restarts solve from a snapshot's incoming waves), the engine's
// gap equals core.Quiescent's over ShardStates of the same subdomains bit for
// bit, and the two rules decide alike. Then, from the converged ring9 state,
// each part in turn is solved on NaN waves: its last change still reads
// within Tol (no port move compares greater than NaN), so only the gap can
// refuse — TwinGap must be NaN and neither rule may stop. A max that
// propagates with > instead drops a NaN met as the right operand.
func TestStopRulesShareTwinGap(t *testing.T) {
	const tol = 1e-9
	crash, err := chaos.ParseSpec("crash=5@400+300,snap=100,seed=5")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	agree := func(t *testing.T, e *engine, when string) {
		t.Helper()
		quiet, _, gap := Quiescent(e.prob.Partition.Links, tol, shardStates(e))
		if got := e.twinGap(); math.Float64bits(got) != math.Float64bits(gap) {
			t.Fatalf("%s, after %d solves: engine gap %g (%x), Quiescent's %g (%x)",
				when, e.solves, got, math.Float64bits(got), gap, math.Float64bits(gap))
		}
		if got := e.quiesced(tol); got != quiet {
			t.Fatalf("%s, after %d solves: engine quiesced=%v, Quiescent %v", when, e.solves, got, quiet)
		}
	}
	for _, tc := range []struct {
		name    string
		problem func(*testing.T) *Problem
		opts    CommonOptions
		maxTime float64
	}{
		{"ring9-grid13", ring9Problem, CommonOptions{Tol: tol}, 1e9},
		{"crash+snap", faultTestProblem, CommonOptions{Tol: tol, SendThreshold: 1e-11, Faults: crash}, 200000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checking := true
			observe := func(e *engine) {
				if checking {
					agree(t, e, "during the run")
				}
			}
			res, eng := runWindow(t, tc.problem(t), tc.opts, tc.maxTime, false, observe)
			if !res.Converged || !eng.quiesced(tol) {
				t.Fatalf("not converged (gap %g at t=%g)", res.TwinGap, res.FinalTime)
			}
			if tc.opts.Faults != nil {
				return
			}
			checking = false
			for part, sub := range eng.subs {
				snap := slices.Clone(sub.incoming)
				last := eng.lastChange[part]
				for k := range sub.incoming {
					sub.incoming[k] = math.NaN()
				}
				eng.solve(part, res.FinalTime)
				if c := eng.lastChange[part]; !math.IsNaN(c) {
					t.Errorf("part %d solved on NaN waves: last change %g, want NaN", part, c)
				}
				if g := eng.twinGap(); !math.IsNaN(g) {
					t.Errorf("part %d solved on NaN waves (last change %g): TwinGap = %g, want NaN", part, eng.lastChange[part], g)
				}
				if eng.quiesced(tol) {
					t.Errorf("part %d solved on NaN waves: the engine's rule stops", part)
				}
				agree(t, eng, "with NaN ports")
				// The converged ports are back, the NaN change is not: the
				// last-change clause alone must refuse.
				copy(sub.incoming, snap)
				sub.Solve()
				if eng.quiesced(tol) {
					t.Errorf("part %d: the engine's rule stops on a NaN last change", part)
				}
				agree(t, eng, "with a NaN last change")
				eng.lastChange[part] = last
				if !eng.quiesced(tol) {
					t.Fatalf("part %d: restoring the snapshot did not restore the converged state", part)
				}
			}
		})
	}
}

// TestStopRuleResidualByImpedance records what today's Tol rule (an absolute
// last change and twin gap) buys in residual as the impedance moves over four
// decades: each of three sources torn into 4 parts must stop converged with a
// finite residual, and ‖b−Ax‖∞/‖b‖∞/Tol is logged per Z. It pins nothing of
// the drift (DESIGN.md, "One wave-reliability protocol", has the table); a
// rule that bounds the residual will assert it here.
func TestStopRuleResidualByImpedance(t *testing.T) {
	const tol = 1e-6
	for _, source := range []string{"poisson:nx=17,ny=17", "grid:rows=17,cols=17,seed=3", "spanner:n=300,k=6,seed=1"} {
		prob := sourceProblem(t, source, 4)
		a, b := prob.System.A, prob.System.B
		for _, z := range []float64{0.01, 0.1, 1, 10, 100} {
			cfg := Config{CommonOptions: CommonOptions{Tol: tol, Impedance: dtl.Constant{Z: z}}, MaxTime: 1e9}
			res, err := Solve(context.Background(), prob, cfg)
			if err != nil {
				t.Fatalf("%s Z=%g: %v", source, z, err)
			}
			rel := a.Residual(res.X, b).NormInf() / b.NormInf() / tol
			if !res.Converged || math.IsNaN(rel) || math.IsInf(rel, 0) {
				t.Errorf("%s Z=%g: converged=%v, ‖b−Ax‖∞/‖b‖∞/Tol = %g", source, z, res.Converged, rel)
				continue
			}
			t.Logf("%-28s Z=%-5g %6d solves  ‖b−Ax‖∞/‖b‖∞/Tol = %.3g", source, z, res.Solves, rel)
		}
	}
}

// TestTraceMessagesCountsSends pins what TracePoint.Messages is: the waves
// sent so far. Result.Messages counts the waves delivered, so an asynchronous
// run — stopped with waves still in flight — ends with its last trace point
// at or above it, and a VTM run, whose barrier delivers everything it sends,
// exactly on it.
func TestTraceMessagesCountsSends(t *testing.T) {
	prob := ring9Problem(t)
	solve := func(cfg Config) (last TracePoint, res *Result) {
		cfg.Tol, cfg.RecordTrace = 1e-9, true
		res, err := Solve(context.Background(), prob, cfg)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if !res.Converged || len(res.Trace) == 0 {
			t.Fatalf("converged=%v with %d trace points", res.Converged, len(res.Trace))
		}
		return res.Trace[len(res.Trace)-1], res
	}
	last, res := solve(Config{MaxTime: 1e9})
	if last.Messages < res.Messages || last.Solves != res.Solves {
		t.Errorf("DES: last trace point has %d messages sent, %d solves; the result %d delivered, %d solves",
			last.Messages, last.Solves, res.Messages, res.Solves)
	}
	if last.Messages == res.Messages {
		t.Errorf("DES: %d messages sent and delivered: the ring run is expected to stop with waves in flight", res.Messages)
	}
	last, res = solve(Config{Engine: EngineVTM, MaxIterations: 100000})
	if last.Messages != res.Messages || last.Solves != res.Solves {
		t.Errorf("VTM: last trace point has %d messages, %d solves; the result %d, %d",
			last.Messages, last.Solves, res.Messages, res.Solves)
	}
}

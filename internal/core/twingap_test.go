package core

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/chaos"
	"repro/internal/sparse"
	"repro/internal/topology"
)

// checkGapTree asserts the invariant of the on-demand twin-gap tree: every
// internal node is the maximum of its children, and every leaf none of whose
// two parts is stale holds exactly |u_A − u_B| of the current port potentials.
// With no part stale — the state twinGap leaves behind — that is equality
// with a from-scratch rebuild. It returns how many parts were stale.
func checkGapTree(t *testing.T, e *engine) int {
	t.Helper()
	for i, l := range e.prob.Partition.Links {
		if e.gapIsStale[l.PartA] || e.gapIsStale[l.PartB] {
			continue
		}
		want := math.Abs(e.subs[l.PartA].PortPotential(l.PortA) - e.subs[l.PartB].PortPotential(l.PortB))
		if got := e.gapTree[e.gapLeaf+i]; got != want {
			t.Fatalf("after %d solves: leaf of link %d (parts %d, %d, neither stale) holds %g, ports differ by %g",
				e.solves, i, l.PartA, l.PartB, got, want)
		}
	}
	for i := e.gapLeaf - 1; i >= 1; i-- {
		if want := math.Max(e.gapTree[2*i], e.gapTree[2*i+1]); e.gapTree[i] != want {
			t.Fatalf("after %d solves: tree node %d holds %g, its children's maximum is %g", e.solves, i, e.gapTree[i], want)
		}
	}
	stale := 0
	for part, is := range e.gapIsStale {
		if is {
			stale++
		}
		listed := 0
		for _, p := range e.gapStale {
			if int(p) == part {
				listed++
			}
		}
		if is && listed != 1 || !is && listed != 0 {
			t.Fatalf("after %d solves: part %d stale=%v but listed %d times in %v", e.solves, part, is, listed, e.gapStale)
		}
	}
	return stale
}

// TestOnDemandTwinGapTree runs the three shapes the engine meets — the 13×13
// 3×3 ring of bench/dtmperf, an irregular 4-part spanner, and a crash/restart
// schedule with snapshots (whose RestoreSnapshot rewrites port potentials
// outside a solve, just before one) — with the trace on and off. The tree is
// read on every activation with the trace on and only when the stop rule
// gets that far with it off; both must be the same run bit for bit, the tree
// must hold its invariant at every solve and equal a rebuild after every
// twinGap, and the trace-off run's refresh count — the structural form of
// what on-demand saves, independent of the host — is pinned exactly.
func TestOnDemandTwinGapTree(t *testing.T) {
	ring := func(t *testing.T) *Problem {
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
	spanner := func(t *testing.T) *Problem {
		src, err := sparse.ParseSource("spanner:n=1000,k=6,seed=1")
		if err != nil {
			t.Fatalf("ParseSource: %v", err)
		}
		sys, _, err := src.Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		topo, err := topology.ParseTopology("uniform", 4, 10)
		if err != nil {
			t.Fatalf("ParseTopology: %v", err)
		}
		prob, err := AutoProblem(sys, 4, topo)
		if err != nil {
			t.Fatalf("AutoProblem: %v", err)
		}
		return prob
	}
	crash, err := chaos.ParseSpec("crash=5@400+300,snap=100,seed=5")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	for _, tc := range []struct {
		name    string
		problem func(*testing.T) *Problem
		opts    CommonOptions
		maxTime float64
		// solves and part refreshes of the trace-off run (amd64's: where the
		// compiler fuses multiply-adds the iteration may take other steps).
		solves, refreshes int
	}{
		{"ring9-grid13", ring, CommonOptions{Tol: 1e-9}, 1e9, 15843, 1917},
		{"spanner-lsg4", spanner, CommonOptions{Tol: 1e-9}, 1e9, 1496, 272},
		{"crash+snap", faultTestProblem, CommonOptions{Tol: 1e-9, SendThreshold: 1e-11, Faults: crash}, 200000, 99950, 16995},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(trace bool) (*Result, *engine) {
				var eng *engine
				cfg := Config{CommonOptions: tc.opts, MaxTime: tc.maxTime}
				cfg.RecordTrace = trace
				// The observer runs inside every solve, after the part was
				// marked stale and before the trace or the stop rule can ask
				// for the gap: whatever the previous twinGap left wrong in a
				// leaf this solve did not touch shows here.
				cfg.Observer = func(now float64, part int, x sparse.Vec) {
					// (A restart solves from a timer, which no trace point
					// follows, so a faulted run can see two.)
					if stale := checkGapTree(t, eng); trace && stale != 1 && tc.opts.Faults == nil {
						t.Fatalf("after %d solves: %d parts stale in a traced run, whose every activation reads the gap", eng.solves, stale)
					}
				}
				cfg.normalize()
				prob := tc.problem(t)
				if err := cfg.validate(prob); err != nil {
					t.Fatalf("validate: %v", err)
				}
				eng, err := newEngine(prob, &cfg)
				if err != nil {
					t.Fatalf("newEngine: %v", err)
				}
				res := eng.finish(eng.window(context.Background(), 0, cfg.MaxTime, false))
				if stale := checkGapTree(t, eng); stale != 0 {
					t.Fatalf("%d parts stale after finish read the gap", stale)
				}
				if !res.Converged {
					t.Fatalf("trace=%v: not converged (gap %g at t=%g)", trace, res.TwinGap, res.FinalTime)
				}
				if res.Faults != nil && res.Faults.Restarts != 1 {
					t.Fatalf("trace=%v: %d restarts, the spec schedules one", trace, res.Faults.Restarts)
				}
				return res, eng
			}
			off, offEng := run(false)
			on, onEng := run(true)
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
			// A traced run reads the gap on every activation, so it refreshes
			// once per solve: the most the tree can cost, and never more.
			if onEng.gapRefreshes > on.Solves || onEng.gapRefreshes < on.Solves && tc.opts.Faults == nil {
				t.Errorf("traced run: %d part refreshes for %d solves", onEng.gapRefreshes, on.Solves)
			}
			t.Logf("%d solves, %d messages; part refreshes: %d with the trace off, %d with it on",
				off.Solves, off.Messages, offEng.gapRefreshes, onEng.gapRefreshes)
			if runtime.GOARCH == "amd64" && (off.Solves != tc.solves || offEng.gapRefreshes != tc.refreshes) {
				t.Errorf("trace-off run: %d solves, %d part refreshes; want %d, %d",
					off.Solves, offEng.gapRefreshes, tc.solves, tc.refreshes)
			}
		})
	}
}

// TestTraceMessagesCountsSends pins what TracePoint.Messages is: the waves
// sent so far. Result.Messages counts the waves delivered, so an asynchronous
// run — stopped with waves still in flight — ends with its last trace point
// at or above it, and a VTM run, whose barrier delivers everything it sends,
// exactly on it.
func TestTraceMessagesCountsSends(t *testing.T) {
	topo, err := topology.ParseTopology("ring", 9, 10)
	if err != nil {
		t.Fatalf("ParseTopology: %v", err)
	}
	prob, err := GridProblem(sparse.RandomGridSPD(13, 13, 169), 13, 13, 3, 3, topo)
	if err != nil {
		t.Fatalf("GridProblem: %v", err)
	}
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

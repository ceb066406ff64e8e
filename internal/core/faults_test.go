package core

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/factor"
	"repro/internal/sparse"
	"repro/internal/topology"
)

// faultTestProblem builds the fig12-style workload the fault tests run on:
// a 13×13 random-grid SPD system split 4×4 over the paper's heterogeneous
// 16-processor mesh.
func faultTestProblem(t *testing.T) *Problem {
	t.Helper()
	sys := sparse.RandomGridSPD(13, 13, 7)
	prob, err := GridProblem(sys, 13, 13, 4, 4, topology.Mesh4x4Paper())
	if err != nil {
		t.Fatalf("GridProblem: %v", err)
	}
	return prob
}

// TestLiveValidation checks that a fault spec naming a part outside the
// partition is refused by both gates that take one: Solve's (the DES engine)
// and chaos.Spec.CheckParts (the live fleet in cmd/dtmsolve), each naming the
// partition.
func TestLiveValidation(t *testing.T) {
	prob, _ := gridProblem(t, 6, 2, nil)
	n := prob.Partition.NumParts()
	// A 4-part problem has no part 7 or 8: the crash would never fire, and
	// the window would hold the stopping rule for its whole span.
	for _, spec := range []string{"crash=7@10+5", "down=7>8@0:1e9"} {
		faults, err := chaos.ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		cfg := Config{CommonOptions: CommonOptions{Faults: faults}, MaxTime: 100}
		if _, err := Solve(context.Background(), prob, cfg); err == nil || !strings.Contains(err.Error(), "partition") {
			t.Errorf("Solve accepted %q, which names a part outside the partition (err=%v)", spec, err)
		}
		if err := faults.CheckParts(n); err == nil || !strings.Contains(err.Error(), "partition") {
			t.Errorf("CheckParts(%d) accepted %q, which names a part outside the partition (err=%v)", n, spec, err)
		}
	}
	// The same specs over enough parts pass both gates.
	for _, spec := range []string{"crash=3@10+5", "down=2>3@0:1e9"} {
		faults, err := chaos.ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		if err := faults.CheckParts(n); err != nil {
			t.Errorf("CheckParts(%d) refused in-range %q: %v", n, spec, err)
		}
	}
}

func faultRun(t *testing.T, spec *chaos.Spec) *Result {
	t.Helper()
	res, err := Solve(context.Background(), faultTestProblem(t), Config{
		CommonOptions: CommonOptions{
			Tol:           1e-9,
			SendThreshold: 1e-11,
			Faults:        spec,
		},
		MaxTime: 200000,
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res
}

func maxAbsDiff(a, b sparse.Vec) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestDTMFaultsDefaultSendThreshold pins the SendThreshold default under an
// enabled fault spec: with a zero threshold every solve re-announces
// sub-tolerance changes forever, the network never drains, and the
// fault-aware stop (which waits for every state-bearing wave to be applied)
// can never fire — the run would chatter to MaxTime with the twin gap orders
// of magnitude below Tol and still report converged=false.
func TestDTMFaultsDefaultSendThreshold(t *testing.T) {
	res, err := Solve(context.Background(), faultTestProblem(t), Config{
		CommonOptions: CommonOptions{
			Tol: 1e-9,
			// SendThreshold deliberately zero: Config.normalize must default it.
			Faults: &chaos.Spec{Seed: 11, Drop: 0.05, Dup: 0.02, Jitter: 0.5},
		},
		MaxTime: 200000,
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Converged {
		t.Fatalf("faulted run with a defaulted send threshold did not converge: gap %g at t=%g", res.TwinGap, res.FinalTime)
	}
}

// TestDTMFaultsAgreeWithFaultFreeOracle is the paper's self-stabilisation
// claim (Theorem 6.1) under packet loss: DTM with dropped, duplicated and
// jittered deliveries must still converge, to the same solution the
// fault-free DES run reaches.
func TestDTMFaultsAgreeWithFaultFreeOracle(t *testing.T) {
	oracle := faultRun(t, nil)
	if !oracle.Converged {
		t.Fatalf("fault-free oracle did not converge: %+v", oracle)
	}
	for _, drop := range []float64{0.05, 0.20} {
		spec := &chaos.Spec{Seed: 11, Drop: drop, Dup: 0.02, Jitter: 0.5}
		res := faultRun(t, spec)
		if !res.Converged {
			t.Fatalf("drop=%g: run did not converge (final twin gap %g)", drop, res.TwinGap)
		}
		if res.Faults == nil || res.Faults.Dropped == 0 {
			t.Fatalf("drop=%g: no faults recorded: %+v", drop, res.Faults)
		}
		if d := maxAbsDiff(res.X, oracle.X); d > 1e-5 {
			t.Errorf("drop=%g: solution diverges from the fault-free oracle by %g", drop, d)
		}
		if res.FinalTime < oracle.FinalTime {
			t.Errorf("drop=%g: faulted run finished at %g, before the fault-free run's %g — faults cannot speed convergence up",
				drop, res.FinalTime, oracle.FinalTime)
		}
	}
}

// TestDTMLinkDownRecovery opens a hard link-down window and checks that the
// watchdog retransmissions recover the lost waves after it closes, and that
// convergence is never declared while the window is open.
func TestDTMLinkDownRecovery(t *testing.T) {
	spec := &chaos.Spec{Seed: 3, Down: []chaos.Window{{From: 5, To: 6, T0: 0, T1: 900}, {From: 6, To: 5, T0: 0, T1: 900}}}
	res := faultRun(t, spec)
	if !res.Converged {
		t.Fatalf("run did not converge after the down window (twin gap %g)", res.TwinGap)
	}
	if res.FinalTime < 900 {
		t.Errorf("converged at t=%g, inside the down window [0,900) — the fault gate must hold convergence back", res.FinalTime)
	}
	if res.Faults.Retransmissions == 0 {
		t.Errorf("a hard down window must force watchdog retransmissions: %+v", res.Faults)
	}
	if res.Faults.Dropped == 0 {
		t.Errorf("sends into the down window must count as dropped: %+v", res.Faults)
	}
}

// TestDTMCrashRestartRecovers crashes one subdomain mid-run and checks the
// restart machinery: the process refactorises, rolls back to its snapshot,
// and the global computation converges without being restarted.
func TestDTMCrashRestartRecovers(t *testing.T) {
	oracle := faultRun(t, nil)
	spec := &chaos.Spec{
		Seed:          5,
		Crashes:       []chaos.Crash{{Part: 5, At: 400, RestartAfter: 300}},
		SnapshotEvery: 100,
	}
	res := faultRun(t, spec)
	if !res.Converged {
		t.Fatalf("run did not converge after the crash (twin gap %g)", res.TwinGap)
	}
	if res.Faults.Crashes != 1 || res.Faults.Restarts != 1 {
		t.Errorf("crash/restart counts = %d/%d, want 1/1", res.Faults.Crashes, res.Faults.Restarts)
	}
	if res.Faults.Snapshots == 0 {
		t.Errorf("periodic snapshots must have been taken: %+v", res.Faults)
	}
	if res.FinalTime < 700 {
		t.Errorf("converged at t=%g, inside the crash window [400,700)", res.FinalTime)
	}
	if d := maxAbsDiff(res.X, oracle.X); d > 1e-5 {
		t.Errorf("solution after crash-restart diverges from the oracle by %g", d)
	}
}

// TestDTMFaultRunsDeterministic pins the hard invariant of the fault layer:
// a faulted run is byte-identical per seed — same solution bits, same event
// counts, same fault statistics — including at different GOMAXPROCS with the
// parallel supernodal local solver.
func TestDTMFaultRunsDeterministic(t *testing.T) {
	spec := &chaos.Spec{
		Seed: 42, Drop: 0.05, Dup: 0.02, Jitter: 0.5,
		Down:          []chaos.Window{{From: 2, To: 3, T0: 100, T1: 400}},
		Crashes:       []chaos.Crash{{Part: 9, At: 300, RestartAfter: 200}},
		SnapshotEvery: 100,
	}
	run := func() *Result {
		res, err := Solve(context.Background(), faultTestProblem(t), Config{
			CommonOptions: CommonOptions{
				Tol:           1e-9,
				SendThreshold: 1e-11,
				Factor:        factor.Settings{Backend: "sparse-supernodal"},
				Faults:        spec,
			},
			MaxTime: 200000,
		})
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		return res
	}
	ref := run()
	if !ref.Converged {
		t.Fatalf("reference run did not converge (twin gap %g)", ref.TwinGap)
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		res := run()
		runtime.GOMAXPROCS(prev)
		if res.FinalTime != ref.FinalTime || res.Solves != ref.Solves || res.Messages != ref.Messages {
			t.Errorf("GOMAXPROCS=%d: time/solves/messages %g/%d/%d differ from reference %g/%d/%d",
				procs, res.FinalTime, res.Solves, res.Messages, ref.FinalTime, ref.Solves, ref.Messages)
		}
		if *res.Faults != *ref.Faults {
			t.Errorf("GOMAXPROCS=%d: fault stats %+v differ from reference %+v", procs, *res.Faults, *ref.Faults)
		}
		for i := range res.X {
			if res.X[i] != ref.X[i] {
				t.Fatalf("GOMAXPROCS=%d: X[%d] differs bit-for-bit: %g vs %g", procs, i, res.X[i], ref.X[i])
			}
		}
	}
}

// TestMixedFaultsConverge runs the mixed sync/async engine under the same
// fault spec: the sync sweeps are reliable barriers, the async windows are
// lossy, and the run must still reach the oracle's solution.
func TestMixedFaultsConverge(t *testing.T) {
	oracle := faultRun(t, nil)
	res, err := Solve(context.Background(), faultTestProblem(t), Config{
		CommonOptions: CommonOptions{
			Tol:    1e-9,
			Faults: &chaos.Spec{Seed: 8, Drop: 0.10, Jitter: 0.5},
		},
		Engine:      EngineMixed,
		MaxTime:     200000,
		AsyncWindow: 500,
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Converged {
		t.Fatalf("mixed faulted run did not converge (twin gap %g)", res.TwinGap)
	}
	if res.Faults == nil || res.Faults.Dropped == 0 {
		t.Errorf("no drops recorded in the async windows: %+v", res.Faults)
	}
	if d := maxAbsDiff(res.X, oracle.X); d > 1e-5 {
		t.Errorf("mixed faulted solution diverges from the oracle by %g", d)
	}
}

// TestDESFaultStopAgreesWithQuiescent judges one state by both stopping
// rules: on the benchmark's fault lane (ring9, drop=0.05,dup=0.02,jitter=0.5,
// seed=42), the state the DES engine stops converged in is quiet by
// core.Quiescent over every part's Shard.State(), with the engine's twin gap
// bit for bit.
func TestDESFaultStopAgreesWithQuiescent(t *testing.T) {
	spec, err := chaos.ParseSpec("drop=0.05,dup=0.02,jitter=0.5,seed=42")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	const tol = 1e-9
	res, eng := runWindow(t, ring9Problem(t), CommonOptions{Tol: tol, Faults: spec}, 1e9, false, nil)
	if !res.Converged {
		t.Fatalf("not converged (gap %g at t=%g)", res.TwinGap, res.FinalTime)
	}
	states := make([]ShardState, len(eng.shards))
	for part, sh := range eng.shards {
		states[part] = sh.State()
	}
	quiet, change, gap := Quiescent(eng.prob.Partition.Links, tol, states)
	if !quiet {
		t.Errorf("the DES stop is not quiescent: last change %g, twin gap %g", change, gap)
	}
	if math.Float64bits(gap) != math.Float64bits(res.TwinGap) {
		t.Errorf("Quiescent's twin gap %g, the engine's %g", gap, res.TwinGap)
	}
	t.Logf("%d solves, twin gap %.3g", res.Solves, gap)
}

package main

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/dist"
	"repro/internal/factor"
	"repro/internal/iterative"
	"repro/internal/sparse"
)

// testLive is a live session on a grid source torn 2×2, over uniform 10-unit
// links at 5 µs per unit, with a 10 s budget.
func testLive(t *testing.T, source string, tol float64) (liveRun, sparse.System) {
	t.Helper()
	src, err := sparse.ParseSource(source)
	if err != nil {
		t.Fatal(err)
	}
	sys, _, err := src.Build()
	if err != nil {
		t.Fatal(err)
	}
	return liveRun{
		spec:  dist.SpecV2{V: 2, Source: source, PartsX: 2, PartsY: 2},
		delay: func(int, int) float64 { return 10 },
		scale: 5 * time.Microsecond, budget: 10 * time.Second, tol: tol,
	}, sys
}

// oracle is the DES engine's answer on the same tear.
func oracle(t *testing.T, r liveRun) sparse.Vec {
	t.Helper()
	des, err := r.spec.Oracle(1e-10, factor.Settings{})
	if err != nil || !des.Converged {
		t.Fatalf("DES oracle: converged %v, err %v", des != nil && des.Converged, err)
	}
	return des.X
}

// TestLiveConvergesOnGoroutines: a live run under asymmetric per-link delays
// (5 + the sending part) converges to the exact solution.
func TestLiveConvergesOnGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a fleet")
	}
	r, sys := testLive(t, "poisson:nx=8,ny=8", 1e-9)
	r.delay = func(from, _ int) float64 { return 5 + float64(from) }
	exact, st, err := iterative.CG(sys.A, sys.B, iterative.Config{MaxIterations: 2000, Tol: 1e-13})
	if err != nil || !st.Converged {
		t.Fatalf("reference CG failed")
	}
	res, err := r.run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("live run did not converge within the budget (twin gap %g)", res.TwinGap)
	}
	if rms := res.X.RMSError(exact); rms > 1e-6 {
		t.Errorf("live RMS error = %g", rms)
	}
	if rel := sys.A.RelResidual(res.X, sys.B); rel > 1e-5 {
		t.Errorf("live residual = %g", rel)
	}
	if res.Solves == 0 || res.Messages == 0 || !(res.seconds > 0) {
		t.Errorf("live run recorded no work: %d solves, %d messages in %g s", res.Solves, res.Messages, res.seconds)
	}
}

// TestLiveMatchesDESFixedPoint: the live run and the DES engine land on the
// same solution, whatever the interleaving. Whether the stop rule can fire
// early depends on the interleaving, so CI runs this twenty times.
func TestLiveMatchesDESFixedPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a fleet")
	}
	r, _ := testLive(t, "grid:rows=7,cols=7,seed=11", 1e-9)
	want := oracle(t, r)
	res, err := r.run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("live run did not converge")
	}
	if !want.Equal(res.X, 1e-6) {
		t.Errorf("DES and live solutions differ by %g", want.MaxAbsDiff(res.X))
	}
}

// TestLiveDeadlineExceeded: a run its budget ends — 1 ms, or 200 ms of a
// tolerance no run reaches — returns the gathered partial result, not an
// error: not converged, a finite residual, and the work done so far. An exact
// floating-point fixed point meets any tolerance, and a fleet sometimes
// reaches one in well under 200 ms, so that case holds each wave 5 ms: about
// forty hops fit in the budget.
func TestLiveDeadlineExceeded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a fleet")
	}
	for _, tc := range []struct {
		budget     time.Duration
		tol, delay float64
	}{{time.Millisecond, 1e-9, 10}, {200 * time.Millisecond, 1e-300, 1000}} {
		r, sys := testLive(t, "poisson:nx=8,ny=8", tc.tol)
		r.delay = func(int, int) float64 { return tc.delay }
		r.budget = tc.budget
		res, err := r.run()
		if err != nil {
			t.Fatalf("budget %v: %v", tc.budget, err)
		}
		if res.Converged {
			t.Errorf("budget %v: a run its budget ended cannot be marked converged", tc.budget)
		}
		if rel := sys.A.RelResidual(res.X, sys.B); math.IsNaN(rel) || math.IsInf(rel, 0) {
			t.Errorf("budget %v: the partial result must carry a finite residual, got %g", tc.budget, rel)
		}
		if res.Solves == 0 {
			t.Errorf("budget %v: the run must have made progress before the deadline", tc.budget)
		}
	}
}

// TestLiveFaultsRecover drives the fleet through the whole fault model at
// GOMAXPROCS=4 — dropped, duplicated and jittered waves, a link-down window,
// and one member killed and restarted — and checks the run still lands on
// the DES engine's solution. Run it under -race: the fleet's members share
// the fault clock and the coordinator kills and restarts them mid-solve.
func TestLiveFaultsRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a fleet")
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	r, _ := testLive(t, "grid:rows=7,cols=7,seed=11", 1e-9)
	want := oracle(t, r)
	var err error
	// The clock starts at the first wave; the kill at 0.5 ms and the restart
	// at 2.5 ms fall on its next polls, long before a run that loses a fifth
	// of its waves to a 50 ms watchdog can converge.
	if r.faults, err = chaos.ParseSpec("seed=17,drop=0.20,dup=0.05,jitter=0.5,down=0>1@0:200,crash=2@100+400,snap=50"); err != nil {
		t.Fatal(err)
	}
	r.budget = 20 * time.Second
	res, err := r.run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("faulted live run did not converge (twin gap %g)", res.TwinGap)
	}
	if res.stats == nil {
		t.Fatal("a faulted run must report fault statistics")
	}
	if res.stats.Dropped == 0 {
		t.Errorf("20%% drop over a full run must drop something: %+v", *res.stats)
	}
	if res.crashes != 1 || res.restarts != 1 {
		t.Errorf("crash/restart counts = %d/%d, want 1/1", res.crashes, res.restarts)
	}
	if !want.Equal(res.X, 1e-6) {
		t.Errorf("faulted live solution differs from DES by %g", want.MaxAbsDiff(res.X))
	}

	// A crash of a part the tear does not have is refused by name.
	if r.faults, err = chaos.ParseSpec("crash=7@10+5"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.run(); err == nil || !strings.Contains(err.Error(), "partition") {
		t.Errorf("crash=7 on 4 parts: err %v, want a refusal naming the partition", err)
	}
}

// TestLiveOnOnePart: one part has no twin links, so the one worker's first
// solve is the answer and the stop rule holds at once.
func TestLiveOnOnePart(t *testing.T) {
	o := testOptions("live", factor.Settings{})
	o.parts = 1
	sys, err := loadSystem(o)
	if err != nil {
		t.Fatal(err)
	}
	x, summary, err := solve(o, sys)
	if err != nil {
		t.Fatal(err)
	}
	if rel := sys.A.RelResidual(x, sys.B); !(rel <= 1e-10) || !strings.HasPrefix(summary, "converged=true ") {
		t.Errorf("-parts 1: relative residual %g (%s)", rel, summary)
	}
}

// TestLiveReadsMatrixAsMMSource: -method live -matrix hands the workers the
// file as an mm: source pinned by its content hash; beside -rhs it is refused
// in one line naming both, since an mm: source's right-hand side is all ones.
func TestLiveReadsMatrixAsMMSource(t *testing.T) {
	o := testOptions("live", factor.Settings{})
	gen, err := loadSystem(o)
	if err != nil {
		t.Fatal(err)
	}
	o.source, o.matrix = "", filepath.Join(t.TempDir(), "A.mtx")
	f, err := os.Create(o.matrix)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteMatrix(f, gen.A); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sys, err := loadSystem(o)
	if err != nil {
		t.Fatal(err)
	}
	x, summary, err := solve(o, sys)
	if err != nil {
		t.Fatal(err)
	}
	if rel := sys.A.RelResidual(x, sys.B); !(rel <= 1e-6) {
		t.Errorf("-matrix: relative residual %g (%s)", rel, summary)
	}

	o.rhs = "b.vec"
	if _, _, err := solve(o, sys); err == nil || !strings.HasPrefix(err.Error(), "-rhs ") || !strings.Contains(err.Error(), "-method live") || strings.Contains(err.Error(), "\n") {
		t.Errorf("-matrix -rhs -method live: err %v, want one line naming -rhs and -method live", err)
	}
}

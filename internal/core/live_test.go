package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/iterative"
	"repro/internal/sparse"
	"repro/internal/topology"
)

func TestLiveValidation(t *testing.T) {
	prob, _ := gridProblem(t, 6, 2, nil)
	if _, err := Solve(context.Background(), prob, Config{Engine: EngineLive}); err == nil {
		t.Errorf("a live run without MaxWallTime must be rejected")
	}
	if _, err := Solve(context.Background(), prob, Config{CommonOptions: CommonOptions{MaxWallTime: time.Second, Exact: sparse.Vec{1, 2}}, Engine: EngineLive}); err == nil {
		t.Errorf("a wrong-length exact vector must be rejected")
	}
	if _, err := Solve(context.Background(), prob, Config{CommonOptions: CommonOptions{MaxWallTime: time.Second, Faults: &chaos.Spec{Drop: 2}}, Engine: EngineLive}); err == nil {
		t.Errorf("an invalid fault spec must be rejected")
	}
	// A 4-part problem has no part 7 or 8: the crash would never fire, and
	// the window would hold the stopping rule for its whole span.
	for _, spec := range []string{"crash=7@10+5", "down=7>8@0:1e9"} {
		faults, err := chaos.ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		for _, engine := range []Engine{EngineLive, EngineDES} {
			cfg := Config{CommonOptions: CommonOptions{MaxWallTime: time.Second, Faults: faults}, Engine: engine, MaxTime: 100}
			if _, err := Solve(context.Background(), prob, cfg); err == nil || !strings.Contains(err.Error(), "partition") {
				t.Errorf("engine %v accepted %q, which names a part outside the partition (err=%v)", engine, spec, err)
			}
		}
	}
}

func TestLiveConvergesOnGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("live engine test skipped in -short mode")
	}
	sys := sparse.Poisson2D(8, 8, 0.05)
	topo := topology.Mesh(2, 2, "small mesh", func(from, to int) float64 { return 5 + float64(from) })
	prob, err := GridProblem(sys, 8, 8, 2, 2, topo)
	if err != nil {
		t.Fatalf("GridProblem: %v", err)
	}
	exact, st, err := iterative.CG(sys.A, sys.B, iterative.Config{MaxIterations: 2000, Tol: 1e-13})
	if err != nil || !st.Converged {
		t.Fatalf("reference CG failed")
	}
	res, err := Solve(context.Background(), prob, Config{
		CommonOptions: CommonOptions{
			MaxWallTime: 10 * time.Second,
			Tol:         1e-9,
			Exact:       exact,
			RecordTrace: true,
		},
		Engine:    EngineLive,
		TimeScale: 5 * time.Microsecond,
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Converged {
		t.Fatalf("live run did not converge within the wall-time budget (error %g)", res.RMSError)
	}
	if res.RMSError > 1e-6 {
		t.Errorf("live RMS error = %g", res.RMSError)
	}
	if res.Residual > 1e-5 {
		t.Errorf("live residual = %g", res.Residual)
	}
	if res.Solves == 0 || res.Messages == 0 {
		t.Errorf("live run recorded no work: %+v", res)
	}
	if res.FinalTime <= 0 {
		t.Errorf("live run must report a positive wall time, got %g", res.FinalTime)
	}
}

func TestLiveMatchesDESFixedPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("live engine test skipped in -short mode")
	}
	sys := sparse.RandomGridSPD(7, 7, 11)
	topo := topology.Uniform(4, 10, "uniform")
	prob, err := GridProblem(sys, 7, 7, 2, 2, topo)
	if err != nil {
		t.Fatalf("GridProblem: %v", err)
	}
	des, err := Solve(context.Background(), prob, Config{CommonOptions: CommonOptions{Tol: 1e-10}, MaxTime: 20000})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	live, err := Solve(context.Background(), prob, Config{
		CommonOptions: CommonOptions{
			MaxWallTime: 10 * time.Second,
			Tol:         1e-9,
		},
		Engine:    EngineLive,
		TimeScale: 5 * time.Microsecond,
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !live.Converged {
		t.Fatalf("live run did not converge")
	}
	// Both engines must land on the same solution (the exact one), even though
	// their interleavings are completely different.
	if !des.X.Equal(live.X, 1e-6) {
		t.Errorf("DES and live solutions differ by %g", des.X.MaxAbsDiff(live.X))
	}
}

// TestLiveDeadlineExceeded pins the deadline contract: a run that cannot
// reach its tolerance in the wall-time budget returns ErrDeadlineExceeded
// together with the partial result, and an already-cancelled caller context
// ends the run the same way.
func TestLiveDeadlineExceeded(t *testing.T) {
	if testing.Short() {
		t.Skip("live engine test skipped in -short mode")
	}
	sys := sparse.Poisson2D(8, 8, 0.05)
	prob, err := GridProblem(sys, 8, 8, 2, 2, topology.Uniform(4, 10, "uniform"))
	if err != nil {
		t.Fatalf("GridProblem: %v", err)
	}
	res, err := Solve(context.Background(), prob, Config{
		CommonOptions: CommonOptions{
			MaxWallTime: 200 * time.Millisecond,
			Tol:         1e-300, // unreachable: forces the deadline path
		},
		Engine:    EngineLive,
		TimeScale: 5 * time.Microsecond,
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if res == nil {
		t.Fatal("the partial result must accompany ErrDeadlineExceeded")
	}
	if res.Converged {
		t.Error("a deadline-exceeded run cannot be marked converged")
	}
	if math.IsNaN(res.Residual) || math.IsInf(res.Residual, 0) {
		t.Errorf("the partial result must carry a finite residual, got %g", res.Residual)
	}
	if res.Solves == 0 {
		t.Error("the run must have made progress before the deadline")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = Solve(ctx, prob, Config{
		CommonOptions: CommonOptions{
			MaxWallTime: 10 * time.Second,
			Tol:         1e-9,
		},
		Engine:    EngineLive,
		TimeScale: 5 * time.Microsecond,
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("cancelled context: err = %v, want ErrDeadlineExceeded", err)
	}
	if res == nil || res.Converged {
		t.Errorf("cancelled context must yield a non-converged partial result, got %+v", res)
	}
}

// TestLiveFaultsRecover drives the live engine's whole fault path — real
// dropped and duplicated channel sends, watchdog retransmissions, and one
// crash-restart from a snapshot — at GOMAXPROCS=4, and checks the run still
// lands on the DES engine's solution. Run it under -race: the driver's shared
// state (published shard states, in-goroutine timers) is what this guards.
func TestLiveFaultsRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("live engine test skipped in -short mode")
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	sys := sparse.RandomGridSPD(7, 7, 11)
	prob, err := GridProblem(sys, 7, 7, 2, 2, topology.Uniform(4, 10, "uniform"))
	if err != nil {
		t.Fatalf("GridProblem: %v", err)
	}
	des, err := Solve(context.Background(), prob, Config{CommonOptions: CommonOptions{Tol: 1e-10}, MaxTime: 20000})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	live, err := Solve(context.Background(), prob, Config{
		CommonOptions: CommonOptions{
			MaxWallTime: 20 * time.Second,
			Tol:         1e-9,
			Faults: &chaos.Spec{
				Seed: 17, Drop: 0.20, Dup: 0.05, Jitter: 0.5,
				// The crash and the restart sit inside the first 2.5 ms of wall
				// time (500 units × 5 µs): scheduled later, a fast run converges
				// before the crash fires and reports 0/0 or 1/0.
				Crashes:       []chaos.Crash{{Part: 2, At: 100, RestartAfter: 400}},
				SnapshotEvery: 50,
			},
		},
		Engine:    EngineLive,
		TimeScale: 5 * time.Microsecond,
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !live.Converged {
		t.Fatalf("faulted live run did not converge (twin gap %g)", live.TwinGap)
	}
	if live.Faults == nil {
		t.Fatal("a faulted run must report fault statistics")
	}
	if live.Faults.Dropped == 0 {
		t.Errorf("20%% drop over a full run must drop something: %+v", live.Faults)
	}
	if live.Faults.Crashes != 1 || live.Faults.Restarts != 1 {
		t.Errorf("crash/restart counts = %d/%d, want 1/1", live.Faults.Crashes, live.Faults.Restarts)
	}
	if !des.X.Equal(live.X, 1e-6) {
		t.Errorf("faulted live solution differs from DES by %g", des.X.MaxAbsDiff(live.X))
	}
}

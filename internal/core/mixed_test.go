package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/dense"
	"repro/internal/sparse"
	"repro/internal/topology"
)

func TestMixedConfigValidation(t *testing.T) {
	prob, exact := gridProblem(t, 6, 2, nil)
	cases := map[string]Config{
		"zero MaxTime":     {Engine: EngineMixed, AsyncWindow: 10},
		"zero AsyncWindow": {Engine: EngineMixed, MaxTime: 100},
		"NaN window":       {Engine: EngineMixed, MaxTime: 100, AsyncWindow: math.NaN()},
		"bad exact":        {Engine: EngineMixed, MaxTime: 100, AsyncWindow: 10, CommonOptions: CommonOptions{Exact: sparse.Vec{1}}},
		"negative tol":     {Engine: EngineMixed, MaxTime: 100, AsyncWindow: 10, CommonOptions: CommonOptions{Tol: -1}},
	}
	for name, opts := range cases {
		if _, err := Solve(context.Background(), prob, opts); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
	_ = exact
}

func TestMixedConvergesAndAlternatesPhases(t *testing.T) {
	topo := topology.Mesh4x4Paper()
	sys := sparse.Poisson2D(9, 9, 0.05)
	prob, err := GridProblem(sys, 9, 9, 4, 4, topo)
	if err != nil {
		t.Fatalf("GridProblem: %v", err)
	}
	exact, err := dense.SolveExact(sys.A, sys.B)
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	res, err := Solve(context.Background(), prob, Config{
		CommonOptions: CommonOptions{
			Exact:       exact,
			StopOnError: 1e-7,
			RecordTrace: true,
		},
		Engine:      EngineMixed,
		MaxTime:     30000,
		AsyncWindow: 400,
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Converged {
		t.Fatalf("mixed run did not converge (error %g)", res.RMSError)
	}
	if res.RMSError > 2e-7 || res.Residual > 1e-5 {
		t.Errorf("mixed error %g residual %g", res.RMSError, res.Residual)
	}
	if res.AsyncPhases < 1 || res.SyncSweepsDone < 1 {
		t.Errorf("expected both asynchronous and synchronous work, got %d phases and %d sweeps",
			res.AsyncPhases, res.SyncSweepsDone)
	}
	if res.Solves == 0 || res.Messages == 0 {
		t.Errorf("no work recorded: %+v", res)
	}
	// The stitched trace must stay on a single non-decreasing time axis.
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Time+1e-9 < res.Trace[i-1].Time {
			t.Errorf("trace time went backwards at %d: %g after %g", i, res.Trace[i].Time, res.Trace[i-1].Time)
		}
	}
}

func TestMixedMatchesDTMAndVTMFixedPoint(t *testing.T) {
	prob, exact := gridProblem(t, 8, 2, nil)
	mixed, err := Solve(context.Background(), prob, Config{
		CommonOptions: CommonOptions{
			Tol:   1e-10,
			Exact: exact,
		},
		Engine:      EngineMixed,
		MaxTime:     30000,
		AsyncWindow: 300,
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !mixed.Converged {
		t.Fatalf("mixed run did not converge")
	}
	if !mixed.X.Equal(exact, 1e-6) {
		t.Errorf("mixed solution error %g", mixed.X.MaxAbsDiff(exact))
	}

	// One window over the whole horizon is the DES engine, byte for byte.
	common := CommonOptions{Tol: 1e-10, Exact: exact}
	des, err := Solve(context.Background(), prob, Config{CommonOptions: common, MaxTime: 30000})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	oneWindow, err := Solve(context.Background(), prob, Config{CommonOptions: common, Engine: EngineMixed, MaxTime: 30000, AsyncWindow: 30000})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !des.Converged || !sameRun(des, oneWindow) || oneWindow.AsyncPhases != 1 || oneWindow.SyncSweepsDone != 0 {
		t.Errorf("mixed with AsyncWindow = MaxTime is not the DES run:\n des   %d solves %d messages t=%g\n mixed %d solves %d messages t=%g (%d phases, %d sweeps)",
			des.Solves, des.Messages, des.FinalTime, oneWindow.Solves, oneWindow.Messages, oneWindow.FinalTime, oneWindow.AsyncPhases, oneWindow.SyncSweepsDone)
	}
}

func TestMixedSingleSubdomainDegenerates(t *testing.T) {
	sys := sparse.Poisson2D(4, 4, 0.05)
	prob, err := GridProblem(sys, 4, 4, 1, 1, topology.Uniform(1, 1, "one"))
	if err != nil {
		t.Fatalf("GridProblem: %v", err)
	}
	res, err := Solve(context.Background(), prob, Config{Engine: EngineMixed, MaxTime: 10, AsyncWindow: 5})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Converged || res.Solves != 1 {
		t.Errorf("single-subdomain mixed run must converge with one solve: %+v", res)
	}
}

// TestBarrierCostRoutesAdjacentPairs pins the barrier price on a machine
// where adjacency and links differ: a 6×6 grid torn 2×2 onto a 4-processor
// ring (0–1–3–2–0, every link 10 each way). The corner vertex makes the
// diagonal blocks adjacent, but their processors share no link, so their
// waves take two hops: a barrier costs 40, twice any direct link's round trip.
func TestBarrierCostRoutesAdjacentPairs(t *testing.T) {
	topo := topology.New(4, "square")
	for _, l := range [][2]int{{0, 1}, {1, 3}, {3, 2}, {2, 0}} {
		topo.SetLinkPair(l[0], l[1], 10, 10)
	}
	prob, err := GridProblem(sparse.RandomGridSPD(6, 6, 1), 6, 6, 2, 2, topo)
	if err != nil {
		t.Fatalf("GridProblem: %v", err)
	}
	unlinked := 0
	for a, neighbours := range prob.Partition.AdjacentParts() {
		for _, b := range neighbours {
			if !topo.HasDirectLink(prob.ProcMap[a], prob.ProcMap[b]) {
				unlinked++
			}
		}
	}
	if unlinked == 0 {
		t.Fatalf("every adjacent pair is linked directly: the tear makes no corner adjacency")
	}
	if got := prob.BarrierCost(); got != 40 {
		t.Errorf("BarrierCost = %g, want 40 (two hops of 10 each way)", got)
	}
}

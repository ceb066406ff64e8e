package core

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dense"
	"repro/internal/factor"
	"repro/internal/sparse"
	"repro/internal/topology"
)

// TestDESDeterminism pins the zero-allocation event core to the DES
// contract the paper's figures rely on, for every local-factorisation
// backend: two runs with identical inputs must produce identical
// solve/message counts, identical solutions bit for bit, and identical
// convergence traces.
func TestDESDeterminism(t *testing.T) {
	sys := sparse.RandomGridSPD(13, 13, 7)
	exact, err := dense.SolveExact(sys.A, sys.B)
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	topo := topology.Mesh4x4Paper()

	run := func(fs factor.Settings) *Result {
		prob, err := GridProblem(sys, 13, 13, 4, 4, topo)
		if err != nil {
			t.Fatalf("GridProblem: %v", err)
		}
		res, err := Solve(context.Background(), prob, Config{
			CommonOptions: CommonOptions{
				Exact:       exact,
				StopOnError: 1e-6,
				RecordTrace: true,
				Factor:      fs,
			},
			MaxTime: 4000,
		})
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		return res
	}

	compare := func(t *testing.T, a, b *Result) {
		t.Helper()
		if a.Solves != b.Solves {
			t.Errorf("Solves differ: %d vs %d", a.Solves, b.Solves)
		}
		if a.Messages != b.Messages {
			t.Errorf("Messages differ: %d vs %d", a.Messages, b.Messages)
		}
		if a.FinalTime != b.FinalTime {
			t.Errorf("FinalTime differs: %g vs %g", a.FinalTime, b.FinalTime)
		}
		if a.TwinGap != b.TwinGap {
			t.Errorf("TwinGap differs: %g vs %g", a.TwinGap, b.TwinGap)
		}
		if len(a.X) != len(b.X) {
			t.Fatalf("X lengths differ: %d vs %d", len(a.X), len(b.X))
		}
		for i := range a.X {
			if a.X[i] != b.X[i] {
				t.Fatalf("X[%d] differs: %g vs %g", i, a.X[i], b.X[i])
			}
		}
		if len(a.Trace) != len(b.Trace) {
			t.Fatalf("trace lengths differ: %d vs %d", len(a.Trace), len(b.Trace))
		}
		for i := range a.Trace {
			if a.Trace[i] != b.Trace[i] {
				t.Fatalf("trace point %d differs: %+v vs %+v", i, a.Trace[i], b.Trace[i])
			}
		}
		if !a.Converged {
			t.Errorf("run did not converge: %+v", a)
		}
	}

	for _, backend := range []string{"", factor.DenseCholesky, factor.SparseCholesky, factor.SparseSupernodal, factor.Auto} {
		name := backend
		if name == "" {
			name = "default"
		}
		fs := factor.Settings{Backend: backend}
		t.Run(name, func(t *testing.T) {
			compare(t, run(fs), run(fs))
		})
	}

	// The same contract with the fill-reducing ordering forced to nested
	// dissection, so the ND code path is under the byte-identical DES
	// guarantee too.
	t.Run("supernodal-nd-ordering", func(t *testing.T) {
		fs := factor.Settings{Backend: factor.SparseSupernodal, Ordering: factor.OrderND}
		compare(t, run(fs), run(fs))
	})
}

// TestDESSteadyStateDoesNotAllocate is the zero-allocation contract of the DES
// loop stated exactly: on the ring9 shape of bench/dtmperf (169 unknowns torn
// 3×3 on a 9-processor ring, no stopping rule, no faults, no trace) a run
// twice as long does ≈ 14 400 more solves and ≈ 51 000 more messages, and may
// allocate at most one more object per 50 of those solves. What it does
// allocate is growth of the event queue and the wave pools (≈ 140 objects,
// one per 105 solves); anything paid per event, per message or per solve
// is at least one per solve. The faulted path is not held to this: it hands
// duplicated buffers to the GC by design, and ring9-grid13-faults in
// bench/dtmperf/pins.json is its guard.
func TestDESSteadyStateDoesNotAllocate(t *testing.T) {
	sys := sparse.RandomGridSPD(13, 13, 169)
	topo, err := topology.ParseTopology("ring", 9, 10)
	if err != nil {
		t.Fatalf("ParseTopology: %v", err)
	}
	run := func(maxTime float64) (mallocs uint64, solves int) {
		prob, err := GridProblem(sys, 13, 13, 3, 3, topo)
		if err != nil {
			t.Fatalf("GridProblem: %v", err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Solve(context.Background(), prob, Config{MaxTime: maxTime})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		return after.Mallocs - before.Mallocs, res.Solves
	}
	shortMallocs, shortSolves := run(800)
	longMallocs, longSolves := run(1600)
	t.Logf("MaxTime 800: %d solves, %d mallocs; 1600: %d solves, %d mallocs", shortSolves, shortMallocs, longSolves, longMallocs)
	if longSolves < 2*shortSolves {
		t.Fatalf("the longer run did %d solves against %d: not a steady-state comparison", longSolves, shortSolves)
	}
	if extra, budget := int(longMallocs)-int(shortMallocs), (longSolves-shortSolves)/50; extra > budget {
		t.Errorf("%d more solves cost %d more allocations (%d → %d), budget %d: something allocates in the DES loop",
			longSolves-shortSolves, extra, shortMallocs, longMallocs, budget)
	}
}

// TestVTMGolden pins the VTM engine the way bench/dtmperf/pins.json pins the
// DES one: the quick compare-vtm problem, with the counters below recorded
// from the stand-alone sweep loop VTM had before it became a schedule of
// engine.sweep (commit 74f05e3). The counters hold on every platform; the
// bit patterns of X and of the trace are amd64's (other targets may fuse
// multiply-adds), re-recorded when the dense blocks began solving their ports
// through the Schur complement: the same numbers to eleven digits, other
// last bits.
func TestVTMGolden(t *testing.T) {
	sys := sparse.Poisson2D(17, 17, 0.05)
	exact, err := dense.SolveExact(sys.A, sys.B)
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	prob, err := GridProblem(sys, 17, 17, 4, 4, topology.Mesh4x4Paper())
	if err != nil {
		t.Fatalf("GridProblem: %v", err)
	}
	res, err := Solve(context.Background(), prob, Config{
		CommonOptions: CommonOptions{Exact: exact, StopOnError: 1e-4, RecordTrace: true},
		Engine:        EngineVTM,
		MaxIterations: 600,
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Iterations != 97 || res.Solves != 1552 || res.Messages != 23280 || res.FinalTime != 97 || !res.Converged || len(res.Trace) != 97 {
		t.Errorf("VTM run moved: %d sweeps, %d solves, %d messages, t=%g, converged=%v, %d trace points; want 97, 1552, 23280, 97, true, 97",
			res.Iterations, res.Solves, res.Messages, res.FinalTime, res.Converged, len(res.Trace))
	}
	if runtime.GOARCH != "amd64" {
		return
	}
	hx, ht := fnv.New64a(), fnv.New64a()
	hashBits := func(h hash.Hash64, vs ...float64) {
		for _, v := range vs {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	}
	hashBits(hx, res.X...)
	for _, tp := range res.Trace {
		hashBits(ht, tp.Time, tp.RMSError, tp.TwinGap, float64(tp.Solves), float64(tp.Messages))
	}
	if got := hx.Sum64(); got != 0x3ed207f4e3bede0c {
		t.Errorf("FNV-1a of X = %#x, want 0x3ed207f4e3bede0c", got)
	}
	if got := ht.Sum64(); got != 0xe44d9d49ace97e17 {
		t.Errorf("FNV-1a of the trace = %#x, want 0xe44d9d49ace97e17", got)
	}
	if math.Float64bits(res.RMSError) != 0x3f17fabfbfc31e08 || math.Float64bits(res.TwinGap) != 0x3ecdac59c9000000 {
		t.Errorf("final RMS %x gap %x, want 3f17fabfbfc31e08 3ecdac59c9000000", math.Float64bits(res.RMSError), math.Float64bits(res.TwinGap))
	}
}

// orderingProblem is a grid torn 2×2 whose blocks are factorised sparsely
// when the backend says so, so the fill-reducing ordering is observable.
func orderingProblem(t *testing.T) *Problem {
	t.Helper()
	sys := sparse.RandomGridSPD(17, 17, 5)
	prob, err := GridProblem(sys, 17, 17, 2, 2, topology.Uniform(4, 10, "uniform"))
	if err != nil {
		t.Fatalf("GridProblem: %v", err)
	}
	return prob
}

func orderingConfig(ord factor.Ordering) Config {
	return Config{
		CommonOptions: CommonOptions{Tol: 1e-9, Factor: factor.Settings{Backend: factor.SparseCholesky, Ordering: ord}},
		MaxTime:       1e6,
	}
}

func solveWithOrdering(t *testing.T, prob *Problem, ord factor.Ordering) *Result {
	t.Helper()
	res, err := Solve(context.Background(), prob, orderingConfig(ord))
	if err != nil {
		t.Fatalf("Solve (%v ordering): %v", ord, err)
	}
	if !res.Converged {
		t.Fatalf("Solve (%v ordering) did not converge", ord)
	}
	return res
}

func sameRun(a, b *Result) bool {
	if a.Solves != b.Solves || a.Messages != b.Messages || a.FinalTime != b.FinalTime || len(a.X) != len(b.X) {
		return false
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			return false
		}
	}
	return true
}

// TestOrderingDoesNotOutliveItsSolve: a Solve under nested dissection leaves
// nothing behind — the next Solve with default settings, and the next
// default BuildSubdomains, factor under auto again.
func TestOrderingDoesNotOutliveItsSolve(t *testing.T) {
	prob := orderingProblem(t)
	before := solveWithOrdering(t, prob, factor.OrderAuto)
	solveWithOrdering(t, prob, factor.OrderND)
	after := solveWithOrdering(t, prob, factor.OrderAuto)
	if !sameRun(before, after) {
		t.Error("an auto-ordered Solve changed after an nd-ordered Solve ran in the same process")
	}
	subs, _, err := prob.BuildSubdomains(nil, factor.SparseCholesky)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range subs {
		if ord := s.solver.(*factor.Cholesky).Ordering(); ord != factor.OrderRCM {
			t.Errorf("part %d factorised under %v after an nd-ordered Solve, want auto's rcm", s.Part(), ord)
		}
	}
}

// TestConcurrentSolvesKeepTheirOrdering runs an nd-ordered and an
// auto-ordered Solve at the same time (run it under -race): each must be
// byte-identical to its own sequential run.
func TestConcurrentSolvesKeepTheirOrdering(t *testing.T) {
	orders := []factor.Ordering{factor.OrderND, factor.OrderAuto, factor.OrderND, factor.OrderAuto}
	want := make([]*Result, len(orders))
	for i, ord := range orders[:2] {
		want[i] = solveWithOrdering(t, orderingProblem(t), ord)
		want[i+2] = want[i]
	}
	if sameRun(want[0], want[1]) {
		t.Fatal("nd and auto orderings produced identical bits; the test cannot tell them apart")
	}
	got := make([]*Result, len(orders))
	var wg sync.WaitGroup
	for i, ord := range orders {
		prob := orderingProblem(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Solve(context.Background(), prob, orderingConfig(ord))
			if err != nil {
				t.Errorf("concurrent Solve (%v ordering): %v", ord, err)
				return
			}
			got[i] = res
		}()
	}
	wg.Wait()
	for i, ord := range orders {
		if got[i] != nil && !sameRun(got[i], want[i]) {
			t.Errorf("concurrent %v-ordered Solve %d differs from its sequential run", ord, i)
		}
	}
}

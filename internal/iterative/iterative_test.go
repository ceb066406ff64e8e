package iterative

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/dense"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/topology"
)

// smallSystem returns an SPD system small enough for a dense reference solve.
func smallSystem(t *testing.T) (sparse.System, sparse.Vec) {
	t.Helper()
	sys := sparse.Poisson2D(7, 7, 0.05)
	exact, err := dense.SolveExact(sys.A, sys.B)
	if err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	return sys, exact
}

func TestConfigValidation(t *testing.T) {
	sys, exact := smallSystem(t)
	bad := []Config{
		{},                                   // no iteration bound
		{MaxIterations: -1},                  // negative bound
		{MaxIterations: 10, Tol: -1},         // negative tolerance
		{MaxIterations: 10, Tol: math.NaN()}, // NaN tolerance
		{MaxIterations: 10, Exact: sparse.Vec{1, 2}}, // wrong exact length
	}
	for i, cfg := range bad {
		if _, _, err := CG(sys.A, sys.B, cfg); err == nil {
			t.Errorf("case %d: expected a validation error", i)
		}
	}
	_ = exact
}

func TestCGSolvesPoisson(t *testing.T) {
	sys, exact := smallSystem(t)
	x, st, err := CG(sys.A, sys.B, Config{MaxIterations: 1000, Tol: 1e-12, Exact: exact})
	if err != nil {
		t.Fatalf("CG: %v", err)
	}
	if !st.Converged {
		t.Fatalf("CG did not converge in %d iterations", st.Iterations)
	}
	if !x.Equal(exact, 1e-8) {
		t.Errorf("CG solution error %g", x.MaxAbsDiff(exact))
	}
	if st.Residual > 1e-11 {
		t.Errorf("residual = %g", st.Residual)
	}
	// CG on an SPD system of dimension n converges in at most n steps (here far
	// fewer); the error trace must be recorded and decreasing overall.
	if st.Iterations > sys.Dim() {
		t.Errorf("CG used %d iterations on an n=%d SPD system", st.Iterations, sys.Dim())
	}
	if len(st.ErrorTrace) != st.Iterations {
		t.Errorf("error trace has %d entries for %d iterations", len(st.ErrorTrace), st.Iterations)
	}
	if st.ErrorTrace[len(st.ErrorTrace)-1] > st.ErrorTrace[0] {
		t.Errorf("error trace does not decrease")
	}
}

func TestNonConvergenceIsReported(t *testing.T) {
	sys, _ := smallSystem(t)
	_, st, err := CG(sys.A, sys.B, Config{MaxIterations: 3, Tol: 1e-14})
	if err != nil {
		t.Fatalf("CG: %v", err)
	}
	if st.Converged {
		t.Errorf("three CG steps cannot reach 1e-14 on %d unknowns", sys.Dim())
	}
	if st.Iterations != 3 {
		t.Errorf("iterations = %d, want 3", st.Iterations)
	}
}

func TestBlockJacobiConverges(t *testing.T) {
	sys, exact := smallSystem(t)
	assign := partition.GridBlocks(7, 7, 2, 2)
	x, st, err := BlockJacobi(sys.A, sys.B, assign, Config{MaxIterations: 2000, Tol: 1e-11, Exact: exact})
	if err != nil {
		t.Fatalf("BlockJacobi: %v", err)
	}
	if !st.Converged {
		t.Fatalf("block-Jacobi did not converge")
	}
	if !x.Equal(exact, 1e-7) {
		t.Errorf("block-Jacobi error %g", x.MaxAbsDiff(exact))
	}
	// Block Jacobi with 4 blocks must need (weakly) fewer sweeps than point
	// Jacobi — block Jacobi on one-vertex blocks: bigger blocks absorb more
	// of the coupling.
	_, pt, err := BlockJacobi(sys.A, sys.B, partition.GridBlocks(7, 7, 7, 7), Config{MaxIterations: 20000, Tol: 1e-11})
	if err != nil {
		t.Fatalf("point Jacobi: %v", err)
	}
	if st.Iterations > pt.Iterations {
		t.Errorf("block-Jacobi (%d sweeps) should not be slower than point Jacobi (%d)", st.Iterations, pt.Iterations)
	}
}

func TestBlockJacobiValidation(t *testing.T) {
	sys, _ := smallSystem(t)
	if _, _, err := BlockJacobi(sys.A, sys.B, partition.Assignment{Parts: 2, Assign: []int{0, 1}}, Config{MaxIterations: 10}); err == nil {
		t.Errorf("assignment length mismatch must be rejected")
	}
	bad := partition.Assignment{Parts: 2, Assign: make([]int, sys.Dim())} // part 1 empty
	if _, _, err := BlockJacobi(sys.A, sys.B, bad, Config{MaxIterations: 10}); err == nil {
		t.Errorf("an empty part must be rejected")
	}
}

func TestAsyncBlockJacobiConvergesOnUniformMachine(t *testing.T) {
	sys, exact := smallSystem(t)
	assign := partition.GridBlocks(7, 7, 2, 2)
	topo := topology.Uniform(4, 10, "u4")
	res, err := AsyncBlockJacobi(sys.A, sys.B, assign, topo, AsyncOptions{
		MaxTime:     100000,
		Tol:         1e-10,
		Exact:       exact,
		RecordTrace: true,
	})
	if err != nil {
		t.Fatalf("AsyncBlockJacobi: %v", err)
	}
	if !res.Converged {
		t.Fatalf("asynchronous block-Jacobi did not converge (error %g)", res.RMSError)
	}
	if !res.X.Equal(exact, 1e-6) {
		t.Errorf("solution error %g", res.X.MaxAbsDiff(exact))
	}
	if res.Solves == 0 || res.Messages == 0 {
		t.Errorf("no work recorded: %+v", res)
	}
	if len(res.Trace) == 0 {
		t.Errorf("no trace recorded")
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Time < res.Trace[i-1].Time {
			t.Errorf("trace times not monotone")
			break
		}
	}
}

func TestAsyncBlockJacobiHeterogeneousDelays(t *testing.T) {
	// The asynchronous baseline also converges on the heterogeneous machine for
	// this strongly dominant system; the point of the DTM comparison is speed,
	// not a failure to converge.
	sys, exact := smallSystem(t)
	assign := partition.GridBlocks(7, 7, 2, 2)
	topo := topology.MeshUniformRandom(2, 2, 10, 99, 5, "hetero 2x2")
	res, err := AsyncBlockJacobi(sys.A, sys.B, assign, topo, AsyncOptions{
		MaxTime: 200000,
		Tol:     1e-9,
		Exact:   exact,
	})
	if err != nil {
		t.Fatalf("AsyncBlockJacobi: %v", err)
	}
	if !res.Converged {
		t.Errorf("did not converge: error %g", res.RMSError)
	}
}

func TestAsyncBlockJacobiValidation(t *testing.T) {
	sys, _ := smallSystem(t)
	assign := partition.GridBlocks(7, 7, 2, 2)
	topo := topology.Uniform(4, 10, "u4")
	if _, err := AsyncBlockJacobi(sys.A, sys.B, assign, topo, AsyncOptions{}); err == nil {
		t.Errorf("a zero time horizon must be rejected")
	}
	if _, err := AsyncBlockJacobi(sys.A, sys.B, assign, topology.Uniform(2, 10, "u2"), AsyncOptions{MaxTime: 100}); err == nil {
		t.Errorf("too few processors must be rejected")
	}
	if _, err := AsyncBlockJacobi(sys.A, sys.B, assign, topo, AsyncOptions{MaxTime: math.NaN()}); err == nil {
		t.Errorf("a NaN time horizon must be rejected")
	}
	if _, err := AsyncBlockJacobi(sys.A, sys.B, assign, topo, AsyncOptions{MaxTime: 100, Tol: math.NaN()}); err == nil {
		t.Errorf("a NaN tolerance must be rejected")
	}
}

// TestAsyncBlockJacobiStopRule holds the stop rule to what it reports: a run
// is Converged only with every block's last change and the relative residual
// at most Tol. The second row is SPD but its point Jacobi iteration matrix
// has spectral radius 1.8, so the iterates overflow to ±Inf and their changes
// and the residual turn NaN, which once passed both `> Tol` tests.
func TestAsyncBlockJacobiStopRule(t *testing.T) {
	poisson, _ := smallSystem(t)
	jacobiDivergent := sparse.NewCSRFromDense([][]float64{{1, .9, .9}, {.9, 1, .9}, {.9, .9, 1}}, 0)
	for _, tc := range []struct {
		name      string
		a         *sparse.CSR
		b         sparse.Vec
		assign    partition.Assignment
		converged bool
		solves    int // at the stop; 0 when not pinned
	}{
		{"poisson7 2x2", poisson.A, poisson.B, partition.GridBlocks(7, 7, 2, 2), true, 0},
		// The iterates overflow to ±Inf and then NaN: the run ends at the
		// first change that is not finite, long before MaxTime.
		{"jacobi-divergent 3x1", jacobiDivergent, sparse.Vec{1, 2, 3}, partition.Assignment{Parts: 3, Assign: []int{0, 1, 2}}, false, 7246},
	} {
		const tol, maxTime = 1e-6, 1e7
		topo := topology.Uniform(tc.assign.Parts, 10, "uniform")
		res, err := AsyncBlockJacobi(tc.a, tc.b, tc.assign, topo, AsyncOptions{MaxTime: maxTime, Tol: tol})
		if err != nil {
			t.Fatalf("%s: AsyncBlockJacobi: %v", tc.name, err)
		}
		if res.Converged != tc.converged || res.Converged && !(res.Residual <= tol) {
			t.Errorf("%s: Converged = %v with residual %g after %d solves (|x|∞ %g), want Converged = %v",
				tc.name, res.Converged, res.Residual, res.Solves, res.X.NormInf(), tc.converged)
		}
		if tc.solves != 0 && (res.Solves != tc.solves || !(res.FinalTime < maxTime)) {
			t.Errorf("%s: stopped after %d solves at t=%g, want %d solves before t=%g", tc.name, res.Solves, res.FinalTime, tc.solves, maxTime)
		}
	}
}

// TestAsyncBlockJacobiSteadyStateDoesNotAllocate holds the baseline, the
// other netsim client, to the allocation contract of the DES loop
// (core.TestDESSteadyStateDoesNotAllocate, same system, ring and budget): a
// run twice as long may allocate at most one more object per 50 additional
// solves. Measured flat: its value slices are pooled, so the horizon costs
// nothing.
func TestAsyncBlockJacobiSteadyStateDoesNotAllocate(t *testing.T) {
	sys := sparse.RandomGridSPD(13, 13, 169)
	assign := partition.GridBlocks(13, 13, 3, 3)
	topo, err := topology.ParseTopology("ring", 9, 10)
	if err != nil {
		t.Fatalf("ParseTopology: %v", err)
	}
	run := func(maxTime float64) (mallocs uint64, solves int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := AsyncBlockJacobi(sys.A, sys.B, assign, topo, AsyncOptions{MaxTime: maxTime})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("AsyncBlockJacobi: %v", err)
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
		t.Errorf("%d more solves cost %d more allocations (%d → %d), budget %d: something allocates per event",
			longSolves-shortSolves, extra, shortMallocs, longMallocs, budget)
	}
}

// Property: on random strictly diagonally dominant SPD systems, CG agrees
// with a dense direct solve to the requested tolerance.
func TestSolversAgreeProperty(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := 5 + int(rawN%30)
		sys := sparse.RandomSPD(n, 0.15, seed)
		xc, stc, err := CG(sys.A, sys.B, Config{MaxIterations: 10 * n, Tol: 1e-12})
		if err != nil || !stc.Converged {
			return false
		}
		xd, err := dense.SolveExact(sys.A, sys.B)
		if err != nil {
			return false
		}
		return xc.Equal(xd, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the relative residual reported by every solver matches an
// independent recomputation.
func TestReportedResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		sys := sparse.RandomSPD(20, 0.2, seed)
		x, st, err := CG(sys.A, sys.B, Config{MaxIterations: 500, Tol: 1e-10})
		if err != nil {
			return false
		}
		want := sys.A.Residual(x, sys.B).Norm2() / sys.B.Norm2()
		return math.Abs(st.Residual-want) <= 1e-12+1e-6*want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/chaos"
	"repro/internal/dtl"
	"repro/internal/factor"
	"repro/internal/graph"
	"repro/internal/iterative"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/topology"
)

// gridProblem builds a small grid problem on a uniform machine, the workhorse
// fixture of the engine tests.
func gridProblem(t *testing.T, nx, px int, topo *topology.Topology) (*Problem, sparse.Vec) {
	t.Helper()
	sys := sparse.Poisson2D(nx, nx, 0.05)
	if topo == nil {
		topo = topology.Uniform(px*px, 10, "uniform test machine")
	}
	prob, err := GridProblem(sys, nx, nx, px, px, topo)
	if err != nil {
		t.Fatalf("GridProblem: %v", err)
	}
	exact, st, err := iterative.CG(sys.A, sys.B, iterative.Config{MaxIterations: 10 * sys.Dim(), Tol: 1e-13})
	if err != nil || !st.Converged {
		t.Fatalf("reference CG failed: %v (converged=%v)", err, st.Converged)
	}
	return prob, exact
}

func TestConfigValidation(t *testing.T) {
	prob, exact := gridProblem(t, 6, 2, nil)
	cases := map[string]Config{
		"zero MaxTime":       {},
		"negative MaxTime":   {MaxTime: -5},
		"NaN MaxTime":        {MaxTime: math.NaN()},
		"wrong Exact length": {MaxTime: 10, CommonOptions: CommonOptions{Exact: sparse.Vec{1, 2}}},
		"negative Tol":       {MaxTime: 10, CommonOptions: CommonOptions{Tol: -1}},
		"negative StopOnErr": {MaxTime: 10, CommonOptions: CommonOptions{Exact: exact, StopOnError: -1}},
		"negative threshold": {MaxTime: 10, CommonOptions: CommonOptions{SendThreshold: -0.5}},
		"NaN Tol":            {MaxTime: 10, CommonOptions: CommonOptions{Tol: math.NaN()}},
		"NaN StopOnErr":      {MaxTime: 10, CommonOptions: CommonOptions{Exact: exact, StopOnError: math.NaN()}},
		"NaN threshold":      {MaxTime: 10, CommonOptions: CommonOptions{SendThreshold: math.NaN()}},
		"unknown backend":    {MaxTime: 10, CommonOptions: CommonOptions{Factor: factor.Settings{Backend: "no-such-backend"}}},
		"unknown ordering":   {MaxTime: 10, CommonOptions: CommonOptions{Factor: factor.Settings{Ordering: 99}}},
		"invalid fault spec": {MaxTime: 10, CommonOptions: CommonOptions{Faults: &chaos.Spec{Drop: 2}}},
	}
	for name, opts := range cases {
		if _, err := Solve(context.Background(), prob, opts); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

func TestNewProblemValidation(t *testing.T) {
	sys := sparse.PaperExample()
	_, res := paperTearing(t)
	topo := topology.TwoProcessorPaper()

	if _, err := NewProblem(sys, nil, topo, nil); err == nil {
		t.Errorf("nil partition must be rejected")
	}
	if _, err := NewProblem(sys, res, nil, nil); err == nil {
		t.Errorf("nil topology must be rejected")
	}
	if _, err := NewProblem(sparse.Tridiagonal(7, 3, -1), res, topo, nil); err == nil {
		t.Errorf("dimension mismatch must be rejected")
	}
	if _, err := NewProblem(sys, res, topology.Uniform(1, 1, "tiny"), nil); err == nil {
		t.Errorf("too few processors must be rejected")
	}
	if _, err := NewProblem(sys, res, topo, []int{0}); err == nil {
		t.Errorf("short process map must be rejected")
	}
	if _, err := NewProblem(sys, res, topo, []int{0, 7}); err == nil {
		t.Errorf("out-of-range process map must be rejected")
	}
	// A valid explicit process map (both subdomains on processor 0 is allowed).
	if _, err := NewProblem(sys, res, topo, []int{1, 0}); err != nil {
		t.Errorf("valid process map rejected: %v", err)
	}
}

func TestGridProblemValidation(t *testing.T) {
	sys := sparse.Poisson2D(4, 4, 0.05)
	topo := topology.Uniform(4, 10, "u4")
	if _, err := GridProblem(sys, 5, 4, 2, 2, topo); err == nil {
		t.Errorf("grid size mismatch must be rejected")
	}
	prob, err := GridProblem(sys, 4, 4, 2, 2, topo)
	if err != nil {
		t.Fatalf("GridProblem: %v", err)
	}
	if prob.Partition.NumParts() != 4 {
		t.Errorf("parts = %d, want 4", prob.Partition.NumParts())
	}
}

func TestAutoProblemOnIrregularSystem(t *testing.T) {
	sys := sparse.RandomSPD(40, 0.1, 3)
	topo := topology.Uniform(3, 5, "u3")
	prob, err := AutoProblem(sys, 3, topo)
	if err != nil {
		t.Fatalf("AutoProblem: %v", err)
	}
	if prob.Partition.NumParts() != 3 {
		t.Errorf("parts = %d", prob.Partition.NumParts())
	}
	res, err := Solve(context.Background(), prob, Config{CommonOptions: CommonOptions{Tol: 1e-9}, MaxTime: 5000})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Residual > 1e-7 {
		t.Errorf("residual = %g", res.Residual)
	}
}

func TestProblemDelayUsesProcMap(t *testing.T) {
	sys, res := paperTearing(t)
	topo := topology.TwoProcessorPaper()
	// Swap the mapping: subdomain 0 on processor 1 and vice versa.
	prob, err := NewProblem(sys, res, topo, []int{1, 0})
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	if got := prob.Delay(0, 1); got != 2.9 {
		t.Errorf("Delay(0,1) = %g, want 2.9 (processor 1 -> 0)", got)
	}
	if got := prob.Delay(1, 0); got != 6.7 {
		t.Errorf("Delay(1,0) = %g, want 6.7", got)
	}
}

func TestOwnerPairsCoverEveryVertexExactlyOnce(t *testing.T) {
	prob, _ := gridProblem(t, 8, 2, nil)
	owner := prob.OwnerPairs()
	seen := make([]int, prob.System.Dim())
	for part, pairs := range owner {
		sub := prob.Partition.Subdomains[part]
		for _, pr := range pairs {
			li, gv := pr[0], pr[1]
			if sub.GlobalIdx[li] != gv {
				t.Errorf("owner pair (%d,%d) inconsistent with the subdomain map", li, gv)
			}
			seen[gv]++
		}
	}
	for v, c := range seen {
		if c != 1 {
			t.Errorf("vertex %d owned %d times, want exactly once", v, c)
		}
	}
}

func TestSubdomainAccessorsAndWaves(t *testing.T) {
	sys, res := paperTearing(t)
	prob, err := NewProblem(sys, res, topology.TwoProcessorPaper(), nil)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	subs, zs, err := prob.BuildSubdomains(paperImpedances(), "")
	if err != nil {
		t.Fatalf("BuildSubdomains: %v", err)
	}
	if len(zs) != 2 {
		t.Fatalf("impedances = %v", zs)
	}
	s0 := subs[0]
	if s0.Part() != 0 || len(s0.X()) != 3 || s0.numPorts != 2 {
		t.Errorf("subdomain 0 shape wrong: part %d dim %d ports %d", s0.Part(), len(s0.X()), s0.numPorts)
	}
	if adj := s0.AdjacentParts(); len(adj) != 1 || adj[0] != 1 {
		t.Errorf("AdjacentParts = %v, want [1]", adj)
	}
	ends := s0.Ends()
	if len(ends) != 2 {
		t.Fatalf("ends = %d, want 2", len(ends))
	}
	for _, e := range ends {
		if e.Remote != 1 {
			t.Errorf("end remote = %d, want 1", e.Remote)
		}
		if e.Z != zs[e.LinkID] {
			t.Errorf("end impedance %g does not match assignment %g", e.Z, zs[e.LinkID])
		}
	}
	if got := s0.AdjacentEnds(0); !slices.Equal(got, []int{0, 1}) {
		t.Errorf("AdjacentEnds(0) = %v, want [0 1]", got)
	}
	if got := res.Subdomains[0].GlobalIdx; !slices.Equal(got, []int{1, 2, 0}) {
		t.Errorf("GlobalIdx = %v, want [1 2 0] (ports V2, V3 then inner V1)", got)
	}

	// Before any solve the state is the zero initial condition (5.6).
	for p := 0; p < s0.numPorts; p++ {
		if s0.X()[p] != 0 {
			t.Errorf("initial port state must be zero")
		}
	}
	// Solve once with zero incoming waves and check the wave identity.
	change := s0.Solve()
	if change <= 0 {
		t.Errorf("first solve must move the boundary potentials, change = %g", change)
	}
	for k := range ends {
		u := s0.X()[ends[k].Port]
		r := s0.incoming[k] // still zero
		if r != 0 {
			t.Errorf("incoming wave must still be zero")
		}
		// ω_k = (r − u)/Z and the outgoing wave is u − Z·ω = 2u − r.
		if math.Abs(s0.OutgoingWave(k)-(2*u-r)) > 1e-12 {
			t.Errorf("OutgoingWave(%d) = %g, want %g", k, s0.OutgoingWave(k), 2*u-r)
		}
	}
	// SetIncomingByLink: a foreign link id is rejected, a real one lands on the
	// right end.
	if s0.SetIncomingByLink(99, 1.5) {
		t.Errorf("unknown link id must be rejected")
	}
	link := res.Links[0]
	if !s0.SetIncomingByLink(link.ID, 1.5) {
		t.Errorf("link %d terminates in subdomain 0", link.ID)
	}
	found := false
	for k, e := range ends {
		if e.LinkID == link.ID && s0.incoming[k] == 1.5 {
			found = true
		}
	}
	if !found {
		t.Errorf("incoming wave was not recorded on the matching end")
	}
}

func TestNewSubdomainRejectsBadImpedances(t *testing.T) {
	_, res := paperTearing(t)
	// Impedance slice indexed by link ID with a zero entry: NewSubdomain must
	// reject the non-positive impedance.
	zs := []float64{0.2, 0}
	if _, err := NewSubdomain(res.Subdomains[0], res.LinksOfPart(0), zs, factor.Settings{}); err == nil {
		t.Errorf("a non-positive impedance must be rejected")
	}
}

func TestDESGridConvergesOnUniformMachine(t *testing.T) {
	prob, exact := gridProblem(t, 8, 2, nil)
	res, err := Solve(context.Background(), prob, Config{
		CommonOptions: CommonOptions{
			Exact:       exact,
			Tol:         1e-10,
			RecordTrace: true,
		},
		MaxTime: 20000,
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: final error %g", res.RMSError)
	}
	if res.RMSError > 1e-8 || res.Residual > 1e-7 {
		t.Errorf("final error %g, residual %g", res.RMSError, res.Residual)
	}
	if res.Solves == 0 || res.Messages == 0 {
		t.Errorf("no work recorded: %+v", res)
	}
	if res.TwinGap > 1e-8 {
		t.Errorf("twin gap = %g", res.TwinGap)
	}
	if len(res.Impedances) != len(prob.Partition.Links) {
		t.Errorf("impedances = %d, want one per link", len(res.Impedances))
	}
	// The trace must be time-ordered and end no later than the reported final time.
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Time < res.Trace[i-1].Time {
			t.Errorf("trace times not monotone at %d", i)
		}
	}
}

func TestDESStopOnErrorStopsEarly(t *testing.T) {
	prob, exact := gridProblem(t, 8, 2, nil)
	full, err := Solve(context.Background(), prob, Config{CommonOptions: CommonOptions{Exact: exact, RecordTrace: true}, MaxTime: 20000})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	early, err := Solve(context.Background(), prob, Config{CommonOptions: CommonOptions{Exact: exact, StopOnError: 1e-4, RecordTrace: true}, MaxTime: 20000})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !early.Converged {
		t.Fatalf("StopOnError run did not report convergence")
	}
	if early.RMSError > 1.5e-4 {
		t.Errorf("stopped with error %g, want <= about 1e-4", early.RMSError)
	}
	if early.FinalTime >= full.FinalTime {
		t.Errorf("StopOnError run (t=%g) should stop before the full run (t=%g)", early.FinalTime, full.FinalTime)
	}
	if early.Solves >= full.Solves {
		t.Errorf("StopOnError run should do less work (%d vs %d solves)", early.Solves, full.Solves)
	}
}

func TestDESSendThresholdReducesMessages(t *testing.T) {
	prob, exact := gridProblem(t, 8, 2, nil)
	noisy, err := Solve(context.Background(), prob, Config{CommonOptions: CommonOptions{Exact: exact}, MaxTime: 8000})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	quiet, err := Solve(context.Background(), prob, Config{CommonOptions: CommonOptions{Exact: exact, SendThreshold: 1e-12}, MaxTime: 8000})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if quiet.Messages >= noisy.Messages {
		t.Errorf("a send threshold should let the converged computation go quiet: %d vs %d messages",
			quiet.Messages, noisy.Messages)
	}
	if quiet.RMSError > 1e-6 {
		t.Errorf("thresholded run error = %g", quiet.RMSError)
	}
}

func TestSingleSubdomainIsDirectSolve(t *testing.T) {
	sys := sparse.Poisson2D(5, 5, 0.05)
	topo := topology.Uniform(1, 1, "single")
	prob, err := GridProblem(sys, 5, 5, 1, 1, topo)
	if err != nil {
		t.Fatalf("GridProblem: %v", err)
	}
	res, err := Solve(context.Background(), prob, Config{MaxTime: 10})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Converged || res.Solves != 1 {
		t.Errorf("single-subdomain run must converge with one solve: %+v", res)
	}
	if res.Residual > 1e-10 {
		t.Errorf("residual = %g", res.Residual)
	}

	// Two uncoupled blocks torn into two parts: no twin links, so every
	// engine's answer is one direct solve per part, counted per part.
	coo := sparse.NewCOO(6, 6)
	for i := 0; i < 6; i++ {
		coo.Add(i, i, 3)
		if i%3 != 2 {
			coo.AddSym(i, i+1, -1)
		}
	}
	blocks := sparse.System{A: coo.ToCSR(), B: sparse.Vec{1, 2, 3, 4, 5, 6}, Name: "two blocks"}
	g, err := graph.FromSystem(blocks.A, blocks.B)
	if err != nil {
		t.Fatalf("FromSystem: %v", err)
	}
	torn, err := partition.EVS(g, partition.Assignment{Parts: 2, Assign: []int{0, 0, 0, 1, 1, 1}}, partition.Options{})
	if err != nil {
		t.Fatalf("EVS: %v", err)
	}
	prob, err = NewProblem(blocks, torn, topology.Uniform(2, 10, "pair"), nil)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	lossy := &chaos.Spec{Drop: 0.1}
	for _, cfg := range []Config{
		{Engine: EngineDES, MaxTime: 10},
		{Engine: EngineVTM, MaxIterations: 10},
		{Engine: EngineMixed, MaxTime: 10, AsyncWindow: 5},
		{Engine: EngineDES, MaxTime: 10, CommonOptions: CommonOptions{Faults: lossy}},
	} {
		res, err := Solve(context.Background(), prob, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Engine, err)
		}
		if !res.Converged || res.Solves != 2 || res.Messages != 0 || res.Residual > 1e-10 {
			t.Errorf("%v: uncoupled parts must be solved once each, exactly: %+v", cfg.Engine, res)
		}
		if (res.Faults != nil) != cfg.Faults.Enabled() {
			t.Errorf("%v: Result.Faults = %v under fault spec %v", cfg.Engine, res.Faults, cfg.Faults)
		}
	}
}

func TestDESObserverSeesEverySolve(t *testing.T) {
	prob, exact := gridProblem(t, 6, 2, nil)
	for _, cfg := range []Config{
		{Engine: EngineDES, MaxTime: 2000},
		{Engine: EngineVTM, MaxIterations: 40},
		// Windows short enough that most solves happen in barrier sweeps.
		{Engine: EngineMixed, MaxTime: 2000, AsyncWindow: 30},
	} {
		observed := 0
		cfg.Exact = exact
		cfg.Observer = func(now float64, part int, local sparse.Vec) {
			observed++
			if part < 0 || part >= prob.Partition.NumParts() {
				t.Errorf("%v: observer saw unknown part %d", cfg.Engine, part)
			}
			if len(local) != prob.Partition.Subdomains[part].Dim() {
				t.Errorf("%v: observer local vector has length %d", cfg.Engine, len(local))
			}
		}
		res, err := Solve(context.Background(), prob, cfg)
		if err != nil {
			t.Fatalf("%v: Solve: %v", cfg.Engine, err)
		}
		if res.Solves == 0 || observed != res.Solves {
			t.Errorf("%v: observer saw %d solves, result says %d", cfg.Engine, observed, res.Solves)
		}
		if cfg.Engine == EngineMixed && res.SyncSweepsDone == 0 {
			t.Errorf("mixed leg ran no barrier sweep: %+v", res)
		}
	}
}

func TestDTMAsymmetricDelaysStillConverge(t *testing.T) {
	// A deliberately extreme asymmetry: 1 ms one way, 400 ms the other.
	topo := topology.New(4, "extreme")
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if a == b {
				continue
			}
			if a < b {
				topo.SetLink(a, b, 1)
			} else {
				topo.SetLink(a, b, 400)
			}
		}
	}
	sys := sparse.Poisson2D(6, 6, 0.05)
	prob, err := GridProblem(sys, 6, 6, 2, 2, topo)
	if err != nil {
		t.Fatalf("GridProblem: %v", err)
	}
	exact, st, err := iterative.CG(sys.A, sys.B, iterative.Config{MaxIterations: 2000, Tol: 1e-13})
	if err != nil || !st.Converged {
		t.Fatalf("reference CG failed")
	}
	res, err := Solve(context.Background(), prob, Config{CommonOptions: CommonOptions{Exact: exact, StopOnError: 1e-8}, MaxTime: 200000})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Converged {
		t.Errorf("DTM must converge for arbitrary positive asymmetric delays (Theorem 6.1); error %g", res.RMSError)
	}
}

func TestVTMConfigValidation(t *testing.T) {
	prob, exact := gridProblem(t, 6, 2, nil)
	cases := map[string]Config{
		"zero iterations":     {Engine: EngineVTM},
		"negative iterations": {Engine: EngineVTM, MaxIterations: -3},
		"bad exact length":    {Engine: EngineVTM, MaxIterations: 10, CommonOptions: CommonOptions{Exact: sparse.Vec{1}}},
	}
	for name, opts := range cases {
		if _, err := Solve(context.Background(), prob, opts); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
	_ = exact
}

func TestVTMConvergesAndMatchesDTMFixedPoint(t *testing.T) {
	prob, exact := gridProblem(t, 8, 2, nil)
	vtm, err := Solve(context.Background(), prob, Config{
		CommonOptions: CommonOptions{
			Tol:         1e-11,
			Exact:       exact,
			RecordTrace: true,
		},
		Engine:        EngineVTM,
		MaxIterations: 2000,
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !vtm.Converged {
		t.Fatalf("VTM did not converge (error %g after %d iterations)", vtm.RMSError, vtm.Iterations)
	}
	if vtm.RMSError > 1e-8 || vtm.Residual > 1e-7 {
		t.Errorf("VTM error %g residual %g", vtm.RMSError, vtm.Residual)
	}
	if len(vtm.Trace) == 0 || vtm.Trace[len(vtm.Trace)-1].RMSError > vtm.Trace[0].RMSError {
		t.Errorf("VTM trace does not decrease")
	}
	// Both engines converge to the same fixed point — the exact solution.
	dtm, err := Solve(context.Background(), prob, Config{CommonOptions: CommonOptions{Exact: exact, Tol: 1e-10}, MaxTime: 20000})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !dtm.X.Equal(vtm.X, 1e-6) {
		t.Errorf("DTM and VTM disagree: max diff %g", dtm.X.MaxAbsDiff(vtm.X))
	}
}

func TestVTMStopOnError(t *testing.T) {
	prob, exact := gridProblem(t, 8, 2, nil)
	res, err := Solve(context.Background(), prob, Config{
		CommonOptions: CommonOptions{
			Exact:       exact,
			StopOnError: 1e-3,
			RecordTrace: true,
		},
		Engine:        EngineVTM,
		MaxIterations: 2000,
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Converged {
		t.Fatalf("VTM StopOnError run did not converge")
	}
	if res.RMSError > 1.5e-3 {
		t.Errorf("stopped at error %g, want <= about 1e-3", res.RMSError)
	}
	full, err := Solve(context.Background(), prob, Config{CommonOptions: CommonOptions{Exact: exact, Tol: 1e-11}, Engine: EngineVTM, MaxIterations: 2000})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.Iterations >= full.Iterations {
		t.Errorf("StopOnError run used %d iterations, full run %d", res.Iterations, full.Iterations)
	}
}

func TestVTMImpedanceAffectsSpeedNotFixedPoint(t *testing.T) {
	prob, exact := gridProblem(t, 8, 2, nil)
	var iters []int
	for _, z := range []float64{0.2, 1, 5} {
		res, err := Solve(context.Background(), prob, Config{
			CommonOptions: CommonOptions{
				Tol:       1e-10,
				Exact:     exact,
				Impedance: dtl.Constant{Z: z},
			},
			Engine:        EngineVTM,
			MaxIterations: 4000,
		})
		if err != nil {
			t.Fatalf("Solve(context.Background(), z=%g): %v", z, err)
		}
		if !res.Converged {
			t.Errorf("z=%g did not converge", z)
			continue
		}
		if res.RMSError > 1e-7 {
			t.Errorf("z=%g error %g", z, res.RMSError)
		}
		iters = append(iters, res.Iterations)
	}
	if len(iters) == 3 && iters[0] == iters[1] && iters[1] == iters[2] {
		t.Errorf("the impedance should change the iteration count, got %v for all strategies", iters)
	}
}

func TestCheckTheoremClassifiesPartitions(t *testing.T) {
	prob, _ := gridProblem(t, 8, 2, nil)
	rep := CheckTheorem(prob)
	if !rep.OriginalSPD || !rep.Satisfied {
		t.Errorf("the shifted Poisson grid partition satisfies the theorem: %+v", rep)
	}
	if rep.NumSPD+rep.NumSNND+rep.NumIndefinite != prob.Partition.NumParts() {
		t.Errorf("class counts do not add up: %+v", rep)
	}
	if len(rep.Classes) != prob.Partition.NumParts() {
		t.Errorf("classes = %d", len(rep.Classes))
	}
	if rep.NumSPD < 1 {
		t.Errorf("at least one subgraph must be SPD")
	}
	if rep.String() == "" {
		t.Errorf("empty report string")
	}
	for _, c := range rep.Classes {
		if c == Indefinite {
			t.Errorf("no subgraph of a dominance-proportional split should be indefinite")
		}
	}
}

func TestResultErrorAtTimeAndTimeToError(t *testing.T) {
	r := &Result{Trace: []TracePoint{
		{Time: 1, RMSError: 1},
		{Time: 5, RMSError: 0.1},
		{Time: 9, RMSError: 0.001},
	}}
	if e, at := r.ErrorAtTime(6); e != 0.1 || at != 5 {
		t.Errorf("ErrorAtTime(6) = %g at %g", e, at)
	}
	if e, _ := r.ErrorAtTime(0.5); !math.IsNaN(e) {
		t.Errorf("ErrorAtTime before the trace must be NaN")
	}
	if got := r.TimeToError(0.05); got != 9 {
		t.Errorf("TimeToError(0.05) = %g, want 9", got)
	}
	if got := r.TimeToError(1e-9); !math.IsNaN(got) {
		t.Errorf("unreached target must give NaN")
	}
	empty := &Result{}
	if e, _ := empty.ErrorAtTime(10); !math.IsNaN(e) {
		t.Errorf("empty trace must give NaN")
	}
}

func TestTraceDownsampleKeepsEndpoints(t *testing.T) {
	trace := make([]TracePoint, 1001)
	for i := range trace {
		trace[i].Solves = i
	}
	thin := downsample(trace, 20)
	if len(thin) < 2 || len(thin) > 20 {
		t.Fatalf("thinned trace length = %d, want 2..20", len(thin))
	}
	if thin[0] != trace[0] || thin[len(thin)-1] != trace[len(trace)-1] {
		t.Errorf("thinning must keep both endpoints, got solves %d..%d", thin[0].Solves, thin[len(thin)-1].Solves)
	}
	if short := downsample(trace[:20], 20); len(short) != 20 {
		t.Errorf("a trace within the bound must be kept whole, got %d points", len(short))
	}

	// Through the engines: at most traceMaxPoints points, ending on the
	// final state.
	prob, exact := gridProblem(t, 8, 2, nil)
	for _, cfg := range []Config{
		{Engine: EngineDES, MaxTime: 20000},
		{Engine: EngineVTM, MaxIterations: 2000},
	} {
		cfg.CommonOptions = CommonOptions{Exact: exact, Tol: 1e-10, RecordTrace: true}
		res, err := Solve(context.Background(), prob, cfg)
		if err != nil {
			t.Fatalf("%v: Solve: %v", cfg.Engine, err)
		}
		if len(res.Trace) == 0 || len(res.Trace) > traceMaxPoints {
			t.Fatalf("%v: trace length = %d, want 1..%d", cfg.Engine, len(res.Trace), traceMaxPoints)
		}
		last := res.Trace[len(res.Trace)-1]
		if last.Solves != res.Solves {
			t.Errorf("%v: the last trace point must be the final state (%d vs %d solves)", cfg.Engine, last.Solves, res.Solves)
		}
	}
}

// TestSolveContextCancellation checks the context-first contract: a
// pre-cancelled context ends a DES run immediately with ErrDeadlineExceeded
// and a valid partial result.
func TestSolveContextCancellation(t *testing.T) {
	sys := sparse.RandomGridSPD(13, 13, 7)
	prob, err := GridProblem(sys, 13, 13, 4, 4, topology.Mesh4x4Paper())
	if err != nil {
		t.Fatalf("GridProblem: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Solve(ctx, prob, Config{
		CommonOptions: CommonOptions{Tol: 1e-10},
		MaxTime:       4000,
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	if res == nil || res.Converged {
		t.Fatalf("want non-converged partial result, got %+v", res)
	}
}

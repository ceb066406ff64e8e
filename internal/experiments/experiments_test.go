package experiments

import (
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/sparse"
	"repro/internal/topology"
)

// find returns the registry row with the given name.
func find(t *testing.T, name string) Experiment {
	t.Helper()
	for _, e := range Registry() {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("experiment %q is not registered", name)
	return Experiment{}
}

// TestRegistryAndNamesAgree pins the one registry: 16 runnable rows, unique
// names, in the order cmd/dtmbench -list has always printed them.
func TestRegistryAndNamesAgree(t *testing.T) {
	want := []string{
		"fig8", "fig9", "fig11", "fig12", "fig13", "fig14",
		"compare-vtm", "compare-async-jacobi",
		"ablation-impedance", "ablation-delays", "ablation-mixed",
		"scale-sparse", "fault-sweep",
		"compare-distributed", "failover-sweep", "spanner-fabric",
	}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d rows, want %d", len(reg), len(want))
	}
	seen := map[string]bool{}
	for i, e := range reg {
		if e.Name != want[i] {
			t.Errorf("row %d is %q, want %q", i, e.Name, want[i])
		}
		if seen[e.Name] {
			t.Errorf("duplicate experiment name %q", e.Name)
		}
		seen[e.Name] = true
		if e.Run == nil {
			t.Errorf("experiment %q has no run function", e.Name)
		}
	}
}

func TestReferenceSolvesSmallAndLargeSystems(t *testing.T) {
	sys := sparse.Poisson2D(5, 5, 0.05)
	x, err := Reference(sys)
	if err != nil {
		t.Fatalf("Reference: %v", err)
	}
	if r := sys.A.Residual(x, sys.B); r.NormInf() > 1e-9 {
		t.Errorf("small reference residual %g", r.NormInf())
	}
	// Force the CG path (dim > 600).
	lsys := sparse.RandomGridSPD(26, 26, 4)
	lx, err := Reference(lsys)
	if err != nil {
		t.Fatalf("Reference (CG path): %v", err)
	}
	if r := lsys.A.Residual(lx, lsys.B); r.Norm2()/lsys.B.Norm2() > 1e-9 {
		t.Errorf("large reference residual %g", r.Norm2()/lsys.B.Norm2())
	}
}

func TestRunMeshRejectsUnknownSource(t *testing.T) {
	p := fig12Params(true)
	p.Specs[0].Source = "banana:nx=4,ny=4"
	if _, err := RunMesh(p); err == nil {
		t.Errorf("a workload no source scheme names must be rejected")
	}
}

func TestPaperProblemMatchesExample(t *testing.T) {
	prob, strategy, exact, err := PaperProblem()
	if err != nil {
		t.Fatalf("PaperProblem: %v", err)
	}
	if prob.Partition.NumParts() != 2 || len(prob.Partition.Links) != 2 {
		t.Errorf("paper problem shape wrong: %d parts, %d links", prob.Partition.NumParts(), len(prob.Partition.Links))
	}
	if prob.Topology.Delay(0, 1) != 6.7 || prob.Topology.Delay(1, 0) != 2.9 {
		t.Errorf("paper problem delays wrong")
	}
	// The exact solution of (3.2).
	want := []float64{0.5882352941, 0.9176470588, 1.0235294118, 0.8705882353}
	for i, w := range want {
		if math.Abs(exact[i]-w) > 1e-9 {
			t.Errorf("exact[%d] = %g, want %g", i, exact[i], w)
		}
	}
	// The Example 5.1 impedances.
	for _, link := range prob.Partition.Links {
		z := strategy.Impedance(prob.Partition, link)
		switch link.Global {
		case 1:
			if z != 0.2 {
				t.Errorf("Z for the V2 pair = %g, want 0.2", z)
			}
		case 2:
			if z != 0.1 {
				t.Errorf("Z for the V3 pair = %g, want 0.1", z)
			}
		default:
			t.Errorf("unexpected split vertex %d", link.Global)
		}
	}
}

func TestFig8ReproducesConvergence(t *testing.T) {
	res, err := Fig8(fig8Params(false))
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	// The four potentials must approach the exact x2 and x3 of the original
	// system, and the RMS error must have dropped by orders of magnitude.
	if math.Abs(res.ExactX2-0.9176470588) > 1e-6 || math.Abs(res.ExactX3-1.0235294118) > 1e-6 {
		t.Errorf("exact potentials wrong: %g, %g", res.ExactX2, res.ExactX3)
	}
	if res.RMSError > 1e-5 {
		t.Errorf("final RMS error %g, want < 1e-5 after 150 us", res.RMSError)
	}
	if len(res.Potentials) != 4 {
		t.Fatalf("expected 4 potential series")
	}
	for _, s := range res.Potentials {
		if len(s.Points) == 0 {
			t.Errorf("series %s is empty", s.Name)
		}
	}
	for i, want := range []float64{res.ExactX2, res.ExactX2, res.ExactX3, res.ExactX3} {
		if got := res.Potentials[i].At(math.Inf(1)); math.Abs(got-want) > 1e-4 {
			t.Errorf("final %s = %g, want %g", res.Potentials[i].Name, got, want)
		}
	}
	if res.Solves == 0 || res.Messages == 0 {
		t.Errorf("no work recorded")
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(sb.String(), "Figure 8") {
		t.Errorf("render output missing the caption")
	}
}

func TestFig9ImpedanceSweepShape(t *testing.T) {
	p := fig9Params(false)
	p.Impedances = []float64{0.01, 0.1, 1, 10}
	res, err := Fig9(p)
	if err != nil {
		t.Fatalf("Fig9: %v", err)
	}
	if len(res.Curve.Points) != 4 {
		t.Fatalf("curve has %d points", len(res.Curve.Points))
	}
	if res.BestError >= res.WorstError {
		t.Errorf("the sweep must show a spread: best %g, worst %g", res.BestError, res.WorstError)
	}
	if res.BestZ <= 0 {
		t.Errorf("BestZ = %g", res.BestZ)
	}
	// Theorem 6.1: every impedance converges, so every error is finite.
	for _, pt := range res.Curve.Points {
		if math.IsNaN(pt.V) || math.IsInf(pt.V, 0) {
			t.Errorf("error at Z=%g is not finite: %g", pt.T, pt.V)
		}
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatalf("Render: %v", err)
	}
}

func TestFig9RejectsEmptySweep(t *testing.T) {
	if _, err := Fig9(Fig9Params{SampleTime: 100}); err == nil {
		t.Errorf("an empty sweep must be rejected")
	}
	if _, err := Fig9(Fig9Params{SampleTime: 0, Impedances: []float64{1}}); err == nil {
		t.Errorf("a zero sample time must be rejected")
	}
}

func TestFig11AndFig13Platforms(t *testing.T) {
	f11 := Fig11()
	if f11.Topo.N() != 16 || f11.Stats.Count != 48 {
		t.Errorf("Fig11 platform wrong: %d processors, %d links", f11.Topo.N(), f11.Stats.Count)
	}
	if ratio := f11.Stats.Max / f11.Stats.Min; ratio < 5 {
		t.Errorf("Fig11 max/min delay ratio = %g, want ~9", ratio)
	}
	f13 := Fig13()
	if f13.Topo.N() != 64 || f13.Stats.Count != 224 {
		t.Errorf("Fig13 platform wrong: %d processors, %d links", f13.Topo.N(), f13.Stats.Count)
	}
	if f13.Stats.Min < 10 || f13.Stats.Max > 100 {
		t.Errorf("Fig13 delays outside [10,100]: [%g, %g]", f13.Stats.Min, f13.Stats.Max)
	}
	for _, r := range []*TopologyResult{f11, f13} {
		var sb strings.Builder
		if err := r.Render(&sb); err != nil {
			t.Fatalf("Render: %v", err)
		}
		if !strings.Contains(sb.String(), "ms") {
			t.Errorf("render output missing the delay table")
		}
	}
}

func TestRunMeshValidatesShape(t *testing.T) {
	p := fig12Params(true)
	p.Specs[0].PartsX = 5 // 5x4 parts on the 16 processors of the 4x4 mesh
	if _, err := RunMesh(p); err == nil {
		t.Errorf("a tearing with more parts than the mesh has processors must be rejected")
	}
}

func TestFig12QuickConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("mesh experiment skipped in -short mode")
	}
	res, err := RunMesh(fig12Params(true))
	if err != nil {
		t.Fatalf("RunMesh: %v", err)
	}
	if len(res.Curves) != 1 {
		t.Fatalf("curves = %d", len(res.Curves))
	}
	c := res.Curves[0]
	if c.N != 289 {
		t.Errorf("n = %d, want 289", c.N)
	}
	if !c.Converged || c.RMSError > 2e-6 {
		t.Errorf("quick Fig12 run: converged=%v rms=%g", c.Converged, c.RMSError)
	}
	// The DES run is deterministic, so its work is exact: any drift in these
	// two counters means the engine's behaviour changed.
	if c.Solves != 35013 || c.Messages != 136951 {
		t.Errorf("quick Fig12 run did %d solves, %d messages; want 35013, 136951", c.Solves, c.Messages)
	}
	if !strings.Contains(c.Theorem, "satisfied") {
		t.Errorf("theorem report: %s", c.Theorem)
	}
	if math.IsNaN(c.TimeToError(1e-3)) {
		t.Errorf("the error never reached 1e-3")
	}
	if len(c.Error.Points) == 0 {
		t.Errorf("empty convergence curve")
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatalf("Render: %v", err)
	}
}

func TestFaultSweepQuickLegsRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-sweep experiment skipped in -short mode")
	}
	res, err := FaultSweep(faultSweepParams(true))
	if err != nil {
		t.Fatalf("FaultSweep: %v", err)
	}
	if len(res) != 1 {
		t.Fatalf("the quick sweep runs on %d grids, want 1", len(res))
	}
	legs := res[0].Legs
	// baseline + two drop legs + link-down + crash.
	if len(legs) != 5 {
		t.Fatalf("legs = %d, want 5", len(legs))
	}
	for _, leg := range legs {
		if !leg.Converged {
			t.Errorf("leg %q did not converge", leg.label)
		}
		if leg.bar != 1e-5 || leg.miss() != nil {
			t.Errorf("leg %q (bar %g) diverges from the fault-free baseline by %g", leg.label, leg.bar, leg.diff)
		}
		if leg.FinalTime < legs[0].FinalTime {
			t.Errorf("leg %q finished at t=%g, before the baseline's %g — faults cannot speed convergence up", leg.label, leg.FinalTime, legs[0].FinalTime)
		}
	}
	if legs[0].label != "baseline" || faultStats(legs[0]).Dropped != 0 {
		t.Errorf("first leg must be the clean baseline: %+v", legs[0])
	}
	crash := faultStats(legs[len(legs)-1])
	if crash.Crashes != 1 || crash.Restarts != 1 || crash.Snapshots == 0 {
		t.Errorf("crash leg counters wrong: %+v", crash)
	}
	if err := res.missed(); err != nil {
		t.Errorf("missed() = %v on a fully recovering sweep", err)
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(sb.String(), "E7") || !strings.Contains(sb.String(), "crash") {
		t.Errorf("render output incomplete:\n%s", sb.String())
	}
}

// TestFaultSweepRunnerFailsOnDisagreement: E7 exists to measure
// self-stabilisation (Theorem 6.1), so a sweep whose legs do not recover must
// fail its run — here every leg is cut off at a horizon far short of
// convergence — with an error naming the leg, after the table is out.
func TestFaultSweepRunnerFailsOnDisagreement(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-sweep experiment skipped in -short mode")
	}
	cutShort := func(quick bool) FaultSweepParams {
		p := faultSweepParams(quick)
		p.Grids[0].MaxTime = 500
		return p
	}
	var sb strings.Builder
	err := sized(cutShort, FaultSweep, FaultSweepResult.missed)(&sb, true)
	if err == nil || !strings.Contains(err.Error(), `"baseline"`) {
		t.Fatalf("a sweep with no converged leg returned %v, want an error naming the first leg", err)
	}
	if !strings.Contains(sb.String(), "link-down") {
		t.Errorf("the table must be rendered before the run fails:\n%s", sb.String())
	}
}

func TestFaultSweepValidatesShape(t *testing.T) {
	p := faultSweepParams(true)
	p.Grids[0].Spec.PartsX = 5
	if _, err := FaultSweep(p); err == nil {
		t.Errorf("a tearing with more parts than the mesh has processors must be rejected")
	}
	p = faultSweepParams(true)
	p.DropRates = []float64{0.05}
	if _, err := FaultSweep(p); err == nil {
		t.Errorf("a sweep without the fault-free baseline must be rejected")
	}
}

func TestCompareParamsValidation(t *testing.T) {
	bad := compareParams(false)
	bad.Spec.PartsX = 5
	if _, err := CompareDTMvsVTM(bad); err == nil {
		t.Errorf("a tearing with more parts than the mesh has processors must be rejected")
	}
	bad2 := compareParams(false)
	bad2.MaxTime = 0
	if _, err := CompareAsyncJacobi(bad2); err == nil {
		t.Errorf("zero horizon must be rejected")
	}
	bad3 := compareParams(false)
	bad3.Spec.Topology = "no-such-machine"
	if _, err := AblationImpedance(bad3); err == nil {
		t.Errorf("an unregistered topology must be rejected")
	}
	bad4 := compareParams(false)
	bad4.TargetError = 0
	if _, err := AblationDelays(bad4); err == nil {
		t.Errorf("zero target error must be rejected")
	}
	bad5 := compareParams(false)
	bad5.Spec.Source = "banana:nx=4,ny=4"
	if _, err := AblationMixedSync(bad5); err == nil {
		t.Errorf("unknown workload must be rejected")
	}
}

func TestCompareDTMvsVTMQuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison experiment skipped in -short mode")
	}
	res, err := CompareDTMvsVTM(compareParams(true))
	if err != nil {
		t.Fatalf("CompareDTMvsVTM: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	dtm, vtm := res.Rows[0], res.Rows[1]
	if !dtm.Converged || !vtm.Converged {
		t.Errorf("both solvers must reach the quick target: DTM %v, VTM %v", dtm.Converged, vtm.Converged)
	}
	// The paper's qualitative claim: VTM needs fewer sweeps (its solves are far
	// fewer than DTM's), DTM needs no synchronisation.
	if vtm.Solves >= dtm.Solves {
		t.Errorf("VTM should use fewer local solves than DTM: %d vs %d", vtm.Solves, dtm.Solves)
	}
	if err := res.Render(io.Discard); err != nil {
		t.Fatalf("Render: %v", err)
	}
}

func TestGALSMeshStructure(t *testing.T) {
	topo := galsMesh(4, 4)
	if topo.N() != 16 {
		t.Fatalf("N = %d", topo.N())
	}
	// Inside a 2x2 cluster the delay is 1 ms; between clusters it is >= 10 ms.
	if d := topo.LinkDelay(0, 1); d != 1 {
		t.Errorf("intra-cluster delay = %g, want 1", d)
	}
	if d := topo.LinkDelay(1, 2); d < 10 {
		t.Errorf("inter-cluster delay = %g, want >= 10", d)
	}
}

func TestHeterogeneousMeshFallsBackToPaperMesh(t *testing.T) {
	if heterogeneousMesh(4, 4).Name() != topology.Mesh4x4Paper().Name() {
		t.Errorf("4x4 must reuse the paper platform")
	}
	other := heterogeneousMesh(3, 3)
	if other.N() != 9 {
		t.Errorf("3x3 fallback has %d processors", other.N())
	}
}

func TestSlowestRoundTrip(t *testing.T) {
	topo := topology.New(2, "rt")
	topo.SetLinkPair(0, 1, 30, 70)
	if got := slowestRoundTrip(topo); got != 100 {
		t.Errorf("slowestRoundTrip = %g, want 100", got)
	}
}

func TestCompareDistributedQuickAgrees(t *testing.T) {
	res, err := CompareDistributed(compareDistributedParams(true))
	if err != nil {
		t.Fatalf("CompareDistributed: %v", err)
	}
	if len(res.Legs) != 3 {
		t.Fatalf("legs = %d, want 3 (chan, tcp, chan+drop)", len(res.Legs))
	}
	if res.OracleSolves <= 0 {
		t.Errorf("oracle solves = %d", res.OracleSolves)
	}
	for _, l := range res.Legs {
		if !l.Converged {
			t.Errorf("%s: did not converge", l.label)
		}
		if !(l.diff <= 1e-6) {
			t.Errorf("%s: max|dx| = %g, want <= 1e-6", l.label, l.diff)
		}
		if l.Solves <= 0 || l.Messages <= 0 || l.Polls <= 0 {
			t.Errorf("%s: counters solves=%d messages=%d polls=%d, all must be positive",
				l.label, l.Solves, l.Messages, l.Polls)
		}
	}
	if err := res.missed(); err != nil {
		t.Errorf("missed() = %v on a fully passing run", err)
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatalf("Render: %v", err)
	}
	for _, want := range []string{"fabric", "chan", "tcp", "drop=0.05", "PASS"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("rendered report lacks %q", want)
		}
	}
}

func TestScaleSparseQuickRunner(t *testing.T) {
	var sb strings.Builder
	if err := find(t, "scale-sparse").Run(&sb, true); err != nil {
		t.Fatalf("scale-sparse quick: %v", err)
	}
	for _, want := range []string{"backend", "supernodal", "residual"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("rendered report lacks %q", want)
		}
	}
}

func TestCompareDistributedRunner(t *testing.T) {
	var sb strings.Builder
	if err := find(t, "compare-distributed").Run(&sb, true); err != nil {
		t.Fatalf("compare-distributed quick: %v", err)
	}
	if !strings.Contains(sb.String(), "PASS") {
		t.Errorf("rendered report lacks a PASS verdict:\n%s", sb.String())
	}
}

func TestFailoverSweepQuickAgrees(t *testing.T) {
	p := failoverSweepParams(true)
	res, err := FailoverSweep(p)
	if err != nil {
		t.Fatalf("FailoverSweep: %v", err)
	}
	// baseline + one kill leg per heartbeat cadence + the kill-under-drop leg.
	want := 1 + len(p.Heartbeats) + 1
	if len(res.Legs) != want {
		t.Fatalf("legs = %d, want %d", len(res.Legs), want)
	}
	if res.Legs[0].label != "baseline" || res.Legs[0].Failovers != 0 {
		t.Errorf("baseline leg %+v: must run first and fail nothing over", res.Legs[0])
	}
	for _, l := range res.Legs[1:] {
		if l.Failovers < 1 || l.Epoch < 2 {
			t.Errorf("%s: failovers=%d epoch=%d, kill leg must fail over", l.label, l.Failovers, l.Epoch)
		}
	}
	for _, l := range res.Legs {
		if l.bar != 1e-6 || l.miss() != nil {
			t.Errorf("%s: converged=%v max|dx|=%g, want agreement within 1e-6", l.label, l.Converged, l.diff)
		}
	}
	if err := res.missed(); err != nil {
		t.Errorf("missed() = %v on a fully passing run", err)
	}
	var sb strings.Builder
	if err := res.Render(&sb); err != nil {
		t.Fatalf("Render: %v", err)
	}
	for _, want := range []string{"failovers", "baseline", "kill hb=10ms", "drop=5%", "PASS"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("rendered report lacks %q", want)
		}
	}
}

func TestFailoverSweepRunner(t *testing.T) {
	var sb strings.Builder
	if err := find(t, "failover-sweep").Run(&sb, true); err != nil {
		t.Fatalf("failover-sweep quick: %v", err)
	}
	if !strings.Contains(sb.String(), "PASS") {
		t.Errorf("rendered report lacks a PASS verdict:\n%s", sb.String())
	}
}

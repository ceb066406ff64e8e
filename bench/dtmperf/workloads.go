package main

import (
	"fmt"
	"math/rand"

	"repro/internal/factor"
	"repro/internal/sparse"
)

// problem is one named torn system: a source, a tearing, a machine and a
// tolerance.
type problem struct {
	name string
	// why is the one-line reason the problem is in the benchmark (README).
	why string
	// source is a sparse.ParseSource spec; the operator is the same for every
	// run seed (see inputs.b).
	source   string
	topology string
	// px×py regular block tearing of a grid source, or nparts > 0 for
	// LevelSetGrow + EVS on an irregular one.
	px, py, nparts int
	tol            float64
	// faults is a chaos spec with one %d for the fault seed (42 + seed − 1);
	// empty on clean problems.
	faults string
	// gated problems are the ones the PR driver measures, on both engines.
	// The other two run on the DES engine in the suite and in -aa only: every
	// gated problem is one more metric that has to sit still on a shared host,
	// and every one in a run takes reps from the others.
	gated bool
}

func (p *problem) parts() int {
	if p.nparts > 0 {
		return p.nparts
	}
	return p.px * p.py
}

// problems returns the benchmark's five problems. One solve takes 30–80 ms
// (up to 0.3 s as a dist session): on a shared host a timing sits still only
// as the median of a hundred reps spread over the whole run (README, "Host
// noise"), so the sizes are the smallest on which each layer still does the
// work the problem is there for.
func problems() []*problem {
	return []*problem{
		{
			name:   "ring9-grid13",
			why:    "169 unknowns torn 3x3 (blocks of Fig. 14's size) on a 9-processor ring: core+netsim and tiny dense local solves do all the work; factor, partition, sparse do none",
			source: "grid:rows=13,cols=13,seed=169", topology: "ring", px: 3, py: 3, tol: 1e-9, gated: true,
		},
		{
			name:   "ring9-grid13-faults",
			why:    "same problem under drop=0.05,dup=0.02,jitter=0.5: the core layer's recovery path (seq/LWW dedup, watchdogs, suppression), so a clean-path gain that costs it shows",
			source: "grid:rows=13,cols=13,seed=169", topology: "ring", px: 3, py: 3, tol: 1e-9,
			faults: "drop=0.05,dup=0.02,jitter=0.5,seed=%d",
		},
		{
			name:   "bigblock-grid65",
			why:    "4225 unknowns torn 2x2 into supernodal blocks: factor (ordering, numeric factorisation, triangular sweeps) does most of the work, the DES engine almost none",
			source: "grid:rows=65,cols=65,seed=7", topology: "uniform", px: 2, py: 2, tol: 1e-9, gated: true,
		},
		{
			name:   "direct-grid65",
			why:    "the same system as one part: the plain direct baseline the DTM runs are read against; factor as a writer (order+factor once), almost all set-up",
			source: "grid:rows=65,cols=65,seed=7", topology: "uniform", px: 1, py: 1, tol: 1e-9,
		},
		{
			name:   "spanner-lsg4",
			why:    "1000-vertex Yao-spanner Laplacian, 4 level-set parts with EVS: the only problem where sparse source generation and irregular partition matter (two thirds of it is set-up)",
			source: "spanner:n=1000,k=6,seed=1", topology: "uniform", nparts: 4, tol: 1e-9, gated: true,
		},
	}
}

// engine is how a problem is solved. A BENCHMARK.json workload is one engine
// solving the gated problems in turn, closed loop: the client's next solve
// starts when the previous one has been verified.
type engine struct {
	name string
	// why is the workload's one-line reason (BENCHMARK.json, README).
	why  string
	dist bool
}

// distWorkers is how many in-process dist.Workers a session of the dist engine
// starts beside the coordinator.
const distWorkers = 2

var engines = []engine{
	{name: "des", why: "in-process DES engine, one goroutine: ring9 is core+netsim, bigblock is factor, spanner is sparse generation and irregular partition; dist and transport do not run"},
	{name: "dist-tcp", dist: true, why: "the same three problems as sessions of a coordinator and 2 workers over loopback TCP, every member re-tearing from the spec: the only workload where dist and transport run"},
}

// rhsPerturbation is the relative size of the seeded noise added to a
// problem's right-hand side on the DES engine. The operator, the tearing and
// the machine stay fixed across seeds because DTM's work (solves to tolerance)
// swings ±8 to ±30 % with the matrix seed — far above any bound a timing could
// then carry — while a 0.1 % change of b moves every answer a thousand times
// beyond the verifier's 1e-6 and the work by nothing (ring9, spanner) or ±2 %
// (bigblock).
const rhsPerturbation = 0.001

// inputs is what one (problem, engine, seed) triple generates, before any
// clock runs.
type inputs struct {
	faults string // chaos spec string, empty when clean
	// a and b are the system the verifier checks answers against. On the DES
	// engine b is the seeded right-hand side that replaces the source's own
	// after the source build.
	a    *sparse.CSR
	b    sparse.Vec
	xref sparse.Vec // direct sparse-supernodal solution of a·x = b
}

// lane is one problem on one engine, with the inputs of the run's seed.
type lane struct {
	p   *problem
	eng *engine
	in  *inputs
	// pin holds the pinned exact counters of (seed, problem); nil when unpinned.
	pin map[string]float64
}

func (l *lane) name() string { return l.eng.name + "/" + l.p.name }

// newLane generates the inputs of a problem for one seed and solves the
// reference directly. Untimed. The members of a dist session rebuild the
// system from the spec string, so no right-hand side can be handed to them:
// there every seed solves the source's own, and what varies from run to run is
// what varies from session to session anyway, the order real-time waves
// arrive in.
func newLane(p *problem, eng *engine, seed int64) (*lane, error) {
	in := &inputs{}
	if p.faults != "" {
		in.faults = fmt.Sprintf(p.faults, 42+seed-1)
	}
	src, err := sparse.ParseSource(p.source)
	if err != nil {
		return nil, err
	}
	sys, _, err := src.Build()
	if err != nil {
		return nil, err
	}
	in.a, in.b = sys.A, sys.B
	l := &lane{p: p, eng: eng, in: in}
	if !eng.dist {
		rng := rand.New(rand.NewSource(seed))
		scale := rhsPerturbation * in.b.RMS()
		for i := range in.b {
			in.b[i] += scale * rng.NormFloat64()
		}
		l.pin = pinned(seed, p.name)
	}
	ref, err := factor.New(factor.SparseSupernodal, in.a)
	if err != nil {
		return nil, fmt.Errorf("reference factorisation: %w", err)
	}
	in.xref = factor.Solve(ref, in.b)
	return l, nil
}

// rep is one solve of the lane's problem.
func (l *lane) rep(tr *tracer) sample {
	if l.eng.dist {
		return l.runDist(tr)
	}
	return l.runDES(tr)
}

// check is the verifier: the rules of ISSUE 11 a rep's answer must meet.
func (in *inputs) check(x sparse.Vec, converged bool) error {
	if !converged {
		return fmt.Errorf("did not converge")
	}
	if len(x) != len(in.xref) {
		return fmt.Errorf("answer has %d entries, want %d", len(x), len(in.xref))
	}
	if r := in.a.Residual(x, in.b).Norm2() / in.b.Norm2(); !(r <= 1e-6) {
		return fmt.Errorf("relative residual %.3g > 1e-6", r)
	}
	if d := x.MaxAbsDiff(in.xref); !(d <= 1e-6) {
		return fmt.Errorf("max |x - x_ref| = %.3g > 1e-6", d)
	}
	return nil
}

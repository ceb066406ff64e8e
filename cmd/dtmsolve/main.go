// Command dtmsolve solves a sparse SPD linear system with the Directed
// Transmission Method (or one of the baselines) and prints the solve
// statistics.
//
// The system is named by a problem-source string from the sparse registry
// (-source "poisson:nx=33,ny=33", -source "spanner:n=289,k=6",
// -source "mm:A.mtx@<fnv64 hash>", …) or read from files (-matrix A.mtx
// -rhs b.vec, MatrixMarket format — general, symmetric and pattern coordinate
// files as well as array files are accepted; the only way to supply a
// right-hand side). The machine is a topology-registry string (-topo).
//
// Usage examples:
//
//	dtmsolve -source "poisson:nx=33,ny=33" -method dtm -parts 16 -topo mesh4x4
//	dtmsolve -source "spanner:n=289,k=6,seed=1,leak=0.05" -method dtm -parts 8 -topo "yao:k=6"
//	dtmsolve -source "random:n=500" -method cg
//	dtmsolve -source "saddle:nx=128,ny=128" -method direct
//	dtmsolve -matrix A.mtx -rhs b.vec -method vtm -parts 4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/factor"
	"repro/internal/graph"
	"repro/internal/iterative"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/topology"
)

type options struct {
	source      string
	matrix      string
	rhs         string
	method      string
	parts       int
	topo        string
	partitioner string
	maxTime     float64
	maxIter     int
	tol         float64
	ordering    string
	// fs is what -localsolver and -ordering add up to; every factorisation of
	// the run goes through it.
	fs      factor.Settings
	printX  bool
	faults  string
	timeout time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.source, "source", "", fmt.Sprintf("problem-source string (%v; e.g. \"poisson:nx=33,ny=33\", \"spanner:n=289,k=6\" or \"mm:A.mtx@<hash>\"); alternative to -matrix", sparse.RegisteredSources()))
	flag.StringVar(&o.matrix, "matrix", "", "matrix file (MatrixMarket .mtx)")
	flag.StringVar(&o.rhs, "rhs", "", "right-hand-side file (MatrixMarket array or coordinate)")
	flag.StringVar(&o.method, "method", "dtm", "solver: dtm, vtm, mixed, live, direct, cg, pcg, jacobi, gauss-seidel, sor, block-jacobi, async-jacobi")
	flag.IntVar(&o.parts, "parts", 4, "number of subdomains / blocks for the distributed solvers")
	flag.StringVar(&o.topo, "topo", "uniform", fmt.Sprintf("machine, a topology-registry string (%v)", topology.RegisteredTopologies()))
	flag.StringVar(&o.partitioner, "partitioner", "levelset", "graph partitioner for the distributed solvers: levelset, bisection, strips")
	flag.Float64Var(&o.maxTime, "maxtime", 10000, "virtual time horizon for dtm/async-jacobi (topology time units)")
	flag.IntVar(&o.maxIter, "maxiter", 5000, "iteration bound for the discrete-time solvers")
	flag.Float64Var(&o.tol, "tol", 1e-8, "stopping tolerance")
	flag.StringVar(&o.fs.Backend, "localsolver", "", fmt.Sprintf("local-factorisation backend for the block/subdomain solvers: one of %v (default %q)", factor.Backends(), factor.Auto))
	flag.StringVar(&o.ordering, "ordering", "", "fill-reducing ordering the sparse backends use: natural, rcm, amd, nd or auto (default: auto — nd/rcm for grid stencils by size, amd for irregular patterns)")
	flag.BoolVar(&o.printX, "print-x", false, "print the solution vector")
	flag.StringVar(&o.faults, "faults", "", `fault-injection spec for dtm/mixed/live, e.g. "seed=7,drop=0.05,dup=0.01,jitter=0.5,down=2>3@100:400,crash=5@400+300,snap=100" (see internal/chaos)`)
	flag.DurationVar(&o.timeout, "timeout", 0, "wall-clock deadline; for -method live this is the run's wall-time budget (default 3s), for the others a hard cap on the whole solve")
	flag.Parse()

	if o.ordering != "" {
		ord, err := factor.ParseOrdering(o.ordering)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dtmsolve: %v\n", err)
			os.Exit(2)
		}
		o.fs.Ordering = ord
	}
	if err := o.fs.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "dtmsolve: %v\n", err)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "dtmsolve: %v\n", err)
		os.Exit(1)
	}
}

func run(o options) error {
	sys, err := loadSystem(o)
	if err != nil {
		return err
	}
	fmt.Printf("system %q: n=%d, nnz=%d, symmetric=%v\n", sys.Name, sys.Dim(), sys.A.NNZ(), sys.A.IsSymmetric(1e-12))

	if o.timeout > 0 && o.method != "live" {
		// The live engine honours the deadline cooperatively (it returns a
		// partial result); for everything else the timeout is a hard cap on
		// the process.
		time.AfterFunc(o.timeout, func() {
			fmt.Fprintf(os.Stderr, "dtmsolve: %v deadline exceeded\n", o.timeout)
			os.Exit(1)
		})
	}

	start := time.Now()
	x, summary, err := solve(o, sys)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	rel := sys.A.Residual(x, sys.B).Norm2() / sys.B.Norm2()
	fmt.Printf("method=%s  %s\n", o.method, summary)
	fmt.Printf("relative residual %.3g, wall time %v\n", rel, elapsed.Round(time.Millisecond))
	if o.printX {
		for i, v := range x {
			fmt.Printf("x[%d] = %.10g\n", i, v)
		}
	}
	return nil
}

func loadSystem(o options) (sparse.System, error) {
	if o.source != "" {
		if o.matrix != "" {
			return sparse.System{}, fmt.Errorf("-source excludes -matrix")
		}
		src, err := sparse.ParseSource(o.source)
		if err != nil {
			return sparse.System{}, err
		}
		sys, _, err := src.Build()
		return sys, err
	}
	if o.matrix == "" {
		return sparse.System{}, fmt.Errorf("either -source or -matrix is required")
	}
	mf, err := os.Open(o.matrix)
	if err != nil {
		return sparse.System{}, err
	}
	defer mf.Close()
	a, err := sparse.ReadMatrix(mf)
	if err != nil {
		return sparse.System{}, fmt.Errorf("reading %s: %w", o.matrix, err)
	}
	var b sparse.Vec
	if o.rhs != "" {
		rf, err := os.Open(o.rhs)
		if err != nil {
			return sparse.System{}, err
		}
		defer rf.Close()
		b, err = sparse.ReadVec(rf)
		if err != nil {
			return sparse.System{}, fmt.Errorf("reading %s: %w", o.rhs, err)
		}
	} else {
		// Default right-hand side: all ones, the standard smoke-test load.
		b = sparse.NewVec(a.Rows())
		b.Fill(1)
	}
	if len(b) != a.Rows() {
		return sparse.System{}, fmt.Errorf("matrix is %d-dimensional but the right-hand side has %d entries", a.Rows(), len(b))
	}
	return sparse.System{A: a, B: b, Name: o.matrix}, nil
}

func machine(o options) (*topology.Topology, error) {
	return topology.ParseTopology(o.topo, o.parts, 10)
}

// checkParts refuses a -parts the partitioners would panic on.
func checkParts(o options, n int) error {
	if o.parts < 1 || o.parts > n {
		return fmt.Errorf("-parts %d: a system of %d unknowns tears into 1 to %d parts", o.parts, n, n)
	}
	return nil
}

// assignment picks the graph partitioner requested on the command line.
func assignment(o options, g *graph.Electric) (partition.Assignment, error) {
	if err := checkParts(o, g.Order()); err != nil {
		return partition.Assignment{}, err
	}
	switch o.partitioner {
	case "levelset":
		return partition.LevelSetGrow(g, o.parts), nil
	case "bisection":
		return partition.RecursiveBisection(g, o.parts), nil
	case "strips":
		return partition.Strips(g.Order(), o.parts), nil
	default:
		return partition.Assignment{}, fmt.Errorf("unknown partitioner %q", o.partitioner)
	}
}

func distributedProblem(o options, sys sparse.System) (*core.Problem, error) {
	topo, err := machine(o)
	if err != nil {
		return nil, err
	}
	if topo.N() < o.parts {
		return nil, fmt.Errorf("topology %s has %d processors but %d parts were requested", topo.Name(), topo.N(), o.parts)
	}
	g, err := graph.FromSystem(sys.A, sys.B)
	if err != nil {
		return nil, err
	}
	assign, err := assignment(o, g)
	if err != nil {
		return nil, err
	}
	res, err := partition.EVS(g, assign, partition.Options{})
	if err != nil {
		return nil, err
	}
	return core.NewProblem(sys, res, topo, nil)
}

// faultSummary renders the fault statistics of a run, or "" without faults.
func faultSummary(f *core.FaultStats) string {
	if f == nil {
		return ""
	}
	return fmt.Sprintf("\nfaults: %d dropped, %d duplicated, %d delayed, %d retransmissions, %d crashes / %d restarts (%d snapshots)",
		f.Dropped, f.Duplicated, f.Delayed, f.Retransmissions, f.Crashes, f.Restarts, f.Snapshots)
}

// An engineMethod is a -method that runs core.Solve on the torn problem: its
// engine, whether -faults applies, what its Config adds to the shared
// Tol/Factor/Faults, and how its Result reads.
type engineMethod struct {
	engine  core.Engine
	faults  bool
	config  func(o options, c *core.Config)
	summary func(r *core.Result) string
}

var engineMethods = map[string]engineMethod{
	"dtm": {core.EngineDES, true,
		func(o options, c *core.Config) { c.MaxTime = o.maxTime },
		func(r *core.Result) string {
			return fmt.Sprintf("converged=%v at t=%.0f, %d local solves, %d messages, twin gap %.3g%s",
				r.Converged, r.FinalTime, r.Solves, r.Messages, r.TwinGap, faultSummary(r.Faults))
		}},
	"vtm": {core.EngineVTM, false,
		func(o options, c *core.Config) { c.MaxIterations = o.maxIter },
		func(r *core.Result) string {
			return fmt.Sprintf("converged=%v after %d synchronous sweeps, twin gap %.3g",
				r.Converged, r.Iterations, r.TwinGap)
		}},
	"mixed": {core.EngineMixed, true,
		func(o options, c *core.Config) { c.MaxTime, c.AsyncWindow, c.SyncSweeps = o.maxTime, o.maxTime/20, 1 },
		func(r *core.Result) string {
			return fmt.Sprintf("converged=%v at t=%.0f after %d async phases and %d sync sweeps, %d local solves, %d messages%s",
				r.Converged, r.FinalTime, r.AsyncPhases, r.SyncSweepsDone, r.Solves, r.Messages, faultSummary(r.Faults))
		}},
	"live": {core.EngineLive, true,
		func(o options, c *core.Config) {
			c.TimeScale, c.MaxWallTime = 20*time.Microsecond, 3*time.Second
			if o.timeout > 0 {
				c.MaxWallTime = o.timeout
			}
		},
		func(r *core.Result) string {
			return fmt.Sprintf("converged=%v after %.2f s of real asynchronous execution, %d local solves, %d messages%s",
				r.Converged, r.FinalTime, r.Solves, r.Messages, faultSummary(r.Faults))
		}},
}

func solve(o options, sys sparse.System) (sparse.Vec, string, error) {
	var spec *chaos.Spec
	if o.faults != "" {
		var err error
		if spec, err = chaos.ParseSpec(o.faults); err != nil {
			return nil, "", err
		}
		if !engineMethods[o.method].faults {
			return nil, "", fmt.Errorf("-faults applies to methods dtm, mixed and live, not %q", o.method)
		}
	}
	if m, ok := engineMethods[o.method]; ok {
		prob, err := distributedProblem(o, sys)
		if err != nil {
			return nil, "", err
		}
		cfg := core.Config{CommonOptions: core.CommonOptions{Tol: o.tol, Factor: o.fs, Faults: spec}, Engine: m.engine}
		m.config(o, &cfg)
		res, err := core.Solve(context.Background(), prob, cfg)
		if errors.Is(err, core.ErrDeadlineExceeded) {
			// Only the live engine runs against a deadline. Still report the
			// partial result; the residual line tells the user how far the
			// run got.
			fmt.Fprintf(os.Stderr, "dtmsolve: %v\n", err)
			err = nil
		}
		if err != nil {
			return nil, "", err
		}
		return res.X, m.summary(res), nil
	}
	switch o.method {
	case "direct":
		// One factor-once/solve-many factorisation of the whole system through
		// the local-solver registry — the way to exercise a backend (or the
		// auto policy's fallback chain) on a workload end to end. The symmetric
		// backends read only the lower triangle, so an unsymmetric matrix (a
		// general MatrixMarket file, say) would be silently mis-factorised by
		// everything except dense-lu — refuse it up front.
		if o.fs.Backend != factor.DenseLU && !sys.A.IsSymmetric(1e-12) {
			return nil, "", fmt.Errorf("method direct needs a symmetric matrix for backend %q (only dense-lu handles unsymmetric input)", o.fs.Backend)
		}
		s, err := o.fs.New(sys.A)
		if err != nil {
			return nil, "", err
		}
		x := factor.Solve(s, sys.B)
		summary := fmt.Sprintf("backend=%s", s.Backend())
		switch f := s.(type) {
		case *factor.Cholesky:
			summary += fmt.Sprintf(" (%s ordering, nnz(L)=%d)", f.Ordering(), f.NNZL())
		case *factor.Supernodal:
			pos, neg, zero := f.Inertia()
			summary += fmt.Sprintf(" (%s mode, %s ordering, %d supernodes, nnz(L)=%d, inertia %d+/%d-/%d0)",
				f.Mode(), f.Ordering(), f.Supernodes(), f.NNZL(), pos, neg, zero)
		}
		return x, summary, nil
	case "cg":
		x, st, err := iterative.CG(sys.A, sys.B, iterative.Config{MaxIterations: o.maxIter, Tol: o.tol})
		return x, iterSummary(st), err
	case "pcg":
		m, err := iterative.NewJacobiPreconditioner(sys.A)
		if err != nil {
			return nil, "", err
		}
		x, st, err := iterative.PCG(sys.A, sys.B, m, iterative.Config{MaxIterations: o.maxIter, Tol: o.tol})
		return x, iterSummary(st), err
	case "jacobi":
		x, st, err := iterative.Jacobi(sys.A, sys.B, 1, iterative.Config{MaxIterations: o.maxIter, Tol: o.tol})
		return x, iterSummary(st), err
	case "gauss-seidel":
		x, st, err := iterative.GaussSeidel(sys.A, sys.B, iterative.Config{MaxIterations: o.maxIter, Tol: o.tol})
		return x, iterSummary(st), err
	case "sor":
		x, st, err := iterative.SOR(sys.A, sys.B, 1.5, iterative.Config{MaxIterations: o.maxIter, Tol: o.tol})
		return x, iterSummary(st), err
	case "block-jacobi":
		if err := checkParts(o, sys.Dim()); err != nil {
			return nil, "", err
		}
		assign := partition.Strips(sys.Dim(), o.parts)
		x, st, err := iterative.BlockJacobi(sys.A, sys.B, assign, iterative.Config{MaxIterations: o.maxIter, Tol: o.tol, Factor: o.fs})
		return x, iterSummary(st), err
	case "async-jacobi":
		topo, err := machine(o)
		if err != nil {
			return nil, "", err
		}
		if err := checkParts(o, sys.Dim()); err != nil {
			return nil, "", err
		}
		assign := partition.Strips(sys.Dim(), o.parts)
		res, err := iterative.AsyncBlockJacobi(sys.A, sys.B, assign, topo, iterative.AsyncOptions{MaxTime: o.maxTime, Tol: o.tol, Factor: o.fs})
		if err != nil {
			return nil, "", err
		}
		return res.X, fmt.Sprintf("converged=%v at t=%.0f, %d local solves, %d messages",
			res.Converged, res.FinalTime, res.Solves, res.Messages), nil
	default:
		return nil, "", fmt.Errorf("unknown method %q", o.method)
	}
}

func iterSummary(st iterative.Stats) string {
	res := st.Residual
	if math.IsNaN(res) {
		res = 0
	}
	return fmt.Sprintf("converged=%v after %d iterations, relative residual %.3g", st.Converged, st.Iterations, res)
}

package repro

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/topology"
)

// The paper's 4-unknown running example (equation (3.2)) solved with the
// Directed Transmission Method on the two-processor machine of Example 5.1,
// checked against a direct solve. The output holds only what no platform's
// rounding can move: the theorem's verdict, convergence, and the error under
// its bound.
func Example_quickstart() {
	// The electric graph of the paper's system (3.2):
	//
	//   [  5 -1 -1  0 ] [x1]   [1]
	//   [ -1  6 -2 -1 ] [x2]   [2]
	//   [ -1 -2  7 -2 ] [x3] = [3]
	//   [  0 -1 -2  8 ] [x4]   [4]
	sys := sparse.PaperExample()
	fmt.Printf("system %q: n=%d, nnz=%d\n", sys.Name, sys.Dim(), sys.A.NNZ())

	// The machine of Example 5.1: two processors, 6.7 µs from A to B and
	// 2.9 µs from B to A — an asymmetry DTM maps one-to-one onto the
	// propagation delays of its directed transmission lines. AutoProblem
	// splits the electric graph into two subgraphs by Electric Vertex
	// Splitting and maps each onto one processor.
	prob, err := core.AutoProblem(sys, 2, topology.TwoProcessorPaper())
	if err != nil {
		log.Fatal(err)
	}

	// The hypotheses of the convergence theorem: the original system is SPD,
	// at least one subgraph is SPD and the others are symmetric non-negative
	// definite. Any positive impedances and delays then converge.
	fmt.Println(core.CheckTheorem(prob))

	// DTM on the deterministic discrete-event engine, until the twin
	// potentials agree to 1e-10.
	res, err := core.Solve(context.Background(), prob, core.Config{
		CommonOptions: core.CommonOptions{Tol: 1e-10},
		MaxTime:       500, // microseconds of virtual time
	})
	if err != nil {
		log.Fatal(err)
	}
	exact, err := dense.SolveExact(sys.A, sys.B)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged=%v, max |x - x*| below 1e-9: %v\n", res.Converged, res.X.MaxAbsDiff(exact) < 1e-9)
	// Output:
	// system "paper-example-4": n=4, nnz=14
	// Theorem 6.1 satisfied: original SPD=true, subgraphs: 2 SPD, 0 SNND, 0 indefinite
	// converged=true, max |x - x*| below 1e-9: true
}

// A resistor network's nodal equations G·v = i solved with DTM. The electric
// graph of the paper is the circuit — vertex weights the diagonal
// conductances, edge weights the negated branch conductances, sources the
// injected currents — and EVS is the "wire tearing" used to partition large
// circuits.
func Example_circuit() {
	// A 24×24 resistor grid: conductances on the grid edges, a grounding
	// conductance at every node, and current sources. Its conductance matrix
	// is SPD, as every well-posed resistive circuit's is.
	sys := sparse.ResistorNetwork(24, 24, 7)
	fmt.Printf("circuit %q: %d nodes\n", sys.Name, sys.Dim())

	// Tear the circuit into four subcircuits with the level-set partitioner
	// and EVS's default dominance-proportional splitting, one subcircuit per
	// processor of a uniform machine.
	g, err := graph.FromSystem(sys.A, sys.B)
	if err != nil {
		log.Fatal(err)
	}
	assign := partition.LevelSetGrow(g, 4)
	tear, err := partition.EVS(g, assign, partition.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("subcircuits of %v nodes, joined by %d twin links\n", assign.PartSizes(), len(tear.Links))
	prob, err := core.NewProblem(sys, tear, topology.Uniform(4, 10, "4-processor cluster"), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(core.CheckTheorem(prob))

	res, err := core.Solve(context.Background(), prob, core.Config{
		CommonOptions: core.CommonOptions{Tol: 1e-10},
		MaxTime:       50000,
	})
	if err != nil {
		log.Fatal(err)
	}
	exact, err := dense.SolveExact(sys.A, sys.B)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged=%v, max node-potential error below 1e-8: %v\n", res.Converged, res.X.MaxAbsDiff(exact) < 1e-8)
	// Output:
	// circuit "resistor-24x24-seed7": 576 nodes
	// subcircuits of [144 144 144 144] nodes, joined by 59 twin links
	// Theorem 6.1 satisfied: original SPD=true, subgraphs: 4 SPD, 0 SNND, 0 indefinite
	// converged=true, max node-potential error below 1e-8: true
}

// Livenetwork: run DTM with genuine asynchrony — one goroutine per subdomain,
// real (scaled) communication delays, no synchronisation of any kind — instead
// of the deterministic discrete-event simulator. Every run interleaves
// differently, yet by Theorem 6.1 every run converges to the same solution;
// this example runs the live engine several times and shows exactly that.
//
// Run with:
//
//	go run ./examples/livenetwork
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/iterative"
	"repro/internal/sparse"
	"repro/internal/topology"
)

func main() {
	nx := flag.Int("nx", 33, "grid side length")
	parts := flag.Int("px", 4, "processor mesh side (px*px goroutines)")
	runs := flag.Int("runs", 3, "number of independent live runs")
	flag.Parse()

	sys := sparse.Poisson2D(*nx, *nx, 0.05)
	exact, st, err := iterative.CG(sys.A, sys.B, iterative.Config{MaxIterations: 20 * sys.Dim(), Tol: 1e-13})
	if err != nil || !st.Converged {
		log.Fatalf("reference CG failed: %v (converged=%v)", err, st.Converged)
	}

	// The same heterogeneous delay structure as the paper's 4×4 mesh, but the
	// delays are now mapped onto real wall-clock sleeps (1 ms unit → 20 µs of
	// real time), so a 99 ms link really is ten times slower than a 10 ms one.
	machine := topology.Mesh4x4Paper()
	if *parts != 4 {
		machine = topology.MeshUniformRandom(*parts, *parts, 10, 99, 42, "heterogeneous mesh")
	}
	prob, err := core.GridProblem(sys, *nx, *nx, *parts, *parts, machine)
	if err != nil {
		log.Fatalf("building the DTM problem: %v", err)
	}

	fmt.Printf("system %q (n=%d) on %q — %d subdomains, one goroutine each\n", sys.Name, sys.Dim(), machine.Name(), *parts**parts)
	fmt.Println(core.CheckTheorem(prob, 1e-9, 400))
	fmt.Println()

	for run := 1; run <= *runs; run++ {
		res, err := core.Solve(context.Background(), prob, core.Config{
			CommonOptions: core.CommonOptions{
				Tol:         1e-9,
				Exact:       exact,
				RecordTrace: true,
				MaxWallTime: 5 * time.Second,
			},
			Engine:    core.EngineLive,
			TimeScale: 20 * time.Microsecond,
		})
		if err != nil {
			log.Fatalf("live run %d: %v", run, err)
		}
		fmt.Printf("run %d: converged=%v in %.2f s wall time, %6d local solves, %7d messages, RMS error %.3g, residual %.3g\n",
			run, res.Converged, res.FinalTime, res.Solves, res.Messages, res.RMSError, res.Residual)
	}

	// One more run on a lossy network: every channel drops 10% of its packets
	// and jitters the rest, and the run still lands on the same answer — the
	// self-stabilisation claim, live.
	res, err := core.Solve(context.Background(), prob, core.Config{
		CommonOptions: core.CommonOptions{
			Tol:         1e-9,
			Exact:       exact,
			Faults:      &chaos.Spec{Seed: 7, Drop: 0.10, Jitter: 0.5},
			MaxWallTime: 10 * time.Second,
		},
		Engine:    core.EngineLive,
		TimeScale: 20 * time.Microsecond,
	})
	if err != nil {
		log.Fatalf("lossy live run: %v", err)
	}
	fmt.Printf("lossy: converged=%v in %.2f s wall time, %6d local solves, %7d messages, RMS error %.3g (%d dropped, %d retransmissions)\n",
		res.Converged, res.FinalTime, res.Solves, res.Messages, res.RMSError, res.Faults.Dropped, res.Faults.Retransmissions)

	fmt.Println("\nthe solve counts differ from run to run (the interleaving is real), the answer does not — that is the convergence theorem at work")
}

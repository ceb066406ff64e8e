package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/factor"
	"repro/internal/sparse"
)

// SolveThroughputParams configures the E8 solve-throughput experiment: the
// factor-once/solve-many regime the DTM engines and the block-Jacobi
// preconditioner live in, measured explicitly. One factorisation per system
// serves batched multi-RHS panel solves at growing widths against the same
// number of scalar sweeps, and N concurrent goroutines solving batches on that
// one shared factor handle at once — the throughput a reentrant factor buys.
type SolveThroughputParams struct {
	// GridSide is the Poisson grid side (GridSide² unknowns, the SPD leg).
	GridSide int
	// SaddleSide sizes the symmetric quasi-definite leg (LDLᵀ mode).
	SaddleSide int
	// Ks are the batch widths to measure (1 reports the scalar baseline only).
	Ks []int
	// Conc are the concurrent-client counts of the shared-factor leg.
	Conc []int
	// Repeats is how many times each timed measurement is repeated; the best
	// (minimum) time is reported, the standard practice for throughput
	// micro-measurements under scheduler noise.
	Repeats int
}

// solveThroughputParams measures the 128² grid (the acceptance system) and a
// saddle system of the same scale. Quick keeps the 128² grid — the
// batched-vs-scalar contrast E8 exists to demonstrate needs a factor whose
// panels are wide enough to feed the blocked kernels — but trims the repeat
// count and the saddle leg.
func solveThroughputParams(quick bool) SolveThroughputParams {
	p := SolveThroughputParams{
		GridSide:   128,
		SaddleSide: 128,
		Ks:         []int{1, 8, 64},
		Conc:       []int{1, 4},
		Repeats:    5,
	}
	if quick {
		p.SaddleSide, p.Repeats = 64, 2
	}
	return p
}

// SolveThroughputBatchRow is one batch-width measurement on one system.
type SolveThroughputBatchRow struct {
	K            int
	ScalarMS     float64 // k sequential SolveTo sweeps
	BatchMS      float64 // one SolveBatchTo panel sweep
	ScalarPerSec float64 // RHS solved per second, scalar
	BatchPerSec  float64 // RHS solved per second, batched
	Speedup      float64 // ScalarMS / BatchMS
}

// SolveThroughputConcRow is one concurrency measurement: Clients goroutines
// each solving Batches batches of width K against the one shared factor.
type SolveThroughputConcRow struct {
	Clients int
	K       int
	Batches int
	WallMS  float64
	PerSec  float64 // aggregate RHS/sec across all clients
	Agree   bool    // every client's solutions equal the sequential solve, bit for bit
}

// SolveThroughputSystem is the E8 measurement on one system.
type SolveThroughputSystem struct {
	Name     string
	N, NNZL  int
	Backend  string
	FactorMS float64

	Batch []SolveThroughputBatchRow
	Conc  []SolveThroughputConcRow
}

// SolveThroughputResult is the E8 artifact.
type SolveThroughputResult struct {
	Systems []SolveThroughputSystem
}

// bestOf runs f repeats times and returns the minimum duration in ms.
func bestOf(repeats int, f func()) float64 {
	best := math.MaxFloat64
	for i := 0; i < max(repeats, 1); i++ {
		start := time.Now()
		f()
		if ms := float64(time.Since(start).Microseconds()) / 1000; ms < best {
			best = ms
		}
	}
	return best
}

// SolveThroughput runs E8.
func SolveThroughput(p SolveThroughputParams) (*SolveThroughputResult, error) {
	out := &SolveThroughputResult{}
	systems := []sparse.System{sparse.Poisson2D(p.GridSide, p.GridSide, 0.05)}
	if p.SaddleSide > 0 {
		systems = append(systems, sparse.SaddlePoisson2D(p.SaddleSide, p.SaddleSide, 1e-2))
	}
	for _, sys := range systems {
		n := sys.Dim()
		row := SolveThroughputSystem{Name: sys.Name, N: n}

		start := time.Now()
		sol, err := factor.New(factor.SparseSupernodal, sys.A)
		if err != nil {
			return nil, fmt.Errorf("experiments: factorising %s (n=%d): %w", sys.Name, n, err)
		}
		row.FactorMS = float64(time.Since(start).Microseconds()) / 1000
		row.Backend = sol.Backend()
		sn, ok := sol.(*factor.Supernodal)
		if !ok {
			return nil, fmt.Errorf("experiments: expected a supernodal factor for %s, got %T", sys.Name, sol)
		}
		row.NNZL = sn.NNZL()

		// Batched vs scalar: k right-hand sides as k sweeps vs one panel.
		B := make([]sparse.Vec, slices.Max(p.Ks))
		X := make([]sparse.Vec, len(B))
		for r := range B {
			B[r] = sparse.RandomVec(n, int64(17*r+3))
			X[r] = sparse.NewVec(n)
		}
		for _, k := range p.Ks {
			br := SolveThroughputBatchRow{K: k}
			br.ScalarMS = bestOf(p.Repeats, func() {
				for r := 0; r < k; r++ {
					sn.SolveTo(X[r], B[r])
				}
			})
			br.BatchMS = bestOf(p.Repeats, func() {
				sn.SolveBatchTo(X[:k], B[:k])
			})
			if br.ScalarMS > 0 {
				br.ScalarPerSec = float64(k) / (br.ScalarMS / 1000)
			}
			if br.BatchMS > 0 {
				br.BatchPerSec = float64(k) / (br.BatchMS / 1000)
				br.Speedup = br.ScalarMS / br.BatchMS
			}
			row.Batch = append(row.Batch, br)
		}

		// Concurrent clients on the one factor handle, each streaming batched
		// solves; every client's last batch is checked against the sequential
		// solve.
		const batchesPerClient = 4
		ck := 8 // a mid-width batch per request, the service sweet spot
		want := make([]sparse.Vec, ck)
		for r := range want {
			want[r] = factor.Solve(sn, B[r])
		}
		for _, clients := range p.Conc {
			cr := SolveThroughputConcRow{Clients: clients, K: ck, Batches: batchesPerClient}
			var diverged atomic.Bool
			cr.WallMS = bestOf(p.Repeats, func() {
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						Xc := make([]sparse.Vec, ck)
						for r := range Xc {
							Xc[r] = sparse.NewVec(n)
						}
						for it := 0; it < batchesPerClient; it++ {
							factor.SolveBatch(sn, Xc, B[:ck])
						}
						for r := range Xc {
							for i, v := range Xc[r] {
								if math.Float64bits(v) != math.Float64bits(want[r][i]) {
									diverged.Store(true)
								}
							}
						}
					}()
				}
				wg.Wait()
			})
			cr.Agree = !diverged.Load()
			if cr.WallMS > 0 {
				cr.PerSec = float64(clients*batchesPerClient*ck) / (cr.WallMS / 1000)
			}
			row.Conc = append(row.Conc, cr)
		}
		out.Systems = append(out.Systems, row)
	}
	return out, nil
}

// Render implements Renderer.
func (r *SolveThroughputResult) Render(w io.Writer) error {
	fmt.Fprintln(w, "E8 — solve-throughput: batched multi-RHS panels and concurrent clients on one factor")
	for _, s := range r.Systems {
		fmt.Fprintf(w, "\n%s: n=%d, %s, nnz(L)=%d, factor %.1fms (once)\n",
			s.Name, s.N, s.Backend, s.NNZL, s.FactorMS)
		fmt.Fprintf(w, "  %6s %12s %12s %14s %14s %9s\n", "k", "scalar", "batched", "scalar/s", "batched/s", "speedup")
		for _, b := range s.Batch {
			fmt.Fprintf(w, "  %6d %10.3fms %10.3fms %14.0f %14.0f %8.2fx\n",
				b.K, b.ScalarMS, b.BatchMS, b.ScalarPerSec, b.BatchPerSec, b.Speedup)
		}
		for _, c := range s.Conc {
			agree := "bytes equal the sequential solve"
			if !c.Agree {
				agree = "DIVERGED from the sequential solve"
			}
			fmt.Fprintf(w, "  %d client(s) × %d batches of k=%d on the shared factor: %.3fms wall, %.0f solves/s (%s)\n",
				c.Clients, c.Batches, c.K, c.WallMS, c.PerSec, agree)
		}
	}
	return nil
}

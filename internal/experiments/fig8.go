package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dtl"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/topology"
)

// PaperProblem builds the running example of the paper end to end: the
// 4-unknown system (3.2), torn at V2 and V3 with the exact splits of Example
// 4.1 (so the two subsystems are exactly (4.1) and (4.2)), mapped onto the
// two-processor machine of Example 5.1 whose delays are 6.7 µs from processor
// A to B and 2.9 µs from B to A. The returned impedance strategy reproduces
// Z₂ = 0.2 and Z₃ = 0.1.
func PaperProblem() (*core.Problem, dtl.ImpedanceStrategy, sparse.Vec, error) {
	sys := sparse.PaperExample()
	g, err := graph.FromSystem(sys.A, sys.B)
	if err != nil {
		return nil, nil, nil, err
	}
	assign := partition.Assignment{Parts: 2, Assign: []int{0, 0, 1, 1}}
	opts := partition.Options{
		Boundary: []int{1, 2},
		VertexSplit: func(global int, parts []int, weight, source float64) ([]float64, []float64) {
			switch global {
			case 1:
				return []float64{2.5, 3.5}, []float64{0.8, 1.2}
			case 2:
				return []float64{3.3, 3.7}, []float64{1.6, 1.4}
			}
			// Unreachable for this fixed example; fall back to an even split.
			return []float64{weight / 2, weight / 2}, []float64{source / 2, source / 2}
		},
		EdgeSplit: func(u, v int, weight float64) (float64, float64) {
			if u == 1 && v == 2 {
				return -0.9, -1.1
			}
			return weight / 2, weight / 2
		},
	}
	res, err := partition.EVS(g, assign, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	prob, err := core.NewProblem(sys, res, topology.TwoProcessorPaper(), nil)
	if err != nil {
		return nil, nil, nil, err
	}
	exact, err := Reference(sys)
	if err != nil {
		return nil, nil, nil, err
	}
	strategy := dtl.PerVertex{Values: map[int]float64{1: 0.2, 2: 0.1}}
	return prob, strategy, exact, nil
}

// Fig8Params configures the Fig. 8 reproduction.
type Fig8Params struct {
	// MaxTime is the simulated horizon in microseconds.
	MaxTime float64
	// SamplePoints bounds the number of reported trace samples.
	SamplePoints int
}

// fig8Params is the paper's setting at either size: the example is run long
// enough for the potentials to settle (the paper plots roughly 100 µs).
func fig8Params(bool) Fig8Params { return Fig8Params{MaxTime: 150, SamplePoints: 40} }

// Fig8Result holds the reproduction of Fig. 8: the four twin-port potentials
// against virtual time, the RMS error trace, and the exact values they must
// converge to.
type Fig8Result struct {
	// Potentials holds one series per twin port: x2a, x2b, x3a, x3b.
	Potentials []metrics.Series
	// Error is the RMS error of the assembled solution against the exact one.
	Error metrics.Series
	// ExactX2 and ExactX3 are the exact potentials of V2 and V3.
	ExactX2, ExactX3 float64
	// Result is the run itself: final RMS error, solves, messages.
	*core.Result
}

// Fig8 reruns Example 5.1 on the discrete-event simulator and records the
// trajectories the paper plots in Fig. 8.
func Fig8(p Fig8Params) (*Fig8Result, error) {
	prob, strategy, exact, err := PaperProblem()
	if err != nil {
		return nil, err
	}
	out := &Fig8Result{
		Potentials: []metrics.Series{
			{Name: "x2a"}, {Name: "x2b"}, {Name: "x3a"}, {Name: "x3b"},
		},
		Error:   metrics.Series{Name: "rms-error"},
		ExactX2: exact[1],
		ExactX3: exact[2],
	}
	// Port layout of the paper tearing: in both parts, port 0 is the copy of
	// V2 (global 1) and port 1 the copy of V3 (global 2).
	observer := func(now float64, part int, local sparse.Vec) {
		switch part {
		case 0:
			out.Potentials[0].Append(now, local[0])
			out.Potentials[2].Append(now, local[1])
		case 1:
			out.Potentials[1].Append(now, local[0])
			out.Potentials[3].Append(now, local[1])
		}
	}
	out.Result, err = core.Solve(context.Background(), prob, core.Config{
		CommonOptions: core.CommonOptions{
			Impedance:   strategy,
			Exact:       exact,
			RecordTrace: true,
		},
		MaxTime:  p.MaxTime,
		Observer: observer,
	})
	if err != nil {
		return nil, err
	}
	for _, tp := range out.Trace {
		out.Error.Append(tp.Time, tp.RMSError)
	}
	for i := range out.Potentials {
		out.Potentials[i] = out.Potentials[i].Resample(p.SamplePoints)
	}
	out.Error = out.Error.Resample(p.SamplePoints)
	return out, nil
}

// Render implements Renderer.
func (r *Fig8Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Figure 8 — DTM on the 4-unknown example, 2 processors (delays 6.7/2.9 us)\n")
	fmt.Fprintf(w, "exact x2 = %.6f, exact x3 = %.6f\n", r.ExactX2, r.ExactX3)
	tbl := metrics.NewTable("twin-port potentials over virtual time (us)", "t", "x2a", "x2b", "x3a", "x3b", "rms-error")
	// Use the x2a sampling instants as the row grid.
	for _, pt := range r.Potentials[0].Points {
		t := pt.T
		tbl.AddRow(t, r.Potentials[0].At(t), r.Potentials[1].At(t), r.Potentials[2].At(t), r.Potentials[3].At(t), r.Error.At(t))
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "final RMS error %.3g after %d local solves and %d messages\n", r.RMSError, r.Solves, r.Messages)
	return err
}

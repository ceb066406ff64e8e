package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/metrics"
)

// MeshRunParams configures one mesh convergence experiment (Fig. 12 or 14).
type MeshRunParams struct {
	// Figure is the caption used when rendering.
	Figure string
	// Specs are the torn problems whose convergence curves are overlaid; the
	// paper's sparse SPD systems with n = 289, 1089 and 4225 unknowns are
	// 17², 33² and 65² random grid systems.
	Specs []dist.SpecV2
	// MaxTime is the virtual horizon in ms.
	MaxTime float64
	// StopOnError ends a run early once the RMS error reaches it.
	StopOnError float64
	// SamplePoints bounds the reported series length.
	SamplePoints int
}

// fig12Params reproduces Fig. 12: DTM on the 16-processor heterogeneous 4×4
// mesh, solving randomly generated grid-sparsity SPD systems with 289 and
// 1089 unknowns. Quick keeps the smaller one, to 1e-6.
func fig12Params(quick bool) MeshRunParams {
	p := MeshRunParams{
		Figure: "Figure 12 — DTM convergence on 16 processors (heterogeneous 4x4 mesh)",
		Specs: []dist.SpecV2{
			tornOnMesh("grid:rows=17,cols=17,seed=289", 4),
			tornOnMesh("grid:rows=33,cols=33,seed=1089", 4),
		},
		MaxTime:      6000,
		StopOnError:  1e-9,
		SamplePoints: 60,
	}
	if quick {
		p.Specs, p.MaxTime, p.StopOnError = p.Specs[:1], 2500, 1e-6
	}
	return p
}

// fig14Params reproduces Fig. 14: DTM on the 64-processor 8×8 mesh with
// U[10,100] ms delays, solving systems with 1089 and 4225 unknowns. Quick
// solves a 289-unknown one to 1e-5.
func fig14Params(quick bool) MeshRunParams {
	p := MeshRunParams{
		Figure: "Figure 14 — DTM convergence on 64 processors (8x8 mesh, U[10,100] ms delays)",
		Specs: []dist.SpecV2{
			tornOnMesh("grid:rows=33,cols=33,seed=1089", 8),
			tornOnMesh("grid:rows=65,cols=65,seed=4225", 8),
		},
		MaxTime:      8000,
		StopOnError:  1e-9,
		SamplePoints: 60,
	}
	if quick {
		p.Specs, p.MaxTime, p.StopOnError = []dist.SpecV2{tornOnMesh("grid:rows=17,cols=17,seed=17", 8)}, 2500, 1e-5
	}
	return p
}

// MeshRunCurve is the convergence record of one workload: the leg's outcome
// (labelled with the system's name), the Theorem 6.1 certificate of its
// problem, and the error trace resampled for printing.
type MeshRunCurve struct {
	outcome
	N       int
	Theorem string
	Error   metrics.Series
}

// MeshRunResult is the reproduction of Fig. 12 or Fig. 14.
type MeshRunResult struct {
	Figure string
	Curves []MeshRunCurve
}

// RunMesh executes a mesh convergence experiment (Figs. 12 and 14): one leg
// per spec, run until the RMS error against the reference reaches the target.
func RunMesh(p MeshRunParams) (*MeshRunResult, error) {
	out := &MeshRunResult{Figure: p.Figure}
	for _, spec := range p.Specs {
		s, err := build(spec)
		if err != nil {
			return nil, err
		}
		sys := s.prob.System
		outs, err := s.run(core.Config{
			CommonOptions: core.CommonOptions{Exact: s.exact, StopOnError: p.StopOnError, RecordTrace: true},
			MaxTime:       p.MaxTime,
		}, leg{label: sys.Name})
		if err != nil {
			return nil, err
		}
		curve := MeshRunCurve{
			outcome: outs[0],
			N:       sys.Dim(),
			Theorem: core.CheckTheorem(s.prob).String(),
			Error:   metrics.Series{Name: fmt.Sprintf("rms-error-n%d", sys.Dim())},
		}
		for _, tp := range curve.Trace {
			curve.Error.Append(tp.Time, tp.RMSError)
		}
		curve.Error = curve.Error.Resample(p.SamplePoints)
		out.Curves = append(out.Curves, curve)
	}
	return out, nil
}

// Render implements Renderer.
func (r *MeshRunResult) Render(w io.Writer) error {
	fmt.Fprintln(w, r.Figure)
	after := func(t float64) string {
		if math.IsNaN(t) {
			return "never"
		}
		return fmt.Sprintf("%.0f ms", t)
	}
	for _, c := range r.Curves {
		fmt.Fprintf(w, "\nsystem %s (n=%d): %s\n", c.label, c.N, c.Theorem)
		tbl := metrics.NewTable("RMS error vs virtual time (ms)", "t", "rms-error")
		for _, pt := range c.Error.Points {
			tbl.AddRow(pt.T, pt.V)
		}
		if err := tbl.Render(w); err != nil {
			return err
		}
		fmt.Fprintf(w, "final rms %.3g (residual %.3g) at t=%.0f ms, converged=%v, error<=1e-3 after %s, <=1e-6 after %s, %d solves, %d messages\n",
			c.RMSError, c.Residual, c.FinalTime, c.Converged, after(c.TimeToError(1e-3)), after(c.TimeToError(1e-6)), c.Solves, c.Messages)
	}
	return nil
}

package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/metrics"
)

// tornOnMesh is the set-up of the paper's Section 7: a grid source regularly
// torn p×p (level-one/level-two mixed EVS), block (bx, by) on processor
// bx + by·p of the p×p mesh of Fig. 11 (p = 4) or Fig. 13 (p = 8).
func tornOnMesh(source string, p int) dist.SpecV2 {
	return dist.SpecV2{V: 2, Source: source, PartsX: p, PartsY: p, Topology: fmt.Sprintf("mesh%dx%d", p, p)}
}

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

// DefaultFig12Params reproduces Fig. 12: DTM on the 16-processor heterogeneous
// 4×4 mesh, solving randomly generated grid-sparsity SPD systems with 289 and
// 1089 unknowns.
func DefaultFig12Params() MeshRunParams {
	return MeshRunParams{
		Figure: "Figure 12 — DTM convergence on 16 processors (heterogeneous 4x4 mesh)",
		Specs: []dist.SpecV2{
			tornOnMesh("grid:rows=17,cols=17,seed=289", 4),
			tornOnMesh("grid:rows=33,cols=33,seed=1089", 4),
		},
		MaxTime:      6000,
		StopOnError:  1e-9,
		SamplePoints: 60,
	}
}

// QuickFig12Params is a reduced version for tests and -short benchmarks.
func QuickFig12Params() MeshRunParams {
	p := DefaultFig12Params()
	p.Specs = p.Specs[:1]
	p.MaxTime = 2500
	p.StopOnError = 1e-6
	return p
}

// DefaultFig14Params reproduces Fig. 14: DTM on the 64-processor 8×8 mesh with
// U[10,100] ms delays, solving systems with 1089 and 4225 unknowns.
func DefaultFig14Params() MeshRunParams {
	return MeshRunParams{
		Figure: "Figure 14 — DTM convergence on 64 processors (8x8 mesh, U[10,100] ms delays)",
		Specs: []dist.SpecV2{
			tornOnMesh("grid:rows=33,cols=33,seed=1089", 8),
			tornOnMesh("grid:rows=65,cols=65,seed=4225", 8),
		},
		MaxTime:      8000,
		StopOnError:  1e-9,
		SamplePoints: 60,
	}
}

// QuickFig14Params is a reduced version for tests and -short benchmarks.
func QuickFig14Params() MeshRunParams {
	p := DefaultFig14Params()
	p.Specs = []dist.SpecV2{tornOnMesh("grid:rows=17,cols=17,seed=17", 8)}
	p.MaxTime = 2500
	p.StopOnError = 1e-5
	return p
}

// MeshRunCurve is the convergence record of one workload.
type MeshRunCurve struct {
	System    string
	N         int
	Error     metrics.Series
	FinalRMS  float64
	Residual  float64
	TimeTo1e3 float64
	TimeTo1e6 float64
	Solves    int
	Messages  int
	Theorem   string
	FinalTime float64
	Converged bool
}

// MeshRunResult is the reproduction of Fig. 12 or Fig. 14.
type MeshRunResult struct {
	Figure string
	Curves []MeshRunCurve
}

// RunMesh executes a mesh convergence experiment (Figs. 12 and 14).
func RunMesh(p MeshRunParams) (*MeshRunResult, error) {
	out := &MeshRunResult{Figure: p.Figure}
	for _, spec := range p.Specs {
		prob, err := spec.Build()
		if err != nil {
			return nil, err
		}
		sys := prob.System
		exact, err := Reference(sys)
		if err != nil {
			return nil, err
		}
		report := core.CheckTheorem(prob, 1e-8, 400)
		res, err := core.Solve(context.Background(), prob, core.Config{
			CommonOptions: core.CommonOptions{
				Exact:       exact,
				StopOnError: p.StopOnError,
				RecordTrace: true,
			},
			MaxTime: p.MaxTime,
		})
		if err != nil {
			return nil, err
		}
		curve := MeshRunCurve{
			System:    sys.Name,
			N:         sys.Dim(),
			Error:     metrics.Series{Name: fmt.Sprintf("rms-error-n%d", sys.Dim())},
			FinalRMS:  res.RMSError,
			Residual:  res.Residual,
			Solves:    res.Solves,
			Messages:  res.Messages,
			Theorem:   report.String(),
			FinalTime: res.FinalTime,
			Converged: res.Converged,
		}
		for _, tp := range res.Trace {
			curve.Error.Append(tp.Time, tp.RMSError)
		}
		curve.TimeTo1e3 = curve.Error.TimeTo(1e-3)
		curve.TimeTo1e6 = curve.Error.TimeTo(1e-6)
		curve.Error = curve.Error.Resample(p.SamplePoints)
		out.Curves = append(out.Curves, curve)
	}
	return out, nil
}

// Render implements Renderer.
func (r *MeshRunResult) Render(w io.Writer) error {
	fmt.Fprintln(w, r.Figure)
	for _, c := range r.Curves {
		fmt.Fprintf(w, "\nsystem %s (n=%d): %s\n", c.System, c.N, c.Theorem)
		tbl := metrics.NewTable("RMS error vs virtual time (ms)", "t", "rms-error")
		for _, pt := range c.Error.Points {
			tbl.AddRow(pt.T, pt.V)
		}
		if err := tbl.Render(w); err != nil {
			return err
		}
		t3 := "never"
		if !math.IsNaN(c.TimeTo1e3) {
			t3 = fmt.Sprintf("%.0f ms", c.TimeTo1e3)
		}
		t6 := "never"
		if !math.IsNaN(c.TimeTo1e6) {
			t6 = fmt.Sprintf("%.0f ms", c.TimeTo1e6)
		}
		fmt.Fprintf(w, "final rms %.3g (residual %.3g) at t=%.0f ms, converged=%v, error<=1e-3 after %s, <=1e-6 after %s, %d solves, %d messages\n",
			c.FinalRMS, c.Residual, c.FinalTime, c.Converged, t3, t6, c.Solves, c.Messages)
	}
	return nil
}

package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/dtl"
	"repro/internal/metrics"
)

// Fig9Params configures the impedance sweep of Fig. 9: the RMS error of the
// example after a fixed simulated time, as a function of the characteristic
// impedance of the DTLPs.
type Fig9Params struct {
	// SampleTime is the instant (µs) at which the error is read (the paper
	// uses t = 100 µs).
	SampleTime float64
	// Impedances is the sweep grid. Every DTLP uses the same value (the paper
	// scales Z₂ and Z₃ together; a single common value captures the same
	// U-shaped dependence).
	Impedances []float64
}

// fig9Params is a logarithmic sweep around the paper's values, four points a
// decade from 0.01 to 10; quick keeps the first five.
func fig9Params(quick bool) Fig9Params {
	var zs []float64
	for z := 0.01; z <= 10.001; z *= math.Pow(10, 0.25) {
		zs = append(zs, z)
	}
	if quick {
		zs = zs[:5]
	}
	return Fig9Params{SampleTime: 100, Impedances: zs}
}

// Fig9Result is the reproduction of Fig. 9.
type Fig9Result struct {
	// Curve maps characteristic impedance (T field) to RMS error at the
	// sampling instant (V field).
	Curve metrics.Series
	// BestZ is the impedance with the smallest error and BestError that error.
	BestZ, BestError float64
	// WorstError is the largest error over the sweep (to show the spread).
	WorstError float64
	SampleTime float64
}

// Fig9 sweeps the characteristic impedance of the DTLPs on the paper example
// and reads the RMS error at the sampling instant, reproducing the "choice of
// the characteristic impedance affects the convergence speed" figure.
func Fig9(p Fig9Params) (*Fig9Result, error) {
	if p.SampleTime <= 0 || len(p.Impedances) == 0 {
		return nil, fmt.Errorf("experiments: Fig9 needs a positive sample time and a non-empty sweep")
	}
	out := &Fig9Result{Curve: metrics.Series{Name: "rms-error@t"}, BestError: math.Inf(1), SampleTime: p.SampleTime}
	for _, z := range p.Impedances {
		prob, _, exact, err := PaperProblem()
		if err != nil {
			return nil, err
		}
		res, err := core.Solve(context.Background(), prob, core.Config{
			CommonOptions: core.CommonOptions{
				Impedance:   dtl.Constant{Z: z},
				Exact:       exact,
				RecordTrace: true,
			},
			MaxTime: p.SampleTime,
		})
		if err != nil {
			return nil, err
		}
		errAt, _ := res.ErrorAtTime(p.SampleTime)
		if math.IsNaN(errAt) {
			errAt = res.RMSError
		}
		out.Curve.Append(z, errAt)
		if errAt < out.BestError {
			out.BestError = errAt
			out.BestZ = z
		}
		if errAt > out.WorstError {
			out.WorstError = errAt
		}
	}
	return out, nil
}

// Render implements Renderer.
func (r *Fig9Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Figure 9 — RMS error of DTM at t = %g us as a function of the characteristic impedance\n", r.SampleTime)
	tbl := metrics.NewTable("", "Z", "rms-error")
	for _, p := range r.Curve.Points {
		tbl.AddRow(p.T, p.V)
	}
	if err := tbl.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "best impedance %.3g (error %.3g); worst error over the sweep %.3g\n", r.BestZ, r.BestError, r.WorstError)
	return err
}

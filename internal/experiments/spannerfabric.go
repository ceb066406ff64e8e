package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dist"
)

// This file is experiment E11 (DESIGN.md): DTM on irregular Yao-spanner
// fabrics and problems. The paper evaluates DTM on regular processor meshes
// and grid-sparsity systems; E11 asks what survives when both sides go
// irregular. The same problem-source/topology registry the distributed layer
// ships over the wire names every leg: {grid, spanner-Laplacian} problems ×
// {paper mesh, Yao geometric fabric}, all torn by the general level-set + EVS
// pipeline and solved to quiescence on the DES engine. Every leg is checked
// against the reference solution to 1e-6 in the max norm, and the per-problem
// fabric speedup (virtual convergence time on the mesh over the Yao fabric)
// plus message counts quantify what the distance-proportional spanner delays
// buy.

// SpannerFabricParams configures experiment E11.
type SpannerFabricParams struct {
	// Figure is the caption used when rendering.
	Figure string
	// Sources are the problem-source strings under comparison.
	Sources []string
	// Fabrics are the topology strings under comparison.
	Fabrics []string
	// Parts is the number of subdomains every leg tears into.
	Parts int
	// Tol is the quiescence tolerance.
	Tol float64
	// MaxTime is the virtual horizon.
	MaxTime float64
}

// spannerFabricParams is E11: at full size the 33² random grid and a 289-node
// Yao-spanner Laplacian, torn into 16 parts, on the paper's 4×4 heterogeneous
// mesh versus a 16-processor Yao fabric; quick, 17² and 100 nodes in 4 parts.
func spannerFabricParams(quick bool) SpannerFabricParams {
	p := SpannerFabricParams{
		Figure:  "E11 — DTM on spanner fabrics (grid and Yao-spanner problems, 16 parts)",
		Sources: []string{"grid:rows=33,cols=33,seed=1089", "spanner:n=289,k=6,seed=1,leak=0.05"},
		Fabrics: []string{"mesh4x4", "yao:n=16,k=6,seed=1108"},
		Parts:   16,
		Tol:     1e-9,
		MaxTime: 1e7,
	}
	if quick {
		p.Figure = "E11 — DTM on spanner fabrics (grid and Yao-spanner problems, 4 parts)"
		p.Sources = []string{"grid:rows=17,cols=17,seed=289", "spanner:n=100,k=6,seed=1,leak=0.05"}
		p.Fabrics, p.Parts = []string{"mesh4x4", "yao:n=4,k=3,seed=1108"}, 4
	}
	return p
}

// SpannerFabricLeg is one (problem, fabric) outcome.
type SpannerFabricLeg struct {
	outcome
	Source, Fabric string
}

// SpannerFabricResult is the outcome of experiment E11: Legs holds, source by
// source, one leg per fabric.
type SpannerFabricResult struct {
	Params SpannerFabricParams
	Legs   []SpannerFabricLeg
}

// SpannerFabric runs experiment E11. Each leg names its problem and machine
// with the same spec strings the distributed layer ships, tears with the
// general pipeline (core.AutoProblem via dist.SpecV2), and solves on the
// deterministic DES engine; the reference is solved once per source.
func SpannerFabric(p SpannerFabricParams) (*SpannerFabricResult, error) {
	if len(p.Sources) == 0 || len(p.Fabrics) == 0 || p.Parts < 1 {
		return nil, fmt.Errorf("experiments: E11 needs sources, fabrics and a positive part count")
	}
	out := &SpannerFabricResult{Params: p}
	for _, src := range p.Sources {
		var s setup
		for i, fabric := range p.Fabrics {
			spec := dist.SpecV2{V: 2, Source: src, NParts: p.Parts, Topology: fabric}
			var err error
			if i == 0 {
				s, err = build(spec)
			} else {
				s.prob, err = spec.Build()
			}
			if err != nil {
				return nil, fmt.Errorf("experiments: E11 %s on %s: %w", src, fabric, err)
			}
			outs, err := s.run(core.Config{CommonOptions: core.CommonOptions{Tol: p.Tol}, MaxTime: p.MaxTime},
				leg{label: src + " on " + fabric, bar: 1e-6})
			if err != nil {
				return nil, err
			}
			out.Legs = append(out.Legs, SpannerFabricLeg{outs[0], src, fabric})
		}
	}
	return out, nil
}

func (r *SpannerFabricResult) missed() error { return firstMiss(r.Legs) }

// Render prints the per-leg table and the per-problem fabric speedups: the
// ratio of virtual convergence times, first fabric over second — > 1 means
// the Yao fabric converged sooner.
func (r *SpannerFabricResult) Render(w io.Writer) error {
	fmt.Fprintln(w, r.Params.Figure)
	fmt.Fprintf(w, "tol %.0e, %d parts, agreement bar 1e-6 (max norm vs reference)\n\n", r.Params.Tol, r.Params.Parts)
	fmt.Fprintf(w, "%-36s  %-22s  %-9s  %12s  %8s  %9s  %-12s\n",
		"source", "fabric", "converged", "t_final", "solves", "messages", "max|dx|")
	for _, l := range r.Legs {
		fmt.Fprintf(w, "%-36s  %-22s  %-9v  %12.0f  %8d  %9d  %-12.3e  %s\n",
			l.Source, l.Fabric, l.Converged, l.FinalTime, l.Solves, l.Messages, l.diff, verdict(l.holds(l.Converged)))
	}
	if nf := len(r.Params.Fabrics); nf >= 2 {
		fmt.Fprintf(w, "\nfabric speedup (t_final %s / %s):\n", r.Params.Fabrics[0], r.Params.Fabrics[1])
		for i, src := range r.Params.Sources {
			if first, second := r.Legs[i*nf], r.Legs[i*nf+1]; second.FinalTime > 0 {
				fmt.Fprintf(w, "  %-36s  %.2fx\n", src, first.FinalTime/second.FinalTime)
			}
		}
	}
	return nil
}

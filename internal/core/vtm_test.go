package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/dense"
	"repro/internal/dtl"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/topology"
)

// schurOntoPorts eliminates the inner vertices of a torn subdomain: with the
// local matrix [C E; F D] ordered ports first, the ports see C − E·D⁻¹·F.
// That is the Aⱼ of the Appendix, which assumes every vertex is split.
func schurOntoPorts(t *testing.T, sub *partition.Subdomain) *dense.Matrix {
	t.Helper()
	idx := make([]int, sub.Dim())
	for i := range idx {
		idx[i] = i
	}
	ports, inner := idx[:sub.NumPorts], idx[sub.NumPorts:]
	s := dense.FromCSR(sub.A.Submatrix(ports, ports))
	if len(inner) == 0 {
		return s
	}
	lu, err := dense.NewLUCSR(sub.A.Submatrix(inner, inner))
	if err != nil {
		t.Fatalf("inner block of part %d: %v", sub.Part, err)
	}
	e, f := dense.FromCSR(sub.A.Submatrix(ports, inner)), sub.A.Submatrix(inner, ports)
	col := sparse.NewVec(len(inner))
	for j := range ports {
		for i := range col {
			col[i] = f.At(i, j)
		}
		for i, v := range e.MulVec(lu.Solve(col)) { // E·D⁻¹·F(:, j)
			s.Addf(i, j, -v)
		}
	}
	return s
}

// TestTheoryPredictsVTMContraction holds the Appendix checks' discrete-time
// conclusion to the engine it is about: on Example 4.1, for every impedance of
// a sweep along Fig. 9's axis, the spectral radius of the two-subdomain wave
// iteration built from the torn subdomains' port Schur complements must equal
// the per-sweep contraction of the RMS error that EngineVTM measures.
func TestTheoryPredictsVTMContraction(t *testing.T) {
	sys, tear := paperTearing(t)
	prob, err := NewProblem(sys, tear, topology.TwoProcessorPaper(), nil)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := dense.SolveExact(sys.A, sys.B)
	if err != nil {
		t.Fatal(err)
	}
	subs := prob.Partition.Subdomains
	for i, l := range prob.Partition.Links {
		if l.PortA != i || l.PortB != i {
			t.Fatalf("link %d joins ports %d and %d: the Appendix pairs port i with port i", i, l.PortA, l.PortB)
		}
	}
	a1, a2 := schurOntoPorts(t, subs[0]), schurOntoPorts(t, subs[1])
	rho := func(z float64) float64 {
		zs := sparse.NewVec(a1.Rows())
		zs.Fill(z)
		op, err := VTMIterationOperator(Split{A1: a1, A2: a2, Z: zs})
		if err != nil {
			t.Fatalf("Z = %g: %v", z, err)
		}
		return SpectralRadiusEstimate(op, 400)
	}

	// Sweeps 20 to 40 are past the transient. The error's floor is rounding,
	// near 1e-16, so the window ends early at the last sweep whose RMS error
	// is above 1e-12, and its span is kept even to average out the ±
	// eigenvalue pairs of the swap structure.
	const first, last, floor = 20, 40, 1e-12
	for _, z := range []float64{0.02, 0.05, 0.1, 0.2, 1, 2} {
		res, err := Solve(context.Background(), prob, Config{
			CommonOptions: CommonOptions{Impedance: dtl.Constant{Z: z}, Exact: exact, RecordTrace: true},
			Engine:        EngineVTM,
			MaxIterations: last,
		})
		if err != nil {
			t.Fatalf("Z = %g: %v", z, err)
		}
		tr := res.Trace
		if len(tr) != last || tr[last-1].Time != last {
			t.Fatalf("Z = %g: trace has %d points ending at sweep %g, want one per sweep up to %d", z, len(tr), tr[len(tr)-1].Time, last)
		}
		hi := last
		for hi > first && tr[hi-1].RMSError <= floor {
			hi--
		}
		hi -= (hi - first) % 2
		if hi-first < 4 {
			t.Fatalf("Z = %g: the RMS error is above %g for %d sweeps past sweep %d only; nothing to measure", z, floor, hi-first, first)
		}
		measured := math.Pow(tr[hi-1].RMSError/tr[first-1].RMSError, 1/float64(hi-first))
		if want := rho(z); math.Abs(measured-want) > 1e-3 {
			t.Errorf("Z = %g: VTM contracts by %.6f per sweep over sweeps %d–%d, theory's spectral radius is %.6f", z, measured, first, hi, want)
		} else {
			t.Logf("Z = %g: ρ = %.6f, measured %.6f over sweeps %d–%d", z, want, measured, first, hi)
		}
	}

	// Fig. 9's shape: the fastest impedance is an interior one.
	zs := []float64{0.02}
	for zs[len(zs)-1] < 2 {
		zs = append(zs, zs[len(zs)-1]*1.1)
	}
	rhos := make([]float64, len(zs))
	best := 0
	for i, z := range zs {
		if rhos[i] = rho(z); rhos[i] < rhos[best] {
			best = i
		}
	}
	if best == 0 || best == len(zs)-1 {
		t.Errorf("ρ is smallest at Z = %g, an end of the scanned range [%g, %g]", zs[best], zs[0], zs[len(zs)-1])
	}
	t.Logf("ρ-minimising Z ≈ %.3f (ρ = %.4f)", zs[best], rhos[best])
}

package core

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/factor"
	"repro/internal/sparse"
)

// Definiteness classifies a symmetric matrix.
type Definiteness int

// Definiteness classes, from Theorem 6.1's hypotheses.
const (
	// Indefinite means the smallest eigenvalue is at most -τ, or the matrix
	// is not square and symmetric within τ.
	Indefinite Definiteness = iota
	// SNND (symmetric non-negative definite) means the smallest eigenvalue
	// lies in (-τ, τ].
	SNND
	// SPD means the smallest eigenvalue is above τ.
	SPD
)

// String implements fmt.Stringer.
func (d Definiteness) String() string {
	switch d {
	case SPD:
		return "SPD"
	case SNND:
		return "SNND"
	default:
		return "indefinite"
	}
}

// TheoremReport is the outcome of checking a partition against the hypotheses
// of Theorem 6.1 (the convergence theorem): the original system must be SPD,
// at least one subgraph must be SPD, and every other subgraph must be
// symmetric non-negative definite. The characteristic impedances and the
// propagation delays may then be arbitrary positive values.
type TheoremReport struct {
	// Classes holds the definiteness class of each subgraph, indexed by part.
	Classes []Definiteness
	// NumSPD, NumSNND and NumIndefinite count the subgraphs per class.
	NumSPD, NumSNND, NumIndefinite int
	// OriginalSPD reports whether the original coefficient matrix is SPD.
	OriginalSPD bool
	// Satisfied reports whether all hypotheses hold.
	Satisfied bool
}

// String renders a one-line summary of the report.
func (r TheoremReport) String() string {
	status := "NOT satisfied"
	if r.Satisfied {
		status = "satisfied"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Theorem 6.1 %s: original SPD=%v, subgraphs: %d SPD, %d SNND, %d indefinite",
		status, r.OriginalSPD, r.NumSPD, r.NumSNND, r.NumIndefinite)
	return b.String()
}

// CheckTheorem certifies the convergence-theorem hypotheses for a problem. It
// classifies A and every subgraph's matrix exactly, at every size, with one
// tolerance τ = 1e-9·maxᵢ|aᵢᵢ| taken from A (see classify).
func CheckTheorem(p *Problem) TheoremReport {
	tau := theoremTol(p.System.A)
	res := p.Partition
	report := TheoremReport{Classes: make([]Definiteness, res.NumParts())}
	report.OriginalSPD = classify(p.System.A, tau) == SPD
	for i, sub := range res.Subdomains {
		c := classify(sub.A, tau)
		report.Classes[i] = c
		switch c {
		case SPD:
			report.NumSPD++
		case SNND:
			report.NumSNND++
		default:
			report.NumIndefinite++
		}
	}
	report.Satisfied = report.OriginalSPD && report.NumSPD >= 1 && report.NumIndefinite == 0
	return report
}

// theoremTol is CheckTheorem's tolerance for A: 1e-9 times its largest
// diagonal magnitude.
func theoremTol(a *sparse.CSR) float64 {
	var d float64
	for i := 0; i < a.Rows(); i++ {
		d = math.Max(d, math.Abs(a.At(i, i)))
	}
	return 1e-9 * d
}

// classify decides the class of a by Sylvester's law of inertia applied to a
// shift: a − τI has a Cholesky factor exactly when λ_min(a) > τ (SPD), and
// a + τI exactly when λ_min(a) > −τ (SNND); otherwise a is indefinite. A
// matrix that is not square and symmetric within τ is reported indefinite.
// Both shifts have a's off-diagonal pattern, so one analysis of a serves
// both attempts.
func classify(a *sparse.CSR, tau float64) Definiteness {
	if a.Rows() != a.Cols() || !a.IsSymmetric(tau) {
		return Indefinite
	}
	an, err := analyze(a, factor.OrderAuto)
	if err != nil {
		return Indefinite
	}
	switch {
	case factorises(an, a, -tau):
		return SPD
	case factorises(an, a, tau):
		return SNND
	default:
		return Indefinite
	}
}

// analyze is factor.Analyze; the test that classify orders each matrix once
// counts its calls.
var analyze = factor.Analyze

// factorises reports whether a + shift·I has a sparse Cholesky factor, on
// the analysis of a's pattern.
func factorises(an *factor.Analysis, a *sparse.CSR, shift float64) bool {
	d := sparse.NewVec(a.Rows())
	d.Fill(shift)
	_, err := an.NewSupernodal(a.AddDiag(d), factor.ModeCholesky)
	return err == nil
}

package core

import (
	"fmt"
	"strings"

	"repro/internal/spectral"
)

// TheoremReport is the outcome of checking a partition against the hypotheses
// of Theorem 6.1 (the convergence theorem): the original system must be SPD,
// at least one subgraph must be SPD, and every other subgraph must be
// symmetric non-negative definite. The characteristic impedances and the
// propagation delays may then be arbitrary positive values.
type TheoremReport struct {
	// Classes holds the definiteness class of each subgraph, indexed by part.
	Classes []spectral.Definiteness
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

// CheckTheorem certifies the convergence-theorem hypotheses for a problem.
// tol is the tolerance below which tiny negative eigenvalues are treated as
// zero (use something like 1e-9 times the matrix scale); denseLimit is the
// largest subgraph dimension for which an exact dense eigenvalue check is
// performed (larger subgraphs are classified with Gershgorin bounds and
// power-iteration estimates, which is conservative but approximate).
func CheckTheorem(p *Problem, tol float64, denseLimit int) TheoremReport {
	res := p.Partition
	report := TheoremReport{Classes: make([]spectral.Definiteness, res.NumParts())}
	report.OriginalSPD = spectral.Classify(p.System.A, tol, denseLimit) == spectral.SPD
	for i, sub := range res.Subdomains {
		c := spectral.Classify(sub.A, tol, denseLimit)
		report.Classes[i] = c
		switch c {
		case spectral.SPD:
			report.NumSPD++
		case spectral.SNND:
			report.NumSNND++
		default:
			report.NumIndefinite++
		}
	}
	report.Satisfied = report.OriginalSPD && report.NumSPD >= 1 && report.NumIndefinite == 0
	return report
}

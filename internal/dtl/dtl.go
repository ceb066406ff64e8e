// Package dtl chooses the characteristic impedances of the Directed
// Transmission Lines (DTL) of Section 2 of the paper. A DTL is an algorithmic
// (not physical) element that couples two ports through the directed
// transmission delay equation
//
//	U_out(t) + Z·I_out(t) = U_in(t-τ) − Z·I_in(t-τ)
//
// with a strictly positive characteristic impedance Z and a propagation delay
// τ from the input to the output; a DTL pair (DTLP) is two DTLs in opposite
// directions with the same impedance but possibly different delays — that
// asymmetry is what lets the algorithm's delays be mapped one-to-one onto the
// asymmetric communication delays of a real parallel machine
// (algorithm–architecture delay mapping). The equation itself lives where it
// is solved, in core.Subdomain (Solve and OutgoingWave), and the delays in
// topology; this package holds the one free parameter, Z: the selection
// strategies the engines and the Fig. 9 impedance sweep use, and Assign, which
// evaluates one on every twin link.
package dtl

import (
	"fmt"
	"math"

	"repro/internal/partition"
)

// ImpedanceStrategy chooses the characteristic impedance of the DTLP inserted
// on a given twin link. The choice affects the convergence speed (Fig. 9) but,
// by Theorem 6.1, never convergence itself as long as the value is positive.
type ImpedanceStrategy interface {
	// Impedance returns the characteristic impedance for the given link of the
	// given EVS result.
	Impedance(res *partition.Result, link partition.TwinLink) float64
	// Name identifies the strategy in experiment reports.
	Name() string
}

// Constant assigns the same impedance to every DTLP.
type Constant struct{ Z float64 }

// Impedance implements ImpedanceStrategy.
func (c Constant) Impedance(*partition.Result, partition.TwinLink) float64 { return c.Z }

// Name implements ImpedanceStrategy.
func (c Constant) Name() string { return fmt.Sprintf("constant(%g)", c.Z) }

// DiagScaled sets the impedance of the DTLP on split vertex v to
// Alpha / sqrt(w_A · w_B), where w_A and w_B are the split diagonal weights of
// the two copies. Matching the impedance to the local admittance level is the
// transmission-line analogue of impedance matching and is a good default.
type DiagScaled struct{ Alpha float64 }

// Impedance implements ImpedanceStrategy.
func (d DiagScaled) Impedance(res *partition.Result, link partition.TwinLink) float64 {
	alpha := d.Alpha
	if alpha <= 0 {
		alpha = 1
	}
	wa := res.Subdomains[link.PartA].A.At(link.PortA, link.PortA)
	wb := res.Subdomains[link.PartB].A.At(link.PortB, link.PortB)
	den := math.Sqrt(math.Abs(wa) * math.Abs(wb))
	if den <= 0 {
		return alpha
	}
	return alpha / den
}

// Name implements ImpedanceStrategy.
func (d DiagScaled) Name() string { return fmt.Sprintf("diag-scaled(%g)", d.Alpha) }

// PerVertex assigns explicit impedances by the global id of the split vertex,
// falling back to Default. It reproduces the paper's Example 5.1 exactly
// (Z=0.2 between V2a/V2b and Z=0.1 between V3a/V3b).
type PerVertex struct {
	Values  map[int]float64
	Default float64
}

// Impedance implements ImpedanceStrategy.
func (p PerVertex) Impedance(_ *partition.Result, link partition.TwinLink) float64 {
	if z, ok := p.Values[link.Global]; ok {
		return z
	}
	if p.Default > 0 {
		return p.Default
	}
	return 1
}

// Name implements ImpedanceStrategy.
func (p PerVertex) Name() string { return "per-vertex" }

// Assign evaluates the strategy on every link of an EVS result and returns the
// impedance per link ID, validating positivity. s must be non-nil: the
// default strategy is core's (Problem.Impedances).
func Assign(res *partition.Result, s ImpedanceStrategy) ([]float64, error) {
	zs := make([]float64, len(res.Links))
	for i, l := range res.Links {
		z := s.Impedance(res, l)
		if !(z > 0) || math.IsNaN(z) || math.IsInf(z, 0) {
			return nil, fmt.Errorf("dtl: strategy %s produced non-positive impedance %g for link %d (vertex %d)", s.Name(), z, l.ID, l.Global)
		}
		zs[i] = z
	}
	return zs, nil
}

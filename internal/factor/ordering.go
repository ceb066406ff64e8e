package factor

import (
	"fmt"

	"repro/internal/sparse"
)

// Ordering selects the fill-reducing ordering of the sparse factorisations.
type Ordering int

const (
	// OrderAuto picks per matrix: a nested-dissection or RCM ordering when
	// the pattern looks like a bounded-degree grid stencil (ND for large
	// blocks, RCM for small ones), AMD otherwise. It is the zero value, so a
	// zero Settings factorises under the policy the auto backend applies to
	// every block it factorises sparsely.
	OrderAuto Ordering = iota
	// OrderNatural factorises the matrix as given.
	OrderNatural
	// OrderRCM applies the reverse Cuthill–McKee ordering first; on the grid
	// Laplacians DTM tears apart this keeps the factor banded, so nnz(L) is
	// O(n·bandwidth) instead of the O(n²) a bad ordering can fill in to.
	OrderRCM
	// OrderAMD applies the approximate-minimum-degree ordering, which wins on
	// irregular patterns (EVS subgraphs with split twin vertices, saddle-point
	// couplings, random sparsity) where a breadth-first band is a poor model
	// of the elimination fill.
	OrderAMD
	// OrderND applies nested dissection: recursive vertex separators numbered
	// last, AMD on the leaf subgraphs. On large grid stencils it cuts both
	// fill and flops far below RCM's banded profile.
	OrderND
)

// String returns the ordering's short name as used in reports and tests.
func (o Ordering) String() string {
	switch o {
	case OrderNatural:
		return "natural"
	case OrderRCM:
		return "rcm"
	case OrderAMD:
		return "amd"
	case OrderND:
		return "nd"
	case OrderAuto:
		return "auto"
	default:
		return "unknown"
	}
}

// ParseOrdering maps an ordering's short name (as printed by String) back to
// the Ordering — the CLI flag parser.
func ParseOrdering(name string) (Ordering, error) {
	switch name {
	case "natural":
		return OrderNatural, nil
	case "rcm":
		return OrderRCM, nil
	case "amd":
		return OrderAMD, nil
	case "nd":
		return OrderND, nil
	case "auto":
		return OrderAuto, nil
	default:
		return 0, fmt.Errorf("factor: unknown ordering %q (have natural, rcm, amd, nd, auto)", name)
	}
}

// OrderAuto policy thresholds. The 5-point and 7-point stencils of the grid
// workloads have off-diagonal degree at most 4 and 6, so a pattern whose
// maximum off-diagonal degree stays at or below autoOrderMaxGridDegree is
// treated as banded/grid-like; anything with a higher-degree row (twin-split
// EVS boundaries, saddle couplings, random irregular graphs) goes to AMD.
// Grid-like patterns of autoOrderNDMinDim unknowns and up are ordered by
// nested dissection — below that RCM's tighter banded profile wins, above it
// ND's separator fill dominates.
const (
	autoOrderMaxGridDegree = 8
	autoOrderNDMinDim      = 4096
)

// resolveOrdering maps OrderAuto to a concrete ordering for the given matrix;
// concrete orderings pass through unchanged. Only off-diagonal entries count
// towards the stencil degree bound — the diagonal is always present on the
// blocks the backends factorise and says nothing about the graph structure.
func resolveOrdering(a *sparse.CSR, order Ordering) Ordering {
	if order != OrderAuto {
		return order
	}
	n := a.Rows()
	for i := 0; i < n; i++ {
		cols, _ := a.RowView(i)
		deg := 0
		for _, j := range cols {
			if j != i {
				deg++
			}
		}
		if deg > autoOrderMaxGridDegree {
			return OrderAMD
		}
	}
	if n >= autoOrderNDMinDim {
		return OrderND
	}
	return OrderRCM
}

// fillReducing computes the permutation of the resolved ordering (nil for the
// natural order or when the computed ordering is the identity).
func fillReducing(a *sparse.CSR, order Ordering) Perm {
	var p Perm
	switch order {
	case OrderRCM:
		p = RCM(a)
	case OrderAMD:
		p = AMD(a)
	case OrderND:
		p = ND(a)
	default:
		return nil
	}
	if p.IsIdentity() {
		return nil
	}
	return p
}

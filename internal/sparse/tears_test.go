package sparse_test

import (
	"testing"

	"repro/internal/dtl"
	"repro/internal/factor"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// TestSetupStagesOnGatedTears feeds the rewritten set-up stages the matrices
// the three gated benchmark problems hand them — the source matrix, every
// part of its tear, every part's eq. (5.9) matrix A_p + Z⁻¹ under the default
// impedances, and that matrix under the AMD, RCM and ND orderings — and
// checks each output against the oracle it replaced, byte for byte.
func TestSetupStagesOnGatedTears(t *testing.T) {
	for _, tc := range []struct {
		name, source string
		px, py       int // a regular block tearing of a grid source, or
		nparts       int // LevelSetGrow
	}{
		{"ring9-grid13", "grid:rows=13,cols=13,seed=169", 3, 3, 0},
		{"bigblock-grid65", "grid:rows=65,cols=65,seed=7", 2, 2, 0},
		{"spanner-lsg4", "spanner:n=1000,k=6,seed=1", 0, 0, 4},
	} {
		src, err := sparse.ParseSource(tc.source)
		if err != nil {
			t.Fatal(err)
		}
		sys, hint, err := src.Build()
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.FromSystem(sys.A, sys.B)
		if err != nil {
			t.Fatal(err)
		}
		var a partition.Assignment
		if tc.nparts > 0 {
			a = partition.LevelSetGrow(g, tc.nparts)
		} else {
			a = partition.GridBlocks(hint.NX, hint.NY, tc.px, tc.py)
		}
		r, err := partition.EVS(g, a, partition.Options{})
		if err != nil {
			t.Fatal(err)
		}
		zs, err := dtl.Assign(r, dtl.DiagScaled{Alpha: 1})
		if err != nil {
			t.Fatal(err)
		}
		symmetric := func(what string, m *sparse.CSR) {
			for _, tol := range []float64{0, 1e-9 * (1 + m.MaxAbs())} {
				if got, want := m.IsSymmetric(tol), sparse.IsSymmetricOracle(m, tol); got != want {
					t.Errorf("%s: %s: IsSymmetric(%g) = %v, the At-based check says %v", tc.name, what, tol, got, want)
				}
			}
		}
		symmetric("source", sys.A)
		for p, sub := range r.Subdomains {
			d := sparse.NewVec(sub.Dim())
			for _, l := range r.LinksOfPart(p) {
				port := l.PortB
				if l.PartA == p {
					port = l.PortA
				}
				d[port] += 1 / zs[l.ID]
			}
			local := sub.A.AddDiag(d)
			if diff := sparse.DiffBits(local, sparse.AddDiagOracle(sub.A, d)); diff != "" {
				t.Errorf("%s part %d: AddDiag: %s", tc.name, p, diff)
			}
			symmetric("tear", sub.A)
			symmetric("A_p + Z⁻¹", local)
			for name, perm := range map[string]factor.Perm{"AMD": factor.AMD(local), "RCM": factor.RCM(local), "ND": factor.ND(local)} {
				if diff := sparse.DiffBits(local.PermuteSym(perm), sparse.PermuteSymOracle(local, perm)); diff != "" {
					t.Errorf("%s part %d: PermuteSym under %s: %s", tc.name, p, name, diff)
				}
			}
		}
	}
}

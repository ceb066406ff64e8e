package partition

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/sparse"
)

// assembleCOO is the oracle of EVS's part matrices: the COO assembly EVS used
// before it filled each part's rows directly. It replays, from the finished
// tear, every Add EVS makes — each edge (or edge share) at both ends in
// ascending (U, V) order, then the split copies' weights, then the whole
// vertices' — into one COO per part and compiles them.
func assembleCOO(g *graph.Electric, r *Result, opts Options) []*sparse.CSR {
	assign := r.Assign.Assign
	split := map[int]bool{}
	for _, sv := range r.Splits {
		split[sv.Global] = true
	}
	local := make([]map[int]int, len(r.Subdomains)) // part → global → local
	coos := make([]*sparse.COO, len(r.Subdomains))
	for p, sub := range r.Subdomains {
		local[p] = map[int]int{}
		for li, v := range sub.GlobalIdx {
			local[p][v] = li
		}
		coos[p] = sparse.NewCOO(sub.Dim(), sub.Dim())
	}
	add := func(p int, e graph.Edge, w float64) {
		coos[p].AddSym(local[p][e.U], local[p][e.V], w)
	}
	for e := range g.Edges() {
		pu, pv := assign[e.U], assign[e.V]
		su, sv := split[e.U], split[e.V]
		switch {
		case su != sv:
			home := pu
			if su {
				home = pv
			}
			add(home, e, e.Weight)
		case pu == pv:
			add(pu, e, e.Weight)
		default:
			wu, wv := e.Weight/2, e.Weight/2
			if opts.EdgeSplit != nil {
				wu, wv = opts.EdgeSplit(e.U, e.V, e.Weight)
			}
			add(pu, e, wu)
			add(pv, e, wv)
		}
	}
	for _, sv := range r.Splits {
		for k, p := range sv.Parts {
			li := local[p][sv.Global]
			coos[p].Add(li, li, sv.Weights[k])
		}
	}
	for v := 0; v < g.Order(); v++ {
		if !split[v] {
			li := local[assign[v]][v]
			coos[assign[v]].Add(li, li, g.VertexWeight(v))
		}
	}
	out := make([]*sparse.CSR, len(coos))
	for p, c := range coos {
		out[p] = c.ToCSR()
	}
	return out
}

// diffCSRBits describes the first difference between two matrices' shapes,
// row patterns and value bit patterns, or returns "".
func diffCSRBits(got, want *sparse.CSR) string {
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() || got.NNZ() != want.NNZ() {
		return fmt.Sprintf("%dx%d with %d entries, want %dx%d with %d", got.Rows(), got.Cols(), got.NNZ(), want.Rows(), want.Cols(), want.NNZ())
	}
	for i := 0; i < got.Rows(); i++ {
		gc, gv := got.RowView(i)
		wc, wv := want.RowView(i)
		if len(gc) != len(wc) {
			return fmt.Sprintf("row %d holds %v, want %v", i, gc, wc)
		}
		for k := range gc {
			if gc[k] != wc[k] || math.Float64bits(gv[k]) != math.Float64bits(wv[k]) {
				return fmt.Sprintf("row %d entry %d is (%d, %g), want (%d, %g)", i, k, gc[k], gv[k], wc[k], wv[k])
			}
		}
	}
	return ""
}

// checkAssembly fails the test unless every part matrix of r equals the COO
// oracle's byte for byte.
func checkAssembly(t *testing.T, name string, g *graph.Electric, r *Result, opts Options) {
	t.Helper()
	for p, want := range assembleCOO(g, r, opts) {
		if diff := diffCSRBits(r.Subdomains[p].A, want); diff != "" {
			t.Errorf("%s part %d: EVS's matrix differs from the COO assembly: %s", name, p, diff)
		}
	}
}

// TestEVSMatchesCOOAssembly tears random systems into 2 to 7 parts, once as
// built and once with every seventh diagonal removed (a vertex of weight
// zero, whole or split, must store no diagonal), and compares every part
// matrix with the COO assembly. The gated tears are checked in TestTearGolden.
func TestEVSMatchesCOOAssembly(t *testing.T) {
	for seed := 1; seed <= 6; seed++ {
		for _, spec := range []string{
			fmt.Sprintf("random:n=300,density=0.02,seed=%d", seed),
			fmt.Sprintf("spanner:n=400,k=6,seed=%d", seed),
			fmt.Sprintf("saddle:nx=%d,ny=%d", 6+seed, 9-seed/2),
		} {
			sys, _ := sourceSystem(t, spec)
			holed := sparse.NewCOO(sys.Dim(), sys.Dim())
			sys.A.Each(func(i, j int, v float64) {
				if i != j || i%7 != 0 {
					holed.Add(i, j, v)
				}
			})
			for _, a := range []*sparse.CSR{sys.A, holed.ToCSR()} {
				g, err := graph.FromSystem(a, sys.B)
				if err != nil {
					t.Fatalf("%s: %v", spec, err)
				}
				parts := 1 + seed
				r, err := EVS(g, LevelSetGrow(g, parts), Options{})
				if err != nil {
					t.Fatalf("%s: %v", spec, err)
				}
				checkAssembly(t, fmt.Sprintf("%s (nnz %d) in %d parts", spec, a.NNZ(), parts), g, r, Options{})
			}
		}
	}
}

package partition

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/sparse"
)

// mustEVS applies EVS with default options and fails the test on error.
func mustEVS(t *testing.T, sys sparse.System, a Assignment, opts Options) *Result {
	t.Helper()
	g, err := graph.FromSystem(sys.A, sys.B)
	if err != nil {
		t.Fatalf("FromSystem: %v", err)
	}
	res, err := EVS(g, a, opts)
	if err != nil {
		t.Fatalf("EVS: %v", err)
	}
	return res
}

// checkEVSInvariants verifies the structural invariants every EVS result must
// satisfy regardless of the splitting choices:
//   - the expanded subsystems sum back to the original system (Kirchhoff
//     consistency, equation (4.3) summed over parts);
//   - every subdomain orders ports before inner vertices and its local matrix
//     is symmetric;
//   - every twin link joins two copies of the same global vertex in two
//     different parts;
//   - the ports of a subdomain are in ascending global order.
func checkEVSInvariants(t *testing.T, sys sparse.System, res *Result) {
	t.Helper()
	a, b := res.Reconstruct()
	if !a.EqualApprox(sys.A, 1e-9) {
		t.Errorf("reconstructed matrix differs from the original")
	}
	if !b.Equal(sys.B, 1e-9) {
		t.Errorf("reconstructed rhs differs from the original")
	}
	if res.Dim() != sys.Dim() {
		t.Errorf("Dim = %d, want %d", res.Dim(), sys.Dim())
	}
	for p, sub := range res.Subdomains {
		if sub.Part != p {
			t.Errorf("subdomain %d reports part %d", p, sub.Part)
		}
		if sub.A.Rows() != sub.Dim() || len(sub.B) != sub.Dim() {
			t.Errorf("subdomain %d system size mismatch", p)
		}
		if !sub.A.IsSymmetric(1e-10) {
			t.Errorf("subdomain %d local matrix is not symmetric", p)
		}
		if ports := sub.GlobalIdx[:sub.NumPorts]; !slices.IsSorted(ports) {
			t.Errorf("subdomain %d ports are not in ascending global order: %v", p, ports)
		}
	}
	for _, l := range res.Links {
		if l.PartA == l.PartB {
			t.Errorf("link %d joins a part to itself", l.ID)
		}
		ga := res.Subdomains[l.PartA].GlobalIdx[l.PortA]
		gb := res.Subdomains[l.PartB].GlobalIdx[l.PortB]
		if ga != l.Global || gb != l.Global {
			t.Errorf("link %d endpoints map to globals %d/%d, want %d", l.ID, ga, gb, l.Global)
		}
	}
	for i, l := range res.Links {
		if l.ID != i {
			t.Errorf("link %d has ID %d", i, l.ID)
		}
	}
	// Every inner vertex appears in exactly one subdomain; every split vertex
	// appears once per part in its split record.
	seen := make([]int, sys.Dim())
	for _, sub := range res.Subdomains {
		for _, gv := range sub.GlobalIdx {
			seen[gv]++
		}
	}
	isSplit := map[int]int{}
	for _, sv := range res.Splits {
		isSplit[sv.Global] = len(sv.Parts)
	}
	for v, c := range seen {
		want := 1
		if k, ok := isSplit[v]; ok {
			want = k
		}
		if c != want {
			t.Errorf("vertex %d appears in %d subdomains, want %d", v, c, want)
		}
	}
	// Split weights and sources sum back to the originals.
	for _, sv := range res.Splits {
		wsum, ssum := 0.0, 0.0
		for i := range sv.Parts {
			wsum += sv.Weights[i]
			ssum += sv.Sources[i]
		}
		if math.Abs(wsum-sys.A.At(sv.Global, sv.Global)) > 1e-9 {
			t.Errorf("split vertex %d weights sum to %g, want %g", sv.Global, wsum, sys.A.At(sv.Global, sv.Global))
		}
		if math.Abs(ssum-sys.B[sv.Global]) > 1e-9 {
			t.Errorf("split vertex %d sources sum to %g, want %g", sv.Global, ssum, sys.B[sv.Global])
		}
	}
}

func TestEVSPaperExampleDefaultSplit(t *testing.T) {
	sys := sparse.PaperExample()
	res := mustEVS(t, sys, Assignment{Parts: 2, Assign: []int{0, 0, 1, 1}}, Options{Boundary: []int{1, 2}})
	checkEVSInvariants(t, sys, res)
	if len(res.Links) != 2 {
		t.Errorf("links = %d, want 2 (one per split vertex)", len(res.Links))
	}
	if len(res.Splits) != 2 {
		t.Errorf("splits = %d, want 2", len(res.Splits))
	}
	if got := res.Boundary; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("boundary = %v, want [1 2]", got)
	}
	// Level-one tearing: each part has 2 ports and 1 inner vertex.
	for p, sub := range res.Subdomains {
		if sub.NumPorts != 2 || sub.Dim() != 3 {
			t.Errorf("part %d: %d ports of %d unknowns; want 2 of 3", p, sub.NumPorts, sub.Dim())
		}
	}
}

func TestEVSOneSidedAutomaticBoundary(t *testing.T) {
	sys := sparse.PaperExample()
	res := mustEVS(t, sys, Assignment{Parts: 2, Assign: []int{0, 0, 1, 1}}, Options{})
	checkEVSInvariants(t, sys, res)
	// With the one-sided rule only the lower-part endpoints of cut edges enter
	// the boundary. The cut edges of the [0,0,1,1] assignment are {V1,V3},
	// {V2,V3} and {V2,V4}; their part-0 endpoints are V1 and V2 (globals 0, 1).
	if len(res.Splits) != 2 {
		t.Errorf("one-sided splitting should split 2 vertices, got %d", len(res.Splits))
	}
	for _, sv := range res.Splits {
		if sv.Global != 0 && sv.Global != 1 {
			t.Errorf("unexpected split vertex %d", sv.Global)
		}
	}
}

func TestEVSGridBlocksMultilevelTearing(t *testing.T) {
	// A 2x2 block partition of a grid splits the vertices at the block corner
	// into more than two copies (their closed 5-point neighbourhood touches
	// three parts) — the multilevel tearing of Fig. 6 — producing a chain of
	// links rather than a single pair.
	sys := sparse.Poisson2D(5, 5, 0.05)
	res := mustEVS(t, sys, GridBlocks(5, 5, 2, 2), Options{})
	checkEVSInvariants(t, sys, res)
	var corner *SplitVertex
	for i := range res.Splits {
		if len(res.Splits[i].Parts) >= 3 {
			corner = &res.Splits[i]
		}
	}
	if corner == nil {
		t.Fatalf("expected at least one vertex split across three or more parts")
	}
	chain := 0
	for _, l := range res.Links {
		if l.Global == corner.Global {
			chain++
		}
	}
	if chain != len(corner.Parts)-1 {
		t.Errorf("a %d-way split vertex must have a chain of %d links, got %d",
			len(corner.Parts), len(corner.Parts)-1, chain)
	}
}

func TestEVSAdjacentPartsAndLinksOfPart(t *testing.T) {
	sys := sparse.Poisson2D(6, 6, 0.05)
	res := mustEVS(t, sys, GridBlocks(6, 6, 2, 2), Options{})
	adj := res.AdjacentParts()
	if len(adj) != 4 {
		t.Fatalf("AdjacentParts length = %d", len(adj))
	}
	// Every part must talk to at least its mesh neighbours (2 of them in 2x2).
	for p, list := range adj {
		if len(list) < 2 {
			t.Errorf("part %d adjacent to %v, want at least its 2 mesh neighbours", p, list)
		}
		for _, q := range list {
			if q == p {
				t.Errorf("part %d listed as its own neighbour", p)
			}
		}
	}
	total := 0
	for p := 0; p < 4; p++ {
		for _, l := range res.LinksOfPart(p) {
			if l.PartA != p && l.PartB != p {
				t.Errorf("LinksOfPart(%d) returned foreign link %+v", p, l)
			}
			total++
		}
	}
	if total != 2*len(res.Links) {
		t.Errorf("links-of-part total = %d, want %d (each link counted from both ends)", total, 2*len(res.Links))
	}
}

func TestEVSRejectsInvalidInputs(t *testing.T) {
	sys := sparse.PaperExample()
	g, err := graph.FromSystem(sys.A, sys.B)
	if err != nil {
		t.Fatalf("FromSystem: %v", err)
	}

	if _, err := EVS(g, Assignment{Parts: 2, Assign: []int{0, 1}}, Options{}); err == nil {
		t.Errorf("mismatched assignment length must be rejected")
	}
	if _, err := EVS(g, Assignment{Parts: 2, Assign: []int{0, 0, 1, 1}}, Options{Boundary: []int{9}}); err == nil {
		t.Errorf("out-of-range boundary vertex must be rejected")
	}
	// A boundary that does not cover the cut: V2-V4 and V3-V4 cross but only V1
	// is listed.
	if _, err := EVS(g, Assignment{Parts: 2, Assign: []int{0, 0, 1, 1}}, Options{Boundary: []int{0}}); err == nil {
		t.Errorf("a boundary that does not cover the cut must be rejected")
	}
	// A vertex split that does not preserve sums must be rejected.
	badSplit := Options{
		Boundary: []int{1, 2},
		VertexSplit: func(global int, parts []int, weight, source float64) ([]float64, []float64) {
			return []float64{weight, weight}, []float64{source / 2, source / 2}
		},
	}
	if _, err := EVS(g, Assignment{Parts: 2, Assign: []int{0, 0, 1, 1}}, badSplit); err == nil {
		t.Errorf("a weight split that does not sum back must be rejected")
	}
	// An edge split that does not preserve the weight must be rejected.
	badEdge := Options{
		Boundary: []int{1, 2},
		EdgeSplit: func(u, v int, weight float64) (float64, float64) {
			return weight, weight
		},
	}
	if _, err := EVS(g, Assignment{Parts: 2, Assign: []int{0, 0, 1, 1}}, badEdge); err == nil {
		t.Errorf("an edge split that does not sum back must be rejected")
	}
	// A VertexSplit returning the wrong number of shares must be rejected.
	badLen := Options{
		Boundary: []int{1, 2},
		VertexSplit: func(global int, parts []int, weight, source float64) ([]float64, []float64) {
			return []float64{weight}, []float64{source}
		},
	}
	if _, err := EVS(g, Assignment{Parts: 2, Assign: []int{0, 0, 1, 1}}, badLen); err == nil {
		t.Errorf("a split with the wrong arity must be rejected")
	}
}

func TestEVSSinglePartHasNoLinks(t *testing.T) {
	sys := sparse.PaperExample()
	res := mustEVS(t, sys, Assignment{Parts: 1, Assign: []int{0, 0, 0, 0}}, Options{})
	checkEVSInvariants(t, sys, res)
	if len(res.Links) != 0 || len(res.Splits) != 0 {
		t.Errorf("a single-part partition must not split anything")
	}
	if res.Subdomains[0].Dim() != 4 || res.Subdomains[0].NumPorts != 0 {
		t.Errorf("the single subdomain must be the whole system")
	}
}

func TestEVSDefaultSplitPreservesDiagonalDominance(t *testing.T) {
	// The dominance-proportional default split must keep every subgraph of a
	// diagonally dominant system weakly diagonally dominant (the key to the
	// SNND hypothesis of Theorem 6.1).
	sys := sparse.RandomGridSPD(9, 9, 5)
	res := mustEVS(t, sys, GridBlocks(9, 9, 3, 3), Options{})
	checkEVSInvariants(t, sys, res)
	for p, sub := range res.Subdomains {
		if weak, _ := sub.A.IsDiagonallyDominant(); !weak {
			t.Errorf("subdomain %d lost diagonal dominance under the default split", p)
		}
	}
}

func TestEVSSubsystemExactSolutionConsistency(t *testing.T) {
	// At the exact solution x of the original system, the residual of each
	// subsystem equals the inflow currents, and twin inflow currents cancel
	// (Kirchhoff's current law across the tearing) — the core physical
	// invariant behind equation (4.3).
	sys := sparse.PaperExample()
	res := mustEVS(t, sys, Assignment{Parts: 2, Assign: []int{0, 0, 1, 1}}, Options{Boundary: []int{1, 2}})

	// Exact solution of the 4x4 system, computed here with a tiny hand-rolled
	// Gaussian elimination to keep the test independent of package dense.
	exact := solveDense4(t, sys)

	// Per-part inflow currents ω = A_local·x_local − b_local.
	type key struct{ global, part int }
	omega := map[key]float64{}
	for p, sub := range res.Subdomains {
		xl := sparse.NewVec(sub.Dim())
		for li, gv := range sub.GlobalIdx {
			xl[li] = exact[gv]
		}
		r := sub.A.MulVec(xl).Sub(sub.B)
		for li := 0; li < sub.NumPorts; li++ {
			omega[key{sub.GlobalIdx[li], p}] = r[li]
		}
		// Inner vertices must have zero inflow current.
		for li := sub.NumPorts; li < sub.Dim(); li++ {
			if math.Abs(r[li]) > 1e-9 {
				t.Errorf("inner vertex %d of part %d has non-zero inflow current %g", sub.GlobalIdx[li], p, r[li])
			}
		}
	}
	for _, sv := range res.Splits {
		total := 0.0
		for _, p := range sv.Parts {
			total += omega[key{sv.Global, p}]
		}
		if math.Abs(total) > 1e-9 {
			t.Errorf("inflow currents of split vertex %d sum to %g, want 0 (KCL)", sv.Global, total)
		}
	}
}

// solveDense4 solves the 4-unknown paper system by Gaussian elimination.
func solveDense4(t *testing.T, sys sparse.System) sparse.Vec {
	t.Helper()
	n := sys.Dim()
	a := sys.A.ToDense()
	b := sys.B.Clone()
	for k := 0; k < n; k++ {
		p := k
		for i := k + 1; i < n; i++ {
			if math.Abs(a[i][k]) > math.Abs(a[p][k]) {
				p = i
			}
		}
		a[k], a[p] = a[p], a[k]
		b[k], b[p] = b[p], b[k]
		if a[k][k] == 0 {
			t.Fatalf("singular test system")
		}
		for i := k + 1; i < n; i++ {
			f := a[i][k] / a[k][k]
			for j := k; j < n; j++ {
				a[i][j] -= f * a[k][j]
			}
			b[i] -= f * b[k]
		}
	}
	x := sparse.NewVec(n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= a[i][j] * x[j]
		}
		x[i] = s / a[i][i]
	}
	return x
}

// Property: for random grid systems and random block partitions, the EVS
// reconstruction invariant holds and the number of links equals
// Σ_splits (copies − 1).
func TestEVSReconstructionProperty(t *testing.T) {
	f := func(seed int64, rawN, rawP uint8) bool {
		nx := 4 + int(rawN%6)
		ny := 4 + int(rawN%5)
		px := 1 + int(rawP%3)
		py := 1 + int(rawP/4%3)
		sys := sparse.RandomGridSPD(nx, ny, seed)
		g, err := graph.FromSystem(sys.A, sys.B)
		if err != nil {
			return false
		}
		res, err := EVS(g, GridBlocks(nx, ny, px, py), Options{})
		if err != nil {
			return false
		}
		a, b := res.Reconstruct()
		if !a.EqualApprox(sys.A, 1e-9) || !b.Equal(sys.B, 1e-9) {
			return false
		}
		wantLinks := 0
		for _, sv := range res.Splits {
			wantLinks += len(sv.Parts) - 1
		}
		return len(res.Links) == wantLinks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the automatically derived one-sided boundary is always a vertex
// cover of the cut edges, and splitting it never changes the assembled system.
func TestEVSBoundaryCoverProperty(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := 8 + int(rawN%40)
		sys := sparse.RandomSPD(n, 0.1, seed)
		g, err := graph.FromSystem(sys.A, sys.B)
		if err != nil {
			return false
		}
		a := GridBlocks(n, 1, 2+int(rawN%3), 1)
		res, err := EVS(g, a, Options{})
		if err != nil {
			return false
		}
		split := map[int]bool{}
		for _, sv := range res.Splits {
			split[sv.Global] = true
		}
		for e := range g.Edges() {
			if a.Assign[e.U] != a.Assign[e.V] && !split[e.U] && !split[e.V] {
				return false
			}
		}
		ra, rb := res.Reconstruct()
		return ra.EqualApprox(sys.A, 1e-9) && rb.Equal(sys.B, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

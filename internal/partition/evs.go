package partition

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/sparse"
)

// Subdomain is one subgraph M_j produced by EVS, already mapped back to a
// linear system as in equation (4.3) of the paper:
//
//	[ C E ] [u]   [f]   [ω]
//	[ F D ] [y] = [g] + [0]
//
// The local vertices are ordered ports first (Γ_{j,port}) then inner vertices
// (Γ_{j,inner}); A holds the full [C E; F D] block matrix and B holds [f; g].
type Subdomain struct {
	// Part is the index of this subdomain.
	Part int
	// NumPorts is the number of ports (split-vertex copies) in this subdomain;
	// local indices [0, NumPorts) are ports, the rest are inner vertices.
	NumPorts int
	// GlobalIdx maps local vertex index to the original (global) vertex id.
	// Several subdomains may map a port to the same global vertex — those are
	// the twin copies of a split vertex.
	GlobalIdx []int
	// A is the local coefficient matrix [C E; F D].
	A *sparse.CSR
	// B is the local right-hand side [f; g] (inflow currents not included).
	B sparse.Vec
}

// Dim returns the number of local unknowns (ports + inner vertices).
func (s *Subdomain) Dim() int { return len(s.GlobalIdx) }

// TwinLink is one pair of twin ports — the place where the DTM engine inserts
// a directed transmission line pair (DTLP). PartA/PortA and PartB/PortB are
// two copies of the split vertex Global.
type TwinLink struct {
	// ID is the index of this link in Result.Links.
	ID int
	// Global is the original vertex that was split.
	Global int
	// PartA and PartB are the two subdomains joined by this link.
	PartA, PartB int
	// PortA and PortB are the local port indices of the copies inside PartA
	// and PartB respectively.
	PortA, PortB int
}

// SplitVertex records how one boundary vertex was torn apart: which parts
// received a copy and how its weight and source were distributed.
type SplitVertex struct {
	Global  int
	Parts   []int // sorted
	Weights []float64
	Sources []float64
}

// Result is the full output of EVS: the per-part subsystems, the twin links,
// and the bookkeeping needed to assemble global solutions back together.
type Result struct {
	// Assign is the vertex-to-part assignment EVS was applied to.
	Assign Assignment
	// Boundary is the splitting boundary G_B that was actually used (sorted).
	Boundary []int
	// Subdomains holds one entry per part, indexed by part id.
	Subdomains []*Subdomain
	// Links holds every twin link (DTLP site).
	Links []TwinLink
	// Splits records every split vertex.
	Splits []SplitVertex

	// original system dimension.
	n int
	// linksOf[p] holds the links with p as an endpoint, in ID order, and
	// adjacent[p] the parts at their other ends, ascending.
	linksOf  [][]TwinLink
	adjacent [][]int
}

// Options configures Electric Vertex Splitting.
type Options struct {
	// Boundary, when non-empty, is the explicit splitting boundary G_B
	// (Step 1 of Section 4). It must cover every cut edge: for every edge
	// whose endpoints are assigned to different parts, at least one endpoint
	// must be in the boundary. When empty the boundary is derived from the
	// assignment: for every cut edge, the endpoint in the lower-numbered part
	// — a one-layer vertex separator, the wire tearing of Section 4.
	Boundary []int
	// VertexSplit, when non-nil, decides how the weight and source of a split
	// vertex are distributed over its copies. parts is sorted; the returned
	// slices must have the same length as parts and sum to weight and source
	// respectively. When nil, the dominance-proportional default is used.
	VertexSplit func(global int, parts []int, weight, source float64) (weights, sources []float64)
	// EdgeSplit, when non-nil, decides how an edge joining two boundary
	// vertices of different home parts is split; it returns the share for u's
	// part and the share for v's part, summing to weight. When nil the edge
	// is split evenly.
	EdgeSplit func(u, v int, weight float64) (wu, wv float64)
}

// EVS applies Electric Vertex Splitting (wire tearing) to the electric graph g
// under the given assignment and returns the per-part subsystems, twin links
// and split records. The construction follows the four steps of Section 4:
//
//  1. choose the splitting boundary G_B (explicit, or derived from the cut
//     edges of the assignment);
//  2. split each boundary vertex into one copy per part it touches (two
//     copies along a boundary line — level-one tearing; more where several
//     parts meet — the level-two / multilevel tearing of Fig. 6);
//  3. split its weight, its source, and the edges joining boundary vertices
//     of different parts, so that the per-part subsystems sum back to the
//     original system exactly;
//  4. introduce the inflow-current structure: every copy is a port and
//     consecutive copies (in part order) of the same vertex are twin-linked.
func EVS(g *graph.Electric, a Assignment, opts Options) (*Result, error) {
	n := g.Order()
	if err := a.Validate(n); err != nil {
		return nil, err
	}
	assign := a.Assign

	// Step 1: establish the splitting boundary — explicit here, or derived in
	// the scan below from the cut edges each vertex sees.
	explicit := len(opts.Boundary) > 0
	inBoundary := make([]bool, n)
	for _, v := range opts.Boundary {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("partition: boundary vertex %d out of range [0,%d)", v, n)
		}
		inBoundary[v] = true
	}

	// Step 2: determine which parts receive a copy of each boundary vertex.
	// A vertex listed in the boundary but touching a single part is left whole.
	// Everything kept per copy of a split vertex lives in flat arrays: split s
	// owns the slots [off[s], off[s+1]), one per part in ascending part order.
	var (
		splits  []SplitVertex
		off     = []int{0}
		parts   []int // the part of every slot
		splitOf = make([]int, n)
	)
	for v := 0; v < n; v++ {
		pv := assign[v]
		begin := len(parts)
		parts = append(parts, pv)
		boundary := inBoundary[v]
		for w := range g.Neighbors(v) {
			pw := assign[w]
			if pw == pv {
				continue
			}
			parts = append(parts, pw)
			if !explicit && pv < pw {
				boundary = true
			}
		}
		touched := parts[begin:]
		slices.Sort(touched)
		touched = slices.Compact(touched)
		if !boundary || len(touched) < 2 {
			parts = parts[:begin]
			splitOf[v] = -1
			continue
		}
		parts = parts[:begin+len(touched)]
		splitOf[v] = len(splits)
		splits = append(splits, SplitVertex{Global: v})
		off = append(off, len(parts))
	}
	var (
		copyLocal = make([]int, len(parts))     // local port index of the copy
		incident  = make([]float64, len(parts)) // Σ |assigned edge weight| of the copy
		weights   = make([]float64, len(parts))
		sources   = make([]float64, len(parts))
	)
	for s := range splits {
		splits[s].Parts = parts[off[s]:off[s+1]:off[s+1]]
	}

	// Local vertex ordering: ports (split copies) first, then inner vertices,
	// both by ascending global id. A part holds the vertices assigned to it
	// plus the copies of split vertices whose home is elsewhere.
	dim := a.PartSizes()
	for _, sv := range splits {
		for _, p := range sv.Parts {
			if p != assign[sv.Global] {
				dim[p]++
			}
		}
	}
	subs := make([]*Subdomain, a.Parts)
	for p := range subs {
		subs[p] = &Subdomain{Part: p, GlobalIdx: make([]int, 0, dim[p]), B: sparse.NewVec(dim[p])}
	}
	for s, sv := range splits {
		for k, p := range sv.Parts {
			copyLocal[off[s]+k] = len(subs[p].GlobalIdx)
			subs[p].GlobalIdx = append(subs[p].GlobalIdx, sv.Global)
		}
	}
	for _, sub := range subs {
		sub.NumPorts = len(sub.GlobalIdx)
	}
	local := make([]int, n) // local index of a whole vertex in its home part
	for v := 0; v < n; v++ {
		if sub := subs[assign[v]]; splitOf[v] < 0 {
			local[v] = len(sub.GlobalIdx)
			sub.GlobalIdx = append(sub.GlobalIdx, v)
		}
	}
	// A part's row holds the vertex's diagonal and one entry per edge the part
	// holds at it, whose other endpoint also has a copy there: at most one
	// more than the vertex's degree. Each edge lands once per part and each
	// local vertex gets one diagonal, so no position is written twice.
	rows := make([]*sparse.RowBuilder, a.Parts)
	for p, sub := range subs {
		rows[p] = sparse.NewRowBuilder(dim[p], dim[p], func(li int) int { return 1 + g.Degree(sub.GlobalIdx[li]) })
	}

	// Step 3a: assign every edge (or edge fraction) to a part, in ascending
	// (U, V) order — the order the incident sums accumulate in. place resolves
	// vertex x inside part p: its local index there and, for a split vertex,
	// the slot of that copy (-1 for a whole vertex).
	place := func(x, p int) (li, slot int, ok bool) {
		s := splitOf[x]
		if s < 0 {
			return local[x], -1, assign[x] == p
		}
		k, ok := slices.BinarySearch(splits[s].Parts, p)
		if !ok {
			return 0, -1, false
		}
		return copyLocal[off[s]+k], off[s] + k, true
	}
	add := func(p int, e graph.Edge, w float64) error {
		lu, cu, ok1 := place(e.U, p)
		lv, cv, ok2 := place(e.V, p)
		if !ok1 || !ok2 {
			return fmt.Errorf("partition: internal error: edge {%d,%d} assigned to part %d but an endpoint has no copy there", e.U, e.V, p)
		}
		rows[p].AddSym(lu, lv, w)
		if cu >= 0 {
			incident[cu] += math.Abs(w)
		}
		if cv >= 0 {
			incident[cv] += math.Abs(w)
		}
		return nil
	}
	for e := range g.Edges() {
		pu, pv := assign[e.U], assign[e.V]
		su, sv := splitOf[e.U] >= 0, splitOf[e.V] >= 0
		var err error
		switch {
		case su != sv:
			// Exactly one endpoint is split: the edge follows the whole
			// endpoint into its home part, attaching to the split vertex's
			// copy there (which exists because they are neighbours).
			home := pu
			if su {
				home = pv
			}
			err = add(home, e, e.Weight)
		case pu == pv:
			err = add(pu, e, e.Weight)
		case !su:
			// Every cut edge must have a boundary endpoint, otherwise the
			// subgraphs would not decouple.
			err = fmt.Errorf("partition: edge {%d,%d} crosses parts %d/%d but neither endpoint is in the splitting boundary",
				e.U, e.V, pu, pv)
		default:
			// Both endpoints are split and the edge lies on the splitting
			// boundary: its weight is split between the two home parts
			// (Example 4.1: the −2 edge between V2 and V3 becomes −0.9 and
			// −1.1).
			wu, wv := e.Weight/2, e.Weight/2
			if opts.EdgeSplit != nil {
				wu, wv = opts.EdgeSplit(e.U, e.V, e.Weight)
				if math.Abs(wu+wv-e.Weight) > 1e-9*(1+math.Abs(e.Weight)) {
					return nil, fmt.Errorf("partition: EdgeSplit for edge {%d,%d} returned %g+%g, want sum %g", e.U, e.V, wu, wv, e.Weight)
				}
			}
			if err = add(pu, e, wu); err == nil {
				err = add(pv, e, wv)
			}
		}
		if err != nil {
			return nil, err
		}
	}

	// Step 3b: split the weight and source of every split vertex; whole
	// vertices keep theirs.
	for s := range splits {
		sv := &splits[s]
		v, lo, hi := sv.Global, off[s], off[s+1]
		weight, source := g.VertexWeight(v), g.Source(v)
		sv.Weights, sv.Sources = weights[lo:hi:hi], sources[lo:hi:hi]
		if opts.VertexSplit != nil {
			sv.Weights, sv.Sources = opts.VertexSplit(v, sv.Parts, weight, source)
			if len(sv.Weights) != hi-lo || len(sv.Sources) != hi-lo {
				return nil, fmt.Errorf("partition: VertexSplit for vertex %d returned %d weights and %d sources, want %d", v, len(sv.Weights), len(sv.Sources), hi-lo)
			}
			if sw, ss := sum(sv.Weights), sum(sv.Sources); math.Abs(sw-weight) > 1e-9*(1+math.Abs(weight)) || math.Abs(ss-source) > 1e-9*(1+math.Abs(source)) {
				return nil, fmt.Errorf("partition: VertexSplit for vertex %d does not preserve weight/source sums (%g vs %g, %g vs %g)", v, sw, weight, ss, source)
			}
		} else {
			defaultVertexSplit(weight, source, incident[lo:hi], sv.Weights, sv.Sources)
		}
		for k, p := range sv.Parts {
			li := copyLocal[lo+k]
			rows[p].Add(li, li, sv.Weights[k])
			subs[p].B[li] = sv.Sources[k]
		}
	}
	for v := 0; v < n; v++ {
		if splitOf[v] < 0 {
			p, li := assign[v], local[v]
			rows[p].Add(li, li, g.VertexWeight(v))
			subs[p].B[li] = g.Source(v)
		}
	}
	for p, sub := range subs {
		sub.A = rows[p].ToCSR()
	}

	// Step 4: twin links — chain the copies of each split vertex in ascending
	// part order (level-one tearing gives one link per split vertex; vertices
	// shared by k parts get a chain of k−1 links, the multilevel tearing).
	links := make([]TwinLink, 0, len(parts)-len(splits))
	boundary := make([]int, len(splits))
	for s, sv := range splits {
		boundary[s] = sv.Global
		for k := 0; k+1 < len(sv.Parts); k++ {
			links = append(links, TwinLink{
				ID:     len(links),
				Global: sv.Global,
				PartA:  sv.Parts[k],
				PartB:  sv.Parts[k+1],
				PortA:  copyLocal[off[s]+k],
				PortB:  copyLocal[off[s]+k+1],
			})
		}
	}

	linksOf, adjacent := partTables(a.Parts, links)
	return &Result{
		Assign:     a,
		Boundary:   boundary,
		Subdomains: subs,
		Links:      links,
		Splits:     splits,
		n:          n,
		linksOf:    linksOf,
		adjacent:   adjacent,
	}, nil
}

// partTables files every link under both of its parts, in ID order, and lists
// each part's adjacent parts, ascending. Each table is cut from one backing
// array: the links are counted per part, then filled.
func partTables(nparts int, links []TwinLink) (linksOf [][]TwinLink, adjacent [][]int) {
	off := make([]int, nparts+1)
	for _, l := range links {
		off[l.PartA+1]++
		off[l.PartB+1]++
	}
	for p := range nparts {
		off[p+1] += off[p]
	}
	flat, far := make([]TwinLink, off[nparts]), make([]int, off[nparts])
	linksOf, adjacent = make([][]TwinLink, nparts), make([][]int, nparts)
	for p := range nparts {
		linksOf[p] = flat[off[p]:off[p]:off[p+1]]
	}
	for _, l := range links {
		linksOf[l.PartA] = append(linksOf[l.PartA], l)
		linksOf[l.PartB] = append(linksOf[l.PartB], l)
	}
	// A part's adjacent parts are the far ends of its links, sorted in the
	// part's own segment and compacted.
	for p, ls := range linksOf {
		adj := far[off[p]:off[p]]
		for _, l := range ls {
			adj = append(adj, l.PartA+l.PartB-p)
		}
		slices.Sort(adj)
		adjacent[p] = slices.Clip(slices.Compact(adj))
	}
	return linksOf, adjacent
}

// defaultVertexSplit distributes a boundary vertex's weight proportionally to
// the absolute edge weight incident to each copy, and its source in the same
// proportions, into weights and sources (one entry per copy, like incident).
// For a (weakly) diagonally dominant row this keeps every copy weakly
// diagonally dominant, so all subgraphs of a diagonally dominant SPD system
// are SNND — the hypothesis of Theorem 6.1.
func defaultVertexSplit(weight, source float64, incident, weights, sources []float64) {
	total := sum(incident)
	for i, inc := range incident {
		if total > 0 {
			share := inc / total
			weights[i], sources[i] = weight*share, source*share
		} else {
			k := float64(len(incident))
			weights[i], sources[i] = weight/k, source/k
		}
	}
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Dim returns the dimension of the original system.
func (r *Result) Dim() int { return r.n }

// NumParts returns the number of subdomains.
func (r *Result) NumParts() int { return len(r.Subdomains) }

// AdjacentParts returns, for each part, the ascending list of parts it shares
// at least one twin link with (its N2N communication neighbours). The lists
// are EVS's own tables: callers must not modify them.
func (r *Result) AdjacentParts() [][]int { return r.adjacent }

// LinksOfPart returns the links that have the given part as one endpoint, in
// ID order. The slice is EVS's own table: callers must not modify it.
func (r *Result) LinksOfPart(part int) []TwinLink { return r.linksOf[part] }

// Reconstruct sums the expanded per-part subsystems back into a global system.
// By construction it must equal the original (A, b): the inflow currents of
// twin copies cancel at the exact solution, so the split is consistent. Tests
// use this as the fundamental EVS invariant.
func (r *Result) Reconstruct() (*sparse.CSR, sparse.Vec) {
	coo := sparse.NewCOO(r.n, r.n)
	b := sparse.NewVec(r.n)
	for _, sub := range r.Subdomains {
		sub.A.Each(func(i, j int, v float64) {
			coo.Add(sub.GlobalIdx[i], sub.GlobalIdx[j], v)
		})
		for i, v := range sub.B {
			b[sub.GlobalIdx[i]] += v
		}
	}
	return coo.ToCSR(), b
}

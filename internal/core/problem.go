package core

import (
	"fmt"

	"repro/internal/dtl"
	"repro/internal/factor"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/topology"
)

// Problem bundles everything a DTM run needs: the original system, its EVS
// partition, the machine it runs on, and the mapping of subdomains onto
// processors.
type Problem struct {
	// System is the original SPD system A·x = b.
	System sparse.System
	// Partition is the EVS decomposition of the system's electric graph.
	Partition *partition.Result
	// Topology is the parallel machine (processors and directed link delays).
	Topology *topology.Topology
	// ProcMap maps subdomain index to processor index; nil means identity.
	ProcMap []int
}

// NewProblem assembles a Problem from an already computed partition. It
// validates that the machine has enough processors and that the process map
// (identity when nil) is well formed.
func NewProblem(sys sparse.System, part *partition.Result, topo *topology.Topology, procMap []int) (*Problem, error) {
	if part == nil || topo == nil {
		return nil, fmt.Errorf("core: NewProblem requires a partition and a topology")
	}
	if part.Dim() != sys.Dim() {
		return nil, fmt.Errorf("core: partition is over %d vertices but the system has %d unknowns", part.Dim(), sys.Dim())
	}
	n := part.NumParts()
	if procMap == nil {
		if topo.N() < n {
			return nil, fmt.Errorf("core: %d subdomains but the machine has only %d processors", n, topo.N())
		}
		procMap = make([]int, n)
		for i := range procMap {
			procMap[i] = i
		}
	} else {
		if len(procMap) != n {
			return nil, fmt.Errorf("core: process map covers %d subdomains, want %d", len(procMap), n)
		}
		for s, p := range procMap {
			if p < 0 || p >= topo.N() {
				return nil, fmt.Errorf("core: subdomain %d mapped to processor %d, out of range [0,%d)", s, p, topo.N())
			}
		}
	}
	return &Problem{System: sys, Partition: part, Topology: topo, ProcMap: procMap}, nil
}

// tear is the pipeline behind AutoProblem and GridProblem: electric graph,
// the caller's vertex assignment, EVS with the default (dominance-
// proportional) splitting, subdomain i on processor i. The system is taken as
// an nx×ny arrangement of unknowns torn into px×py parts (n×1 into parts×1 for
// a general tearing); a request with more parts than unknowns along a side is
// refused here, because the partitioners panic on it and the request may have
// arrived over the wire.
func tear(sys sparse.System, topo *topology.Topology, nx, ny, px, py int, assign func(*graph.Electric) partition.Assignment) (*Problem, error) {
	if px < 1 || py < 1 || px > nx || py > ny {
		return nil, fmt.Errorf("core: a system of %d unknowns (%d×%d) cannot be torn into %d×%d = %d parts: more parts than unknowns along a side",
			sys.Dim(), nx, ny, px, py, px*py)
	}
	g, err := graph.FromSystem(sys.A, sys.B)
	if err != nil {
		return nil, fmt.Errorf("core: building electric graph: %w", err)
	}
	res, err := partition.EVS(g, assign(g), partition.Options{})
	if err != nil {
		return nil, fmt.Errorf("core: EVS: %w", err)
	}
	return NewProblem(sys, res, topo, nil)
}

// AutoProblem is the convenience constructor used by the examples and the
// general tearing of dist.SpecV2: it partitions the system's electric graph
// into parts pieces with the BFS level-set partitioner.
func AutoProblem(sys sparse.System, parts int, topo *topology.Topology) (*Problem, error) {
	return tear(sys, topo, sys.Dim(), 1, parts, 1, func(g *graph.Electric) partition.Assignment {
		return partition.LevelSetGrow(g, parts)
	})
}

// GridProblem partitions an nx×ny grid-structured system (vertex ix + iy*nx)
// into a px×py block grid of subdomains — the "regular partitioning with
// level-one and level-two mixed EVS" of the paper's Section 7 — and maps block
// (bx, by) onto processor bx + by*px of the topology, so that subdomain
// adjacency coincides with mesh adjacency.
func GridProblem(sys sparse.System, nx, ny, px, py int, topo *topology.Topology) (*Problem, error) {
	if nx*ny != sys.Dim() {
		return nil, fmt.Errorf("core: grid %dx%d has %d vertices but the system has %d unknowns", nx, ny, nx*ny, sys.Dim())
	}
	return tear(sys, topo, nx, ny, px, py, func(*graph.Electric) partition.Assignment {
		return partition.GridBlocks(nx, ny, px, py)
	})
}

// Delay returns the communication delay from subdomain a to subdomain b on
// the problem's machine (the algorithm–architecture delay mapping: the DTL
// from a to b gets exactly this propagation delay).
func (p *Problem) Delay(a, b int) float64 {
	return p.Topology.Delay(p.ProcMap[a], p.ProcMap[b])
}

// BarrierCost returns the virtual time one global barrier costs on the
// problem's machine: the largest delay(a→b)+delay(b→a) over pairs of adjacent
// subdomains, routed (Delay) where their processors share no direct link, or
// 1 when no pair is adjacent. The mixed engine charges it per synchronous
// sweep, and E1 charges a VTM sweep the same.
func (p *Problem) BarrierCost() float64 {
	worst := 0.0
	for a, neighbours := range p.Partition.AdjacentParts() {
		for _, b := range neighbours {
			worst = max(worst, p.Delay(a, b)+p.Delay(b, a))
		}
	}
	if worst == 0 {
		worst = 1
	}
	return worst
}

// OwnerPairs returns, for each part, the (local index, global index) pairs the
// part is the owner of: its inner vertices plus the split-vertex copies whose
// original vertex is assigned to it. Every global vertex has exactly one
// owner, so writing owner values into a global vector assembles a solution
// estimate without double counting. The engines and the dist workers
// assemble their solutions through this map.
func (p *Problem) OwnerPairs() [][][2]int {
	assign := p.Partition.Assign.Assign
	owner := make([][][2]int, p.Partition.NumParts())
	for part, ps := range p.Partition.Subdomains {
		for li, gv := range ps.GlobalIdx {
			if li >= ps.NumPorts || assign[gv] == part {
				owner[part] = append(owner[part], [2]int{li, gv})
			}
		}
	}
	return owner
}

// assembleOwned writes the values a part owns (pairs is its OwnerPairs row)
// from its local solution into the global vector x.
func assembleOwned(x, local sparse.Vec, pairs [][2]int) {
	for _, pair := range pairs {
		x[pair[1]] = local[pair[0]]
	}
}

// Impedances evaluates the strategy on every twin link of the tear, indexed
// by link ID. A nil strategy is the default every solve and every dist
// session share, dtl.DiagScaled{Alpha: 1}; this is the one place it is named.
func (p *Problem) Impedances(strategy dtl.ImpedanceStrategy) ([]float64, error) {
	if strategy == nil {
		strategy = dtl.DiagScaled{Alpha: 1}
	}
	return dtl.Assign(p.Partition, strategy)
}

// BuildSubdomains instantiates the per-part DTM solvers with the impedances
// chosen by the strategy (nil for the default, see Impedances) and the named
// local-factorisation backend (empty for auto) under the default ordering —
// exactly the subdomains Solve builds for a Config whose Factor names only
// that backend, for callers that drive or measure the subdomains themselves.
func (p *Problem) BuildSubdomains(strategy dtl.ImpedanceStrategy, backend string) ([]*Subdomain, []float64, error) {
	return p.buildSubdomains(strategy, factor.Settings{Backend: backend})
}

// buildSubdomains is the one subdomain constructor every engine shares.
func (p *Problem) buildSubdomains(strategy dtl.ImpedanceStrategy, fs factor.Settings) ([]*Subdomain, []float64, error) {
	zs, err := p.Impedances(strategy)
	if err != nil {
		return nil, nil, err
	}
	subs := make([]*Subdomain, p.Partition.NumParts())
	for i, ps := range p.Partition.Subdomains {
		sd, err := NewSubdomain(ps, p.Partition.LinksOfPart(i), zs, fs)
		if err != nil {
			return nil, nil, fmt.Errorf("core: building subdomain %d: %w", i, err)
		}
		subs[i] = sd
	}
	return subs, zs, nil
}

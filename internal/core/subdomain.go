package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/factor"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// LinkEnd is one endpoint of a DTLP as seen from inside a subdomain: the local
// port it terminates on, the remote subdomain the matching endpoint lives in,
// and the characteristic impedance shared by both directions of the pair.
type LinkEnd struct {
	// LinkID is the global id of the twin link (partition.TwinLink.ID).
	LinkID int
	// Port is the local port index the line terminates on.
	Port int
	// Remote is the part at the other end of the line.
	Remote int
	// Z is the characteristic impedance of the pair (strictly positive).
	Z float64
}

// Subdomain is the per-processor state of DTM: the factorised local system of
// equation (5.9), the incident DTL endpoints, the latest incoming waves
// (remote boundary conditions) and the latest local solution.
//
// Between two activations only the port entries of (5.9)'s right-hand side
// change, and only the port potentials leave the subdomain (the outgoing
// waves, the boundary change, the twin gaps). When the factorisation holds
// the Schur complement S of the interior onto the ports (factor.PortSolver),
// Solve therefore computes the ports alone, u = u⁰ + S⁻¹δ; when it is a
// supernodal factor that marked the ports' closure (factor.PortsOnly), Solve
// runs the sweeps on that closure alone, with the full solve's bytes. Either
// way the interior is solved for once, when somebody asks for it (X). Every
// other backend solves the whole system on every activation, as Table 1 of
// the paper says.
//
// Subdomain is not safe for concurrent use by itself; the DES engine calls it
// from a single goroutine and a dist worker confines its Subdomains to its
// one loop.
type Subdomain struct {
	part     int
	numPorts int

	solver factor.LocalSolver
	// ports is solver again when it holds the port factor, portsOnly the
	// solver's ports-only solve for baseRHS; at most one is set, and which
	// one picks Solve's path.
	ports     factor.PortSolver
	portsOnly *factor.PortsOnly
	baseRHS   sparse.Vec
	// u0 is the port potentials under zero incoming waves (the ports of
	// A⁻¹·baseRHS), on the port factor's path. On both condensed paths
	// portRHS is the port entries of the right-hand side of the latest Solve
	// and stale says x's interior entries predate that Solve. portRHS, not
	// incoming, is what X solves for: an engine may overwrite incoming
	// between a Solve and the X that follows.
	u0, portRHS []float64
	stale       bool
	// interiorSolves counts the full solves X performed, for the test that a
	// run nobody watches pays for one per part.
	interiorSolves int

	ends []LinkEnd
	// endOfLink maps a global link id to its local end index (-1 when the link
	// does not terminate here); a flat slice, not a map, because link ids are
	// dense and the lookup sits on the per-message hot path.
	endOfLink []int32
	invZ      []float64 // 1/Z per end
	// adjacent is the sorted set of remote parts and endsByAdj[i] the end
	// indices towards adjacent[i], ascending — both precomputed once so the
	// per-send hot path never rebuilds them.
	adjacent  []int
	endsByAdj [][]int

	// incoming[k] is the latest received wave on end k:
	//   r_k = u_twin(t-τ) − Z·ω_twin(t-τ)
	incoming []float64

	x         sparse.Vec // latest local solution [u; y]; y only as fresh as stale says
	rhs       sparse.Vec // scratch right-hand side
	prevPorts []float64  // scratch: port potentials before the latest solve

	// localA and fs are kept so a crash-restarted subdomain can rebuild its
	// factorisation the way it was first built (Refactor), and with them the
	// symbolic analysis of localA's pattern when a sparse backend built it,
	// which a rebuild reuses instead of ordering again.
	localA   *sparse.CSR
	fs       factor.Settings
	analysis *factor.Analysis
}

// NewSubdomain builds the DTM subdomain for one EVS subgraph. links must be
// the twin links incident to sub.Part (in any order) and z the characteristic
// impedance per link ID (indexed by TwinLink.ID over the whole partition).
//
// The local coefficient matrix is A_local + Σ_ends (1/Z) e_p e_pᵀ — constant
// throughout the computation — and is factorised here once as fs says (the
// zero Settings is "auto": Cholesky sized to the block, falling back to LU
// with partial pivoting for merely-SNND blocks), with the ports named so a
// backend that can condense onto them does.
func NewSubdomain(sub *partition.Subdomain, links []partition.TwinLink, z []float64, fs factor.Settings) (*Subdomain, error) {
	s := &Subdomain{
		part:      sub.Part,
		numPorts:  sub.NumPorts,
		baseRHS:   sub.B.Clone(),
		endOfLink: make([]int32, len(z)),
		x:         sparse.NewVec(sub.Dim()),
		rhs:       sparse.NewVec(sub.Dim()),
		prevPorts: make([]float64, sub.NumPorts),
		u0:        make([]float64, sub.NumPorts),
		portRHS:   make([]float64, sub.NumPorts),
	}
	for i := range s.endOfLink {
		s.endOfLink[i] = -1
	}

	// Collect the DTL endpoints that terminate in this part.
	diagAdd := sparse.NewVec(sub.Dim())
	for _, l := range links {
		if l.PartA != sub.Part && l.PartB != sub.Part {
			return nil, fmt.Errorf("core: link %d does not touch part %d", l.ID, sub.Part)
		}
		if l.ID < 0 || l.ID >= len(z) {
			return nil, fmt.Errorf("core: no impedance for link %d", l.ID)
		}
		zl := z[l.ID]
		if !(zl > 0) || math.IsNaN(zl) || math.IsInf(zl, 0) {
			return nil, fmt.Errorf("core: impedance of link %d must be positive, got %g", l.ID, zl)
		}
		var port, remote int
		if l.PartA == sub.Part {
			port, remote = l.PortA, l.PartB
		} else {
			port, remote = l.PortB, l.PartA
		}
		if port < 0 || port >= sub.NumPorts {
			return nil, fmt.Errorf("core: link %d terminates on local index %d which is not a port of part %d", l.ID, port, sub.Part)
		}
		end := LinkEnd{LinkID: l.ID, Port: port, Remote: remote, Z: zl}
		s.endOfLink[l.ID] = int32(len(s.ends))
		s.ends = append(s.ends, end)
		s.invZ = append(s.invZ, 1/zl)
		diagAdd[port] += 1 / zl
	}
	s.incoming = make([]float64, len(s.ends))
	s.buildAdjacency()

	// Build and factorise the constant local matrix of eq. (5.9).
	local := sub.A.AddDiag(diagAdd)
	s.localA = local
	s.fs = fs
	if err := s.Refactor(); err != nil {
		return nil, err
	}
	return s, nil
}

// Part returns the subdomain (part) index.
func (s *Subdomain) Part() int { return s.part }

// Ends returns the DTL endpoints terminating in this subdomain.
func (s *Subdomain) Ends() []LinkEnd { return s.ends }

// X returns the latest local solution [u_ports; y_inner]. The returned slice
// is the live buffer; callers that need a stable copy must Clone it. On the
// condensed paths the interior is materialised here, by one full solve for
// the right-hand side of the latest Solve; the ports keep the values that
// Solve gave them (on the port factor's path the full solve's differ in the
// last bits), so asking for X never changes what the subdomain sends next.
func (s *Subdomain) X() sparse.Vec {
	if s.stale {
		s.stale = false
		s.interiorSolves++
		s.rhs.CopyFrom(s.baseRHS)
		copy(s.rhs, s.portRHS)
		s.solver.SolveTo(s.rhs, s.rhs)
		copy(s.x[s.numPorts:], s.rhs[s.numPorts:])
	}
	return s.x
}

// SetIncomingByLink records a freshly received wave r = u_twin − Z·ω_twin for
// the end attached to the given link. It reports whether the link terminates
// in this subdomain.
func (s *Subdomain) SetIncomingByLink(linkID int, wave float64) bool {
	k := s.endOf(linkID)
	if k < 0 {
		return false
	}
	s.incoming[k] = wave
	return true
}

// endOf returns the index of the end attached to the given link, -1 when the
// link does not terminate here or the id is out of range.
func (s *Subdomain) endOf(linkID int) int {
	if linkID < 0 || linkID >= len(s.endOfLink) {
		return -1
	}
	return int(s.endOfLink[linkID])
}

// Solve re-solves the local system with the current incoming waves and returns
// the largest absolute change of any port potential relative to the previous
// solution. It performs only a forward/backward substitution — the
// factorisation was done once in NewSubdomain — and on the condensed paths
// only the ports' share of it: on the port factor's the waves enter (5.9) as
// δ on the ports, so the port potentials are u⁰ + S⁻¹δ; on the ports-only
// solve's the sweeps run on the ports' closure.
func (s *Subdomain) Solve() float64 {
	ports := s.x[:s.numPorts]
	prev := s.prevPorts
	copy(prev, ports)
	if s.ports != nil {
		delta := s.portRHS
		clear(delta)
		for k, e := range s.ends {
			delta[e.Port] += s.invZ[k] * s.incoming[k]
		}
		s.ports.SolvePorts(ports, delta)
		// Slices of one length, taken before the loop, so that this per-port
		// loop of every activation neither reloads s's fields nor checks
		// bounds.
		base, u0 := s.baseRHS[:len(delta)], s.u0[:len(delta)]
		ports = ports[:len(delta)]
		for p := range delta {
			ports[p] += u0[p]
			delta[p] += base[p] // now the port entries of base + δ
		}
		s.stale = true
	} else {
		s.rhs.CopyFrom(s.baseRHS)
		for k, e := range s.ends {
			// f_p + (1/Z)·(u_twin − Z·ω_twin)(t−τ), the right-hand side of (5.9).
			s.rhs[e.Port] += s.invZ[k] * s.incoming[k]
		}
		if s.portsOnly != nil {
			s.portsOnly.SolveTo(ports, s.rhs)
			copy(s.portRHS, s.rhs)
			s.stale = true
		} else {
			s.solver.SolveTo(s.x, s.rhs)
		}
	}
	// The largest |u − prev|, taken on the bit patterns: for floats ≥ 0 they
	// order like the values, and a NaN move (Abs clears its sign) sorts above
	// +Inf, so it propagates as max's would — with one branch-free compare
	// per port where max's NaN and ±0 rules cost branches.
	var change uint64
	for p, u := range ports {
		change = max(change, math.Float64bits(math.Abs(u-prev[p])))
	}
	return math.Float64frombits(change)
}

// OutgoingWave returns the wave to send down end k after the latest solve.
// The remote twin's delay equation (2.2) reads
//
//	u_twin(t) + Z·ω_twin(t) = u_p(t−τ) − Z·ω_k(t−τ)
//
// so the value this side must transmit is u_p − Z·ω_k, with ω_k the inflow
// current this line carries into the local port. Since ω_k = (r_k − u_p)/Z,
// the outgoing wave simplifies to 2·u_p − r_k (the port potential reflected
// against the incident wave, as in classic scattering formulations).
func (s *Subdomain) OutgoingWave(k int) float64 {
	e := s.ends[k]
	return 2*s.x[e.Port] - s.incoming[k]
}

// buildAdjacency groups the ends by remote part with one stable sort of their
// indices, so the send hot path never rebuilds either table.
func (s *Subdomain) buildAdjacency() {
	byRemote := make([]int, len(s.ends))
	for k := range byRemote {
		byRemote[k] = k
	}
	slices.SortStableFunc(byRemote, func(a, b int) int { return cmp.Compare(s.ends[a].Remote, s.ends[b].Remote) })
	for lo := 0; lo < len(byRemote); {
		remote, hi := s.ends[byRemote[lo]].Remote, lo+1
		for hi < len(byRemote) && s.ends[byRemote[hi]].Remote == remote {
			hi++
		}
		s.adjacent = append(s.adjacent, remote)
		s.endsByAdj = append(s.endsByAdj, byRemote[lo:hi:hi])
		lo = hi
	}
}

// AdjacentParts returns the sorted set of remote parts this subdomain shares a
// DTLP with. The returned slice is precomputed and shared — callers must not
// mutate it.
func (s *Subdomain) AdjacentParts() []int {
	return s.adjacent
}

// adjacentIndex returns the position of part in AdjacentParts, -1 when this
// subdomain shares no DTLP with it. A part has a handful of neighbours, so it
// counts those below part in one pass without a data-dependent branch: which
// neighbour a wave comes from is what a search's branches would mispredict.
func (s *Subdomain) adjacentIndex(part int) int {
	i := 0
	for _, q := range s.adjacent {
		i -= (q - part) >> 63 // +1 when q < part: part ids are far from overflow
	}
	if i < len(s.adjacent) && s.adjacent[i] == part {
		return i
	}
	return -1
}

// AdjacentEnds returns the indices of the ends towards AdjacentParts()[i], in
// increasing end order. The returned slice is precomputed and shared —
// callers must not mutate it.
func (s *Subdomain) AdjacentEnds(i int) []int {
	return s.endsByAdj[i]
}

// Refactor (re)builds the local solver — and with it the port factor and u⁰,
// or the ports-only solve, when the backend offers one — from the retained
// local matrix and factor settings. NewSubdomain factorises through it, and a
// crash-restarted subdomain calls it because the factorisation held by the
// crashed process is lost; the rebuild runs on the first build's symbolic
// analysis and is deterministic, so the restarted subdomain orders nothing
// and solves exactly as before.
func (s *Subdomain) Refactor() error {
	solver, err := s.fs.NewPortsOn(s.analysis, s.localA, s.numPorts)
	if err != nil {
		return fmt.Errorf("core: factorising local system of part %d: %w", s.part, err)
	}
	s.solver = solver
	s.analysis = factor.AnalysisOf(solver)
	s.ports, _ = solver.(factor.PortSolver)
	s.portsOnly = nil
	if s.ports != nil {
		solver.SolveTo(s.rhs, s.baseRHS)
		copy(s.u0, s.rhs)
	} else if sn, ok := solver.(*factor.Supernodal); ok {
		s.portsOnly = sn.PortsOnly(s.baseRHS)
	}
	return nil
}

// Package dist runs DTM across the members of a transport.Transport — real
// processes over TCP, or in-process members for tests — with the DES engine
// retained as the deterministic oracle.
//
// The design exploits the paper's structure directly. DTM needs only
// unreliable neighbour-to-neighbour wave messages, so the data plane is wave
// packets (link id + wave value, sequence-numbered per directed part pair)
// carried verbatim by the transport, under the core.Shard protocol, so
// dropped packets and broken connections cost time, never correctness
// (Theorem 6.1 self-stabilisation). And because the tearing is deterministic —
// partitioning, impedance assignment and local factorisation depend only on
// the SpecV2 — workers do not ship matrices: every worker re-tears the
// same problem locally and builds exactly the subdomains the in-process
// engines would, so the wire carries only waves and small control messages.
//
// Roles: one coordinator (Coordinate) validates the spec without tearing it,
// assigns a contiguous range of subdomains to each worker (Worker.Run), takes
// the problem's dimension and twin links from the workers' ready replies
// (refusing a worker whose tear differs), polls statuses until the
// distributed stopping rule (core.Quiescent) holds on consecutive rounds,
// then gathers the owner fragments of X.
//
// A Fleet runs the whole thing in one process — the repository's one
// real-concurrency engine: dtmsolve -method live is a Fleet over a channel
// fabric with one worker per part, behind a transport.FaultClock.
package dist

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/factor"
	"repro/internal/sparse"
	"repro/internal/topology"
)

// SpecV2 names a deterministically reproducible torn problem: every member
// builds the same system, partition, impedances and factorisations from it,
// so assigning work requires no bulk data transfer.
//
// It carries a problem-source string from the sparse registry ("grid:…",
// "poisson:…", "spanner:…", "mm:path@fnv64hash", …), a topology string from
// the topology registry ("uniform", "ring", "mesh4x4", "mesh8x8", "torus",
// "yao:…") and the tearing shape. A source with a grid hint (grid, 2-D
// poisson, resistor) torn PartsX×PartsY keeps the paper's regular block
// tearing; everything else — an irregular source, or an explicit NParts — is
// torn with the general level-set + EVS pipeline (core.AutoProblem). A spec
// without a Source is refused at assign time, as is an mm: source whose file
// content does not hash to the pinned value (sparse.ErrHashMismatch): either
// way the member would have torn a different system than the rest of the
// fleet.
type SpecV2 struct {
	// V is the spec version; 2 is the only one.
	V int
	// Source is the problem-source string (sparse.ParseSource). Required.
	Source string
	// NParts, when positive, tears the source into this many subdomains with
	// the general pipeline. Zero defers to PartsX×PartsY (and, for grid
	// sources, to the paper's regular block tearing).
	NParts int
	// PartsX, PartsY tear the grid into PartsX·PartsY subdomains.
	PartsX, PartsY int
	// Topology names the machine, resolved through the topology registry:
	// "uniform" (default), "ring", "mesh4x4", "mesh8x8", "torus", or a
	// parameterised spec such as "yao:n=4,k=6,seed=1". The topology must have
	// at least Parts() processors.
	Topology string
	// Delay is the default link delay handed to sized topologies (uniform,
	// ring, yao); default 10 time units.
	Delay float64
}

// Parts returns the number of subdomains the spec tears into.
func (s *SpecV2) Parts() int {
	if s.NParts > 0 {
		return s.NParts
	}
	return s.PartsX * s.PartsY
}

// errNoSource refuses a spec that names no problem source.
var errNoSource = errors.New(`dist: spec has no problem source (the rows/cols/seed form is gone: send source "grid:rows=R,cols=C,seed=S")`)

// SourceString returns the canonical (validated, round-tripped) form of the
// spec's problem-source string. Hash folds it, so two spellings of the same
// source hash identically.
func (s *SpecV2) SourceString() (string, error) {
	if s.Source == "" {
		return "", errNoSource
	}
	src, err := sparse.ParseSource(s.Source)
	if err != nil {
		return "", err
	}
	return src.String(), nil
}

// TopologyString returns the spec's topology string with the default applied.
func (s *SpecV2) TopologyString() string {
	if s.Topology == "" {
		return "uniform"
	}
	return s.Topology
}

// delayOrDefault returns the spec's default link delay.
func (s *SpecV2) delayOrDefault() float64 {
	if s.Delay <= 0 {
		return topology.DefaultDelay
	}
	return s.Delay
}

// Build tears the problem. Deterministic: every call, in every process,
// yields the same system, partition and link numbering. Grid-shaped sources
// torn PartsX×PartsY keep the paper's regular block partitioning; everything
// else — irregular sources, or an explicit NParts — goes through the general
// level-set + EVS pipeline.
func (s *SpecV2) Build() (*core.Problem, error) {
	src, topo, err := s.resolve()
	if err != nil {
		return nil, err
	}
	sys, hint, err := src.Build()
	if err != nil {
		return nil, s.sourceError(err)
	}
	if hint.Grid && s.NParts == 0 && s.PartsX > 0 && s.PartsY > 0 {
		return core.GridProblem(sys, hint.NX, hint.NY, s.PartsX, s.PartsY, topo)
	}
	return core.AutoProblem(sys, s.Parts(), topo)
}

// Validate checks what can be checked without tearing: the source parses, an
// mm: file hashes to its pin, the spec tears into at least one part and the
// topology has a processor for each. The coordinator runs it instead of
// Build. A spec it accepts can still fail to tear (more parts than unknowns);
// the workers that tear it report that.
func (s *SpecV2) Validate() error {
	src, _, err := s.resolve()
	if err != nil {
		return err
	}
	if mm, ok := src.(sparse.MMSource); ok {
		if err := mm.Verify(); err != nil {
			return s.sourceError(err)
		}
	}
	return nil
}

// resolve runs the checks Build and Validate share and returns the parsed
// source and the resolved topology.
func (s *SpecV2) resolve() (sparse.Source, *topology.Topology, error) {
	if s.Source == "" {
		return nil, nil, errNoSource
	}
	src, err := sparse.ParseSource(s.Source)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: %w", err)
	}
	// The part counts arrive from outside and size the machine's delay table,
	// which ParseTopology bounds; bound each count first, so their product
	// cannot overflow.
	for _, c := range []int{s.NParts, s.PartsX, s.PartsY} {
		if c < 0 || c > topology.MaxProcessors {
			return nil, nil, fmt.Errorf("dist: spec part count %d is outside [0,%d]: %+v", c, topology.MaxProcessors, *s)
		}
	}
	n := s.Parts()
	if n < 1 {
		return nil, nil, fmt.Errorf("dist: spec tears into %d parts (set nparts or partsX/partsY): %+v", n, *s)
	}
	topo, err := topology.ParseTopology(s.Topology, n, s.delayOrDefault())
	if err != nil {
		return nil, nil, fmt.Errorf("dist: %w", err)
	}
	if topo.N() < n {
		return nil, nil, fmt.Errorf("dist: topology %s has %d processors, spec needs %d", topo.Name(), topo.N(), n)
	}
	return src, topo, nil
}

func (s *SpecV2) sourceError(err error) error {
	return fmt.Errorf("dist: building source %q: %w", s.Source, err)
}

// Oracle solves the spec's problem on the in-process DES engine — the
// deterministic reference a distributed run is compared against.
func (s *SpecV2) Oracle(tol float64, fs factor.Settings) (*core.Result, error) {
	p, err := s.Build()
	if err != nil {
		return nil, err
	}
	return core.Solve(context.Background(), p, core.Config{
		CommonOptions: core.CommonOptions{Tol: tol, Factor: fs},
		MaxTime:       1e9,
	})
}

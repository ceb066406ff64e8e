// Package factor is the pluggable local-factorisation subsystem behind every
// direct subsystem solve in the repository: the factor-once/solve-many local
// systems of DTM's subdomains (eq. 5.9 in the paper) and the diagonal blocks
// of the block-Jacobi baselines all go through the LocalSolver interface and
// the backend registry below.
//
// Registered backends:
//
//   - "dense-cholesky" — dense.Cholesky after densification; the right choice
//     for small blocks, O(n²) memory and O(n³) factor time. The one backend
//     that is a PortSolver: told how many leading unknowns are ports
//     (Settings.NewPorts), it eliminates them last, and the trailing block of
//     L is then the Cholesky factor of the Schur complement onto the ports —
//     a DTM subdomain's per-activation solve shrinks from n² to k² flops at
//     no extra set-up cost.
//   - "dense-lu" — dense.LU with partial pivoting; the fallback for small
//     blocks that are merely SNND (so Cholesky fails by a hair), for blocks
//     singular under diagonal pivots, and for unsymmetric input.
//   - "sparse-cholesky" — the sparse up-looking Cholesky of this package with
//     a fill-reducing ordering picked per block (nested dissection for large
//     grid-like patterns, reverse Cuthill–McKee for small ones, approximate
//     minimum degree for irregular ones); memory and factor time scale with
//     nnz(L), which for grid Laplacians is far below O(n²), unlocking
//     subdomain sizes that are flatly infeasible dense.
//   - "sparse-supernodal" — the blocked factorisation covering both symmetric
//     cases under one name (Cholesky for SPD blocks, LDLᵀ with 1×1 diagonal
//     pivots otherwise — the package's one sparse LDLᵀ, which factorises the
//     blocks that are merely SNND or indefinite at sparse cost): columns
//     group into supernodes on the postordered elimination tree, every
//     supernode factorises as a dense trapezoidal panel with register-blocked
//     rank-k updates, one supernode after another on the calling
//     goroutine. The fastest backend for large sparse blocks. Told how many
//     leading unknowns are ports, it marks their closure — the supernodes on
//     an elimination-tree path from a port column to a root — and offers a
//     ports-only solve (Supernodal.PortsOnly): for right-hand sides that
//     agree with a fixed base outside the ports it writes the port entries
//     SolveTo would, bit for bit, doing dense work on the closure alone.
//   - "auto" — picks a backend by size and density and performs the one
//     fallback chain (see newAuto): a block that is not positive definite
//     lands in the supernodal LDLᵀ on the sparse path and in dense LU on the
//     dense path, and dense LU is the last resort for a block singular under
//     diagonal pivots.
//
// The two sparse backends factorise on an Analysis (Analyze): the ordering,
// elimination tree, column counts and supernode partition of one sparsity
// pattern, computed once and shared by every factorisation of a matrix with
// that pattern (Settings.NewPortsOn, AnalysisOf).
//
// Every backend is deterministic: for a fixed backend name and input matrix
// the factor and all solves are byte-identical run over run, which the DES
// determinism guarantees of internal/core rely on.
package factor

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/dense"
	"repro/internal/sparse"
)

// Backend names understood by New. Auto is the package default: an empty
// Settings.Backend resolves to it.
const (
	DenseCholesky    = "dense-cholesky"
	DenseLU          = "dense-lu"
	SparseCholesky   = "sparse-cholesky"
	SparseSupernodal = "sparse-supernodal"
	Auto             = "auto"
)

// ErrNotPositiveDefinite is returned by the Cholesky backends when a pivot is
// not strictly positive (the matrix is not numerically SPD). It aliases the
// dense package's sentinel so errors.Is works across backends.
var ErrNotPositiveDefinite = dense.ErrNotPositiveDefinite

// ErrSingular is returned by dense LU and by LDLᵀ mode when a pivot is
// numerically zero (the matrix is singular to working precision). It aliases
// the dense package's sentinel so errors.Is works across backends.
var ErrSingular = dense.ErrSingular

// ErrDenseTooLarge is returned when a dense backend would have to allocate
// more than MaxDenseBytes. It turns an out-of-memory crash into a clean,
// testable error — and is exactly the wall the sparse backend removes.
var ErrDenseTooLarge = errors.New("factor: matrix too large to factorise densely")

// MaxDenseBytes caps the transient memory a dense factorisation may allocate:
// densifying the matrix plus the factor and its cached transpose costs about
// 24 bytes per n² entry. 2 GiB admits every per-subdomain block of the
// paper's workloads while refusing the whole-system sizes the E6
// scale-sparse experiment demonstrates the sparse backend on.
const MaxDenseBytes int64 = 2 << 30

// LocalSolver is the factor-once/solve-many contract every backend satisfies.
// SolveTo must be deterministic, must tolerate x aliasing b, and must be
// reentrant: concurrent SolveTo calls on one factor (into distinct x vectors)
// are safe and produce the same bytes a sequential caller would see — the
// sparse backends draw their permutation/gather scratch from a per-call pool,
// the dense ones write only into the caller's vectors. This is what lets a
// factored subdomain serve many solve streams at once.
type LocalSolver interface {
	// Dim returns the dimension of the factorised matrix.
	Dim() int
	// SolveTo solves A·x = b into x using the precomputed factor.
	SolveTo(x, b sparse.Vec)
	// Backend returns the name of the concrete backend that factorised the
	// matrix (for "auto" this is the backend the policy picked, so callers
	// can tell a Cholesky factorisation from the LU fallback).
	Backend() string
}

// PortSolver is the optional extension of LocalSolver for backends that
// factorise with the ports — the leading unknowns NewPorts was told about —
// eliminated last, and so hold the factor of the Schur complement S of the
// interior onto the ports as a by-product. Between two activations of a DTM
// subdomain only the port entries of the right-hand side change and only the
// port potentials leave it, so S⁻¹ is all an activation needs. SolvePorts is
// deterministic, tolerates u aliasing d and is reentrant, exactly like
// SolveTo.
type PortSolver interface {
	LocalSolver
	// SolvePorts solves S·u = d: u = (A⁻¹)_PP·d, the port potentials a
	// right-hand side that is d on the ports and zero inside produces.
	SolvePorts(u, d sparse.Vec)
}

// factorizer builds a LocalSolver from a sparse matrix whose first ports
// unknowns are ports, under the given fill-reducing ordering (the dense
// backends ignore the ordering; dense-lu and sparse-cholesky the ports). A
// sparse backend factorises on an, the analysis of a's pattern under that
// ordering, or analyses a itself when an is nil.
type factorizer func(a *sparse.CSR, order Ordering, ports int, an *Analysis) (LocalSolver, error)

// Solve is a convenience wrapper around SolveTo that allocates the solution.
func Solve(s LocalSolver, b sparse.Vec) sparse.Vec {
	x := sparse.NewVec(s.Dim())
	s.SolveTo(x, b)
	return x
}

// registry maps backend names to factorizers. It is filled once, in init
// (newAuto refers back to it, so a composite literal would be an
// initialisation cycle), and only read afterwards.
var registry map[string]factorizer

func init() {
	registry = map[string]factorizer{
		DenseCholesky:    newDenseCholesky,
		DenseLU:          newDenseLU,
		SparseCholesky:   newSparseCholeskyBackend,
		SparseSupernodal: newSparseSupernodalBackend,
		Auto:             newAuto,
	}
}

// Known reports whether a backend name is registered.
func Known(name string) bool {
	_, ok := registry[name]
	return ok
}

// Backends returns the registered backend names in sorted order.
func Backends() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Settings is everything a caller decides about a local factorisation: the
// backend and the fill-reducing ordering the sparse backends use. The zero
// value is the package default (Auto backend, OrderAuto). It is a plain value —
// every consumer (core.Config, iterative.Config, the CLIs) carries its own, so
// concurrent solves with different settings cannot interfere.
type Settings struct {
	// Backend names a registered backend; empty selects Auto.
	Backend string
	// Ordering is the fill-reducing ordering of the sparse backends.
	Ordering Ordering
}

// Validate reports an unregistered backend name or an out-of-range ordering.
func (s Settings) Validate() error {
	if s.Backend != "" && !Known(s.Backend) {
		return fmt.Errorf("factor: unknown backend %q (have %v)", s.Backend, Backends())
	}
	if s.Ordering < OrderAuto || s.Ordering > OrderND {
		return fmt.Errorf("factor: unknown ordering %d", s.Ordering)
	}
	return nil
}

// backend resolves the empty backend name to Auto.
func (s Settings) backend() string {
	if s.Backend == "" {
		return Auto
	}
	return s.Backend
}

// New factorises a as the settings say.
func (s Settings) New(a *sparse.CSR) (LocalSolver, error) { return s.NewPorts(a, 0) }

// NewPorts factorises a as the settings say, telling the backend that the
// first ports unknowns are the only ones whose right-hand side will change
// and whose solution will be read between full solves. dense-cholesky uses
// that to eliminate the ports last and returns a PortSolver; the supernodal
// backend (also when auto picks it, or falls back to its LDLᵀ) factorises as
// New does and marks the ports' closure, which its PortsOnly solve needs; the
// others factorise exactly as New does.
func (s Settings) NewPorts(a *sparse.CSR, ports int) (LocalSolver, error) {
	return s.NewPortsOn(nil, a, ports)
}

// NewPortsOn is NewPorts on a pattern already analysed under s.Ordering
// (nil: analyse it here, as NewPorts does): a sparse backend factorises on
// an and orders nothing. a must have an's off-diagonal pattern. Pass it the
// AnalysisOf an earlier factor of a matrix with a's pattern.
func (s Settings) NewPortsOn(an *Analysis, a *sparse.CSR, ports int) (LocalSolver, error) {
	if ports < 0 || ports > a.Rows() {
		return nil, fmt.Errorf("factor: %d ports in a system of %d unknowns", ports, a.Rows())
	}
	f, ok := registry[s.backend()]
	if !ok {
		return nil, fmt.Errorf("factor: unknown backend %q (have %v)", s.Backend, Backends())
	}
	if an != nil && an.requested != s.Ordering {
		return nil, fmt.Errorf("factor: an analysis under ordering %s for settings ordering %s", an.requested, s.Ordering)
	}
	return f(a, s.Ordering, ports, an)
}

// AnalysisOf returns the analysis a sparse factor was built on, or nil for
// the dense backends, which have none.
func AnalysisOf(f LocalSolver) *Analysis {
	switch f := f.(type) {
	case *Cholesky:
		return f.an
	case *Supernodal:
		return f.an
	}
	return nil
}

// analysisFor returns an, or the analysis of a under order when an is nil.
func analysisFor(a *sparse.CSR, order Ordering, an *Analysis) (*Analysis, error) {
	if an != nil {
		return an, nil
	}
	return Analyze(a, order)
}

// New factorises a with the named backend (empty for Auto) under the default
// ordering: shorthand for Settings{Backend: backend}.New(a).
func New(backend string, a *sparse.CSR) (LocalSolver, error) {
	return Settings{Backend: backend}.New(a)
}

// DenseBytesNeeded returns the transient allocation an n×n dense
// factorisation costs under the memory model of DenseFeasible (densified
// matrix + factor + cached transpose, 8 bytes each).
func DenseBytesNeeded(n int) int64 {
	return 24 * int64(n) * int64(n)
}

// DenseFeasible reports (as a nil/non-nil error) whether an n×n dense
// factorisation fits under MaxDenseBytes.
func DenseFeasible(n int) error { return denseFeasible(n, MaxDenseBytes) }

func denseFeasible(n int, capBytes int64) error {
	need := DenseBytesNeeded(n)
	if need > capBytes {
		return fmt.Errorf("%w: n=%d would need ~%.1f GiB, cap is %.1f GiB",
			ErrDenseTooLarge, n, float64(need)/(1<<30), float64(capBytes)/(1<<30))
	}
	return nil
}

// denseCholSolver is dense.Cholesky of the matrix with its unknowns rotated
// left by ports — interior first, the ports last — which makes the trailing
// ports×ports block of L the Cholesky factor of the Schur complement onto the
// ports. Callers never see the rotation: SolveTo takes and returns vectors in
// the matrix's own order.
type denseCholSolver struct {
	chol  *dense.Cholesky
	ports int
}

func (denseCholSolver) Backend() string { return DenseCholesky }

func (s denseCholSolver) Dim() int { return s.chol.Dim() }

// SolveTo rotates b into the factor's order inside x, solves in place and
// rotates back, so it allocates nothing and x may alias b.
func (s denseCholSolver) SolveTo(x, b sparse.Vec) {
	if s.ports == 0 || s.ports == len(x) {
		s.chol.SolveTo(x, b)
		return
	}
	copy(x, b)
	rotateLeft(x, s.ports)
	s.chol.SolveTo(x, x)
	rotateLeft(x, len(x)-s.ports)
}

func (s denseCholSolver) SolvePorts(u, d sparse.Vec) {
	if len(d) != s.ports {
		panic(fmt.Sprintf("factor: SolvePorts of %d values on a factor with %d ports", len(d), s.ports))
	}
	s.chol.SolveTrailingTo(u, d)
}

// rotateLeft rotates x left by k in place (x[i] becomes the old x[i+k]) by
// three reversals.
func rotateLeft(x sparse.Vec, k int) {
	slices.Reverse(x[:k])
	slices.Reverse(x[k:])
	slices.Reverse(x)
}

// FactorBytes estimates the dense factor's footprint (n² stored values).
func (s denseCholSolver) FactorBytes() int64 {
	n := int64(s.Dim())
	return 8 * n * n
}

// denseLUSolver adapts dense.LU (which already provides Dim and SolveTo) to
// the LocalSolver interface.
type denseLUSolver struct{ *dense.LU }

func (denseLUSolver) Backend() string { return DenseLU }

// FactorBytes estimates the dense LU footprint (factor plus its cached
// transpose, 16 bytes per entry).
func (s denseLUSolver) FactorBytes() int64 {
	n := int64(s.Dim())
	return 16 * n * n
}

func newDenseCholesky(a *sparse.CSR, _ Ordering, ports int, _ *Analysis) (LocalSolver, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, fmt.Errorf("factor: dense Cholesky of non-square %dx%d matrix", n, a.Cols())
	}
	if err := DenseFeasible(n); err != nil {
		return nil, err
	}
	// Densify straight into the rotated order: unknown i goes to i − ports,
	// wrapping the ports round to the end.
	m := dense.New(n, n)
	a.Each(func(i, j int, v float64) { m.Set((i+n-ports)%n, (j+n-ports)%n, v) })
	c, err := dense.NewCholesky(m)
	if err != nil {
		return nil, err
	}
	return denseCholSolver{chol: c, ports: ports}, nil
}

func newDenseLU(a *sparse.CSR, _ Ordering, _ int, _ *Analysis) (LocalSolver, error) {
	if err := DenseFeasible(a.Rows()); err != nil {
		return nil, err
	}
	lu, err := dense.NewLUCSR(a)
	if err != nil {
		return nil, err
	}
	return denseLUSolver{lu}, nil
}

func newSparseCholeskyBackend(a *sparse.CSR, order Ordering, _ int, an *Analysis) (LocalSolver, error) {
	an, err := analysisFor(a, order, an)
	if err != nil {
		return nil, err
	}
	return an.NewCholesky(a)
}

// newSparseSupernodalBackend covers both symmetric factorisations with one
// name: Cholesky when the matrix turns out SPD, LDLᵀ otherwise. A non-positive
// diagonal entry proves non-positive-definiteness up front (xᵀAx ≤ 0 for a
// unit vector), so that case skips the doomed Cholesky attempt entirely; the
// LDLᵀ retry factorises on the Cholesky attempt's analysis. The factor marks
// the ports' closure, which offers the ports-only solve.
func newSparseSupernodalBackend(a *sparse.CSR, order Ordering, ports int, an *Analysis) (LocalSolver, error) {
	an, err := analysisFor(a, order, an)
	if err != nil {
		return nil, err
	}
	mode := ModeCholesky
	if !hasPosDiag(a) {
		mode = ModeLDLT
	}
	s, err := an.NewSupernodal(a, mode)
	if mode == ModeCholesky && errors.Is(err, ErrNotPositiveDefinite) {
		s, err = an.NewSupernodal(a, ModeLDLT)
	}
	if err != nil {
		return nil, err
	}
	s.markClosure(ports)
	return s, nil
}

// hasPosDiag reports whether every diagonal entry of a is strictly positive —
// a necessary condition for positive definiteness that is cheap to test.
func hasPosDiag(a *sparse.CSR) bool {
	for i := 0; i < a.Rows(); i++ {
		d := 0.0 // a missing diagonal entry is zero
		cols, vals := a.RowView(i)
		for t, j := range cols {
			if j >= i {
				if j == i {
					d = vals[t]
				}
				break
			}
		}
		if d <= 0 {
			return false
		}
	}
	return true
}

// Auto policy thresholds: blocks below autoSparseMinDim solve fastest with
// the cache-friendly dense kernels; above it, a block whose density is below
// autoMaxDensity is factorised sparsely — its Cholesky with the scalar
// up-looking kernels up to autoSupernodalMinDim unknowns, and with the
// supernodal blocked kernels beyond (below that the panel machinery costs
// more than the dense sub-blocks recover).
const (
	autoSparseMinDim     = 200
	autoMaxDensity       = 0.25
	autoSupernodalMinDim = 800
)

// autoPicksSparse reports whether the auto policy factorises an n-dimensional
// block with the given nnz sparsely (either because a dense factor cannot be
// allocated at all, or because the block is large and sparse enough that the
// sparse kernels win).
func autoPicksSparse(n, nnz int) bool {
	if DenseFeasible(n) != nil {
		return true
	}
	if n < autoSparseMinDim {
		return false
	}
	return float64(nnz)/(float64(n)*float64(n)) <= autoMaxDensity
}

// newAuto picks a backend by size and density and runs the package's one
// fallback chain:
//
//	dense path     dense-cholesky  → (not PD)   → dense-lu
//	sparse, n<800  sparse-cholesky → (not PD)   → supernodal LDLᵀ → (singular) → dense-lu
//	sparse, n≥800  sparse-supernodal (Cholesky → LDLᵀ) → (singular)   → dense-lu
//
// so a block that is both huge and merely SNND factorises sparsely instead of
// dying at ErrDenseTooLarge, and dense LU's row pivoting is the last resort
// for a block that diagonal pivots find singular. The sparse steps share one
// analysis.
func newAuto(a *sparse.CSR, order Ordering, ports int, an *Analysis) (LocalSolver, error) {
	n := a.Rows()
	first := DenseCholesky
	if autoPicksSparse(n, a.NNZ()) {
		first = SparseCholesky
		if n >= autoSupernodalMinDim {
			first = SparseSupernodal
		}
		var err error
		if an, err = analysisFor(a, order, an); err != nil {
			return nil, err
		}
	}
	s, err := registry[first](a, order, ports, an)
	if err == nil {
		return s, nil
	}
	switch {
	case first == SparseSupernodal:
		// Its own Cholesky → LDLᵀ chain has run: the block is singular under
		// diagonal pivots.
	case !errors.Is(err, ErrNotPositiveDefinite):
		return nil, err
	case first == SparseCholesky:
		// At best SNND: LDLᵀ has the same sparse cost model and no
		// definiteness requirement.
		ldlt, lErr := an.NewSupernodal(a, ModeLDLT)
		if lErr == nil {
			ldlt.markClosure(ports)
			return ldlt, nil
		}
		err = fmt.Errorf("%v; supernodal LDLT: %w", err, lErr)
	}
	lu, luErr := newDenseLU(a, order, ports, nil)
	if luErr != nil {
		return nil, fmt.Errorf("factor: auto fallback after %v: %w", err, luErr)
	}
	return lu, nil
}

package sparse

import (
	"fmt"
	"math/rand"
)

// System couples a coefficient matrix with a right-hand side. It is the unit
// that the generators below produce and that every solver in the repository
// consumes.
type System struct {
	A *CSR
	B Vec
	// Name identifies the workload (used in experiment reports).
	Name string
}

// Dim returns the number of unknowns.
func (s System) Dim() int { return s.A.Rows() }

// PaperExample returns the 4-unknown system of equation (3.2) in the paper:
//
//	[  5 -1 -1  0 ] [x1]   [1]
//	[ -1  6 -2 -1 ] [x2] = [2]
//	[ -1 -2  7 -2 ] [x3]   [3]
//	[  0 -1 -2  8 ] [x4]   [4]
//
// It is SPD and is the running example for EVS and DTM (Examples 3.1, 4.1, 5.1).
func PaperExample() System {
	a := [][]float64{
		{5, -1, -1, 0},
		{-1, 6, -2, -1},
		{-1, -2, 7, -2},
		{0, -1, -2, 8},
	}
	return System{
		A:    NewCSRFromDense(a, 0),
		B:    Vec{1, 2, 3, 4},
		Name: "paper-example-4",
	}
}

// Poisson2D returns the 5-point finite-difference Laplacian on an nx×ny grid
// with homogeneous Dirichlet boundary conditions (the boundary is eliminated),
// which is the canonical sparse SPD test family. shift >= 0 is added to the
// diagonal (a strictly positive shift makes every EVS subgraph strictly
// diagonally dominant, which the convergence theorem checker likes).
//
// The unknown at grid point (ix, iy) has index ix + iy*nx. The right-hand side
// is a smooth deterministic field so runs are reproducible without a seed.
func Poisson2D(nx, ny int, shift float64) System {
	if nx <= 0 || ny <= 0 {
		panic(fmt.Sprintf("sparse: Poisson2D invalid grid %dx%d", nx, ny))
	}
	n := nx * ny
	coo := NewCOO(n, n)
	coo.Grow(5 * n)
	idx := func(ix, iy int) int { return ix + iy*nx }
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			i := idx(ix, iy)
			coo.Add(i, i, 4+shift)
			if ix > 0 {
				coo.Add(i, idx(ix-1, iy), -1)
			}
			if ix < nx-1 {
				coo.Add(i, idx(ix+1, iy), -1)
			}
			if iy > 0 {
				coo.Add(i, idx(ix, iy-1), -1)
			}
			if iy < ny-1 {
				coo.Add(i, idx(ix, iy+1), -1)
			}
		}
	}
	b := NewVec(n)
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			// A smooth, non-trivial source term.
			x := float64(ix+1) / float64(nx+1)
			y := float64(iy+1) / float64(ny+1)
			b[idx(ix, iy)] = 1 + x*(1-x)*y*(1-y)*16
		}
	}
	return System{A: coo.ToCSR(), B: b, Name: fmt.Sprintf("poisson2d-%dx%d", nx, ny)}
}

// Poisson3D returns the 7-point Laplacian on an nx×ny×nz grid with Dirichlet
// boundary, with an optional diagonal shift.
func Poisson3D(nx, ny, nz int, shift float64) System {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("sparse: Poisson3D invalid grid %dx%dx%d", nx, ny, nz))
	}
	n := nx * ny * nz
	coo := NewCOO(n, n)
	coo.Grow(7 * n)
	idx := func(ix, iy, iz int) int { return ix + nx*(iy+ny*iz) }
	for iz := 0; iz < nz; iz++ {
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				i := idx(ix, iy, iz)
				coo.Add(i, i, 6+shift)
				if ix > 0 {
					coo.Add(i, idx(ix-1, iy, iz), -1)
				}
				if ix < nx-1 {
					coo.Add(i, idx(ix+1, iy, iz), -1)
				}
				if iy > 0 {
					coo.Add(i, idx(ix, iy-1, iz), -1)
				}
				if iy < ny-1 {
					coo.Add(i, idx(ix, iy+1, iz), -1)
				}
				if iz > 0 {
					coo.Add(i, idx(ix, iy, iz-1), -1)
				}
				if iz < nz-1 {
					coo.Add(i, idx(ix, iy, iz+1), -1)
				}
			}
		}
	}
	b := NewVec(n)
	for i := range b {
		b[i] = 1
	}
	return System{A: coo.ToCSR(), B: b, Name: fmt.Sprintf("poisson3d-%dx%dx%d", nx, ny, nz)}
}

// Tridiagonal returns the n×n symmetric tridiagonal matrix with the given
// diagonal and off-diagonal values and right-hand side of all ones. With
// diag >= 2*|off| it is SPD (e.g. the 1-D Laplacian diag=2, off=-1 plus shift).
func Tridiagonal(n int, diag, off float64) System {
	if n <= 0 {
		panic("sparse: Tridiagonal requires n > 0")
	}
	coo := NewCOO(n, n)
	coo.Grow(3 * n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, diag)
		if i > 0 {
			coo.Add(i, i-1, off)
		}
		if i < n-1 {
			coo.Add(i, i+1, off)
		}
	}
	b := NewVec(n)
	b.Fill(1)
	return System{A: coo.ToCSR(), B: b, Name: fmt.Sprintf("tridiag-%d", n)}
}

// RandomSPD returns a random sparse strictly diagonally dominant SPD system,
// matching the paper's "randomly generated sparse SPD linear systems". Each
// off-diagonal position below the diagonal is populated with probability
// density with a negative weight in [-1, 0); the diagonal is the sum of the
// absolute off-diagonal row values plus a positive margin, which guarantees
// strict diagonal dominance and hence positive definiteness.
func RandomSPD(n int, density float64, seed int64) System {
	if n <= 0 {
		panic("sparse: RandomSPD requires n > 0")
	}
	if density < 0 || density > 1 {
		panic("sparse: RandomSPD density must be in [0,1]")
	}
	rng := rand.New(rand.NewSource(seed))
	coo := NewCOO(n, n)
	coo.Grow(3*n + int(density*float64(n)*float64(n))) // the expected count
	rowSum := make([]float64, n)
	for i := 1; i < n; i++ {
		// Always connect i to i-1 so the graph is connected.
		w := -(0.2 + 0.8*rng.Float64())
		coo.AddSym(i, i-1, w)
		rowSum[i] += -w
		rowSum[i-1] += -w
		for j := 0; j < i-1; j++ {
			if rng.Float64() < density {
				w := -(0.1 + 0.9*rng.Float64())
				coo.AddSym(i, j, w)
				rowSum[i] += -w
				rowSum[j] += -w
			}
		}
	}
	for i := 0; i < n; i++ {
		margin := 0.5 + rng.Float64()
		coo.Add(i, i, rowSum[i]+margin)
	}
	b := NewVec(n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return System{A: coo.ToCSR(), B: b, Name: fmt.Sprintf("random-spd-%d-seed%d", n, seed)}
}

// RandomGridSPD returns a random SPD system whose sparsity pattern is the 2-D
// grid (so it can be "regularly partitioned" exactly as the paper describes),
// but whose edge weights and diagonal margins are random. This is the closest
// synthetic match to the paper's n = 289 / 1089 / 4225 workloads.
func RandomGridSPD(nx, ny int, seed int64) System {
	if nx <= 0 || ny <= 0 {
		panic(fmt.Sprintf("sparse: RandomGridSPD invalid grid %dx%d", nx, ny))
	}
	rng := rand.New(rand.NewSource(seed))
	n := nx * ny
	a := NewRowBuilder(n, n, func(int) int { return 5 }) // four neighbours and the diagonal
	rowSum := make([]float64, n)
	idx := func(ix, iy int) int { return ix + iy*nx }
	addEdge := func(i, j int) {
		w := -(0.3 + 0.7*rng.Float64())
		a.AddSym(i, j, w)
		rowSum[i] += -w
		rowSum[j] += -w
	}
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			i := idx(ix, iy)
			if ix < nx-1 {
				addEdge(i, idx(ix+1, iy))
			}
			if iy < ny-1 {
				addEdge(i, idx(ix, iy+1))
			}
		}
	}
	for i := 0; i < n; i++ {
		a.Add(i, i, rowSum[i]+0.3+0.7*rng.Float64())
	}
	b := NewVec(n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return System{A: a.ToCSR(), B: b, Name: fmt.Sprintf("random-grid-spd-%dx%d-seed%d", nx, ny, seed)}
}

// ResistorNetwork returns the nodal-analysis system of a random resistor grid:
// an (nx*ny)-node resistive mesh with conductances in (0.5, 1.5], one grounded
// reference node handled by a strictly positive leak conductance at every node,
// and current injections at two corners. This is the circuit workload the
// electric-graph language of the paper comes from.
func ResistorNetwork(nx, ny int, seed int64) System {
	if nx <= 0 || ny <= 0 {
		panic(fmt.Sprintf("sparse: ResistorNetwork invalid grid %dx%d", nx, ny))
	}
	rng := rand.New(rand.NewSource(seed))
	n := nx * ny
	coo := NewCOO(n, n)
	coo.Grow(5 * n)
	diag := make([]float64, n)
	idx := func(ix, iy int) int { return ix + iy*nx }
	addR := func(i, j int) {
		g := 0.5 + rng.Float64()
		coo.AddSym(i, j, -g)
		diag[i] += g
		diag[j] += g
	}
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			i := idx(ix, iy)
			if ix < nx-1 {
				addR(i, idx(ix+1, iy))
			}
			if iy < ny-1 {
				addR(i, idx(ix, iy+1))
			}
			// Leak conductance to ground keeps the system SPD (not just SSPD).
			diag[i] += 0.01 + 0.02*rng.Float64()
		}
	}
	for i := 0; i < n; i++ {
		coo.Add(i, i, diag[i])
	}
	b := NewVec(n)
	b[0] = 1               // current injected at one corner
	b[n-1] = -0.5          // partially extracted at the opposite corner
	b[idx(nx-1, 0)] = 0.25 // and a smaller injection at a third corner
	return System{A: coo.ToCSR(), B: b, Name: fmt.Sprintf("resistor-%dx%d-seed%d", nx, ny, seed)}
}

// SaddlePoisson2D returns the symmetric quasi-definite saddle-point system
//
//	[ A   B ] [u]   [f]
//	[ Bᵀ  -C ] [λ] = [g]
//
// with A the SPD 5-point Laplacian on an nx×ny grid, one multiplier row per
// grid row coupling every node of that row (B dense within the row, so the
// multiplier rows have off-diagonal degree nx — an irregular, decidedly
// non-stencil pattern), and C = gamma·I, gamma > 0. The system is symmetric,
// nonsingular and indefinite: its inertia is (nx·ny positive, ny negative), so
// every Cholesky backend rejects it, while an LDLᵀ with 1×1 diagonal pivots
// factorises it under any symmetric permutation (quasi-definiteness is exactly
// the strong-factorability condition). It is the workload of the E6 non-SPD
// leg: at large nx·ny it is simultaneously beyond the dense memory cap and
// outside the SPD class, the combination that used to be unsolvable.
func SaddlePoisson2D(nx, ny int, gamma float64) System {
	if nx <= 0 || ny <= 0 {
		panic(fmt.Sprintf("sparse: SaddlePoisson2D invalid grid %dx%d", nx, ny))
	}
	if gamma <= 0 {
		panic("sparse: SaddlePoisson2D requires gamma > 0 for quasi-definiteness")
	}
	grid := Poisson2D(nx, ny, 0.05)
	n := nx * ny
	total := n + ny
	coo := NewCOO(total, total)
	coo.Grow(grid.A.NNZ() + 2*n + ny)
	grid.A.Each(func(i, j int, v float64) { coo.Add(i, j, v) })
	for iy := 0; iy < ny; iy++ {
		lam := n + iy
		for ix := 0; ix < nx; ix++ {
			// Each multiplier constrains the mean of its grid row (scaled so the
			// coupling is O(1) regardless of nx).
			coo.AddSym(ix+iy*nx, lam, 1/float64(nx))
		}
		coo.Add(lam, lam, -gamma)
	}
	b := NewVec(total)
	copy(b, grid.B)
	for iy := 0; iy < ny; iy++ {
		// A smooth, deterministic constraint target.
		y := float64(iy+1) / float64(ny+1)
		b[n+iy] = y * (1 - y)
	}
	return System{A: coo.ToCSR(), B: b, Name: fmt.Sprintf("saddle-poisson2d-%dx%d", nx, ny)}
}

// RandomVec returns a length-n vector with standard normal entries drawn from
// the given seed.
func RandomVec(n int, seed int64) Vec {
	rng := rand.New(rand.NewSource(seed))
	v := NewVec(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

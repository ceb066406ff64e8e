package iterative

import (
	"fmt"
	"sort"

	"repro/internal/factor"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// blockData is the per-part state shared by the synchronous and asynchronous
// block-Jacobi solvers: the factorised diagonal block, the couplings to
// off-block unknowns, and the lists of values to exchange with each neighbour.
type blockData struct {
	part   int
	own    []int       // global indices owned by this block, ascending
	ownPos map[int]int // global -> position in own
	solver factor.LocalSolver
	b      sparse.Vec // local right-hand side
	rhs    sparse.Vec // solveLocal scratch, hoisted so sweeps allocate nothing
	// ext[i] lists the off-block couplings of owned row i.
	ext [][]extCoupling
	// sendTo[q] lists the owned globals that part q needs from us.
	sendTo map[int][]int
	// neighbours, sorted.
	adjacent []int
}

type extCoupling struct {
	global int
	val    float64
}

// buildBlocks prepares the block-Jacobi data for every part of an assignment.
// fs says how every diagonal block is factorised (the zero value is the auto
// policy, which keeps the classic Cholesky → LU fallback for non-SPD blocks).
func buildBlocks(a *sparse.CSR, b sparse.Vec, assign partition.Assignment, fs factor.Settings) ([]*blockData, error) {
	n := a.Rows()
	if len(assign.Assign) != n {
		return nil, fmt.Errorf("iterative: assignment covers %d vertices, matrix has %d", len(assign.Assign), n)
	}
	blocks := make([]*blockData, assign.Parts)
	for p := range blocks {
		blocks[p] = &blockData{
			part:   p,
			ownPos: make(map[int]int),
			sendTo: make(map[int][]int),
		}
	}
	for v := 0; v < n; v++ {
		p := assign.Assign[v]
		blocks[p].ownPos[v] = len(blocks[p].own)
		blocks[p].own = append(blocks[p].own, v)
	}
	for p, blk := range blocks {
		dim := len(blk.own)
		if dim == 0 {
			return nil, fmt.Errorf("iterative: part %d owns no vertices", p)
		}
		coo := sparse.NewCOO(dim, dim)
		blk.b = sparse.NewVec(dim)
		blk.rhs = sparse.NewVec(dim)
		blk.ext = make([][]extCoupling, dim)
		adjacent := map[int]bool{}
		needFrom := map[int]map[int]bool{} // neighbour part -> set of globals we need
		for li, gv := range blk.own {
			blk.b[li] = b[gv]
			a.Row(gv, func(j int, val float64) {
				if assign.Assign[j] == p {
					coo.Add(li, blk.ownPos[j], val)
					return
				}
				q := assign.Assign[j]
				adjacent[q] = true
				blk.ext[li] = append(blk.ext[li], extCoupling{global: j, val: val})
				if needFrom[q] == nil {
					needFrom[q] = map[int]bool{}
				}
				needFrom[q][j] = true
			})
		}
		local := coo.ToCSR()
		solver, err := fs.New(local)
		if err != nil {
			return nil, fmt.Errorf("iterative: factorising diagonal block of part %d: %w", p, err)
		}
		blk.solver = solver
		for q := range adjacent {
			blk.adjacent = append(blk.adjacent, q)
		}
		sort.Ints(blk.adjacent)
		// Record, on the sending side, which of its owned values each
		// neighbouring block must ship to p.
		for src, set := range needFrom {
			var list []int
			for gv := range set {
				list = append(list, gv)
			}
			sort.Ints(list)
			blocks[src].sendTo[p] = list
		}
	}
	return blocks, nil
}

// solveLocal computes the block update given the current global estimate and
// writes the owned entries of the result into xNew.
func (blk *blockData) solveLocal(xGlobal sparse.Vec, out sparse.Vec) {
	rhs := blk.rhs
	for li := range blk.own {
		s := blk.b[li]
		for _, c := range blk.ext[li] {
			s -= c.val * xGlobal[c.global]
		}
		rhs[li] = s
	}
	blk.solver.SolveTo(out, rhs)
}

// BlockJacobi runs the synchronous block-Jacobi (one-level additive Schwarz
// without overlap) iteration under the given vertex-to-part assignment. Every
// sweep solves all diagonal blocks against the previous iterate and then
// exchanges boundary values — the synchronous domain-decomposition baseline
// the paper's introduction refers to.
func BlockJacobi(a *sparse.CSR, b sparse.Vec, assign partition.Assignment, cfg Config) (sparse.Vec, Stats, error) {
	n := a.Rows()
	if err := cfg.validate(n); err != nil {
		return nil, Stats{}, err
	}
	blocks, err := buildBlocks(a, b, assign, cfg.Factor)
	if err != nil {
		return nil, Stats{}, err
	}
	x := sparse.NewVec(n)
	xNew := sparse.NewVec(n)
	locals := make([]sparse.Vec, len(blocks))
	for p, blk := range blocks {
		locals[p] = sparse.NewVec(len(blk.own))
	}
	st := Stats{}
	for k := 1; k <= cfg.MaxIterations; k++ {
		for p, blk := range blocks {
			blk.solveLocal(x, locals[p])
		}
		for p, blk := range blocks {
			for li, gv := range blk.own {
				xNew[gv] = locals[p][li]
			}
		}
		x, xNew = xNew, x
		st.Iterations = k
		if cfg.Exact != nil {
			st.ErrorTrace = append(st.ErrorTrace, x.RMSError(cfg.Exact))
		}
		if rr := a.RelResidual(x, b); rr <= cfg.Tol {
			st.Converged = true
			break
		}
	}
	st.Residual = a.RelResidual(x, b)
	return x, st, nil
}

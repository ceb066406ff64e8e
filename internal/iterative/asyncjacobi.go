package iterative

import (
	"fmt"
	"math"

	"repro/internal/factor"
	"repro/internal/netsim"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/topology"
)

// AsyncOptions configures the asynchronous block-Jacobi baseline, which runs
// on the same discrete-event network simulator as DTM: one block per
// processor, no synchronisation, each block re-solving whenever fresh
// neighbour values arrive and sending its own boundary values onwards. It is
// the "traditional asynchronous algorithm" (Baudet-style chaotic relaxation)
// the paper's introduction contrasts DTM with.
type AsyncOptions struct {
	// MaxTime is the virtual time horizon (same unit as the topology delays).
	MaxTime float64
	// Tol stops the run when every block's last update moved its values by
	// less than Tol.
	Tol float64
	// Exact, when non-nil, enables the RMS-error trace.
	Exact sparse.Vec
	// RecordTrace enables the error trace.
	RecordTrace bool
	// Factor says how the diagonal blocks are factorised (the zero value is
	// auto).
	Factor factor.Settings
}

// AsyncTracePoint is one monitor sample of an asynchronous block-Jacobi run.
type AsyncTracePoint struct {
	Time     float64
	RMSError float64
}

// AsyncResult is the outcome of an asynchronous block-Jacobi run.
type AsyncResult struct {
	X         sparse.Vec
	Converged bool
	FinalTime float64
	RMSError  float64
	Residual  float64
	Solves    int
	Messages  int
	Trace     []AsyncTracePoint
}

type ajEngine struct {
	x      sparse.Vec // global view assembled from owner blocks
	exact  sparse.Vec
	solves int
	last   []float64
	solved []bool
	// diverged is set by the first block change that is not finite: NaN and
	// ±Inf never leave the iterates once they appear, so the run ends there.
	diverged bool
	trace    []AsyncTracePoint
	// pool recycles ajValue slices between sender and receiver; the DES run is
	// single-threaded, so the plain free list keeps the hot path allocation-free.
	pool netsim.Pool[ajValue]
}

type ajPacket struct {
	values []ajValue
}

type ajValue struct {
	global int
	val    float64
}

type ajNode struct {
	eng *ajEngine
	blk *blockData
	// xView is this block's private view of the global vector (only the halo
	// and owned entries are ever read).
	xView   sparse.Vec
	local   sparse.Vec
	compute float64
	// outs is the reused outgoing buffer; netsim copies it before reuse.
	outs []netsim.Outgoing[ajPacket]
}

func (n *ajNode) Init(now float64) []netsim.Outgoing[ajPacket] {
	// Announce the initial (zero) boundary values to bootstrap the exchange.
	return n.packets()
}

func (n *ajNode) OnMessages(now float64, msgs []netsim.Message[ajPacket]) []netsim.Outgoing[ajPacket] {
	for i := range msgs {
		values := msgs[i].Payload.values
		for _, v := range values {
			n.xView[v.global] = v.val
		}
		n.eng.pool.Put(values)
	}
	n.blk.solveLocal(n.xView, n.local)
	var change float64
	for li, gv := range n.blk.own {
		change = max(change, math.Abs(n.local[li]-n.xView[gv])) // NaN propagates
		n.xView[gv] = n.local[li]
		n.eng.x[gv] = n.local[li]
	}
	p := n.blk.part
	n.eng.last[p] = change
	n.eng.solved[p] = true
	n.eng.solves++
	n.eng.diverged = n.eng.diverged || math.IsNaN(change) || math.IsInf(change, 0)
	return n.packets()
}

func (n *ajNode) ComputeTime(int) float64 { return n.compute }

func (n *ajNode) packets() []netsim.Outgoing[ajPacket] {
	n.outs = n.outs[:0]
	for _, q := range n.blk.adjacent {
		list := n.blk.sendTo[q]
		if len(list) == 0 {
			continue
		}
		values := n.eng.pool.Get(len(list))
		for _, gv := range list {
			values = append(values, ajValue{global: gv, val: n.xView[gv]})
		}
		n.outs = append(n.outs, netsim.Outgoing[ajPacket]{To: q, Payload: ajPacket{values: values}})
	}
	return n.outs
}

// AsyncBlockJacobi runs the asynchronous block-Jacobi iteration on the given
// machine and returns the assembled solution. One block is mapped to one
// processor; messages carry boundary values and experience the topology's
// directed delays, exactly like DTM's wave messages do. A block change that
// is not finite ends the run at once with Converged false: the iterates
// diverged, and NaN never leaves them.
func AsyncBlockJacobi(a *sparse.CSR, b sparse.Vec, assign partition.Assignment, topo *topology.Topology, opts AsyncOptions) (*AsyncResult, error) {
	n := a.Rows()
	if !(opts.MaxTime > 0) { // NaN too
		return nil, fmt.Errorf("iterative: AsyncOptions.MaxTime must be positive")
	}
	if opts.Exact != nil && len(opts.Exact) != n {
		return nil, fmt.Errorf("iterative: Exact has length %d, want %d", len(opts.Exact), n)
	}
	blocks, err := buildBlocks(a, b, assign, opts.Factor)
	if err != nil {
		return nil, err
	}
	if !(opts.Tol >= 0) { // NaN too
		return nil, fmt.Errorf("iterative: AsyncOptions.Tol must be non-negative, got %g", opts.Tol)
	}
	if topo.N() < len(blocks) {
		return nil, fmt.Errorf("iterative: %d blocks but only %d processors", len(blocks), topo.N())
	}

	// Block i runs on processor i, and a local solve takes as long as one of
	// DTM's.
	adjacent := make([][]int, len(blocks))
	for p, blk := range blocks {
		adjacent[p] = blk.adjacent
	}
	compute := topology.LocalSolveTime(adjacent, topo.Delay)

	eng := &ajEngine{
		x:      sparse.NewVec(n),
		exact:  opts.Exact,
		last:   make([]float64, len(blocks)),
		solved: make([]bool, len(blocks)),
	}
	for i := range eng.last {
		eng.last[i] = math.Inf(1)
	}

	nodes := make([]netsim.Node[ajPacket], len(blocks))
	for p, blk := range blocks {
		nodes[p] = &ajNode{
			eng:     eng,
			blk:     blk,
			xView:   sparse.NewVec(n),
			local:   sparse.NewVec(len(blk.own)),
			compute: compute,
		}
	}
	sim := netsim.New(nodes, topo.Delay)
	sim.SetObserver(func(now float64, node int) {
		if !opts.RecordTrace {
			return
		}
		rms := math.NaN()
		if eng.exact != nil {
			rms = eng.x.RMSError(eng.exact)
		}
		eng.trace = append(eng.trace, AsyncTracePoint{Time: now, RMSError: rms})
	})
	converged := false
	sim.SetStopCondition(func(now float64) bool {
		if eng.diverged {
			return true
		}
		if opts.Tol <= 0 {
			return false
		}
		for p := range blocks {
			if !eng.solved[p] || !(eng.last[p] <= opts.Tol) { // NaN too
				return false
			}
		}
		// The per-block change test alone can fire spuriously: a block that
		// re-solves against halo values that have not changed (e.g. a second
		// batch of the initial zero announcements) reports a zero update even
		// though the real exchange has barely started. Confirm with the global
		// relative residual, which is only evaluated when the cheap per-block
		// test already passes.
		if !(a.RelResidual(eng.x, b) <= opts.Tol) {
			return false
		}
		converged = true
		return true
	})

	stats := sim.Run(opts.MaxTime)
	res := &AsyncResult{
		X:         eng.x.Clone(),
		Converged: converged,
		FinalTime: stats.Time,
		Solves:    eng.solves,
		Messages:  stats.Messages,
		Trace:     eng.trace,
		RMSError:  math.NaN(),
	}
	if opts.Exact != nil {
		res.RMSError = res.X.RMSError(opts.Exact)
	}
	res.Residual = a.RelResidual(res.X, b)
	return res, nil
}

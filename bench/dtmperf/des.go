package main

import (
	"context"
	"runtime"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dtl"
	"repro/internal/factor"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/topology"
)

// meter measures the tts_s interval: wall, process CPU and bytes allocated.
type meter struct {
	t0    time.Time
	cpu0  float64
	heap0 uint64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// startMeter collects the previous rep's garbage first, so every rep starts
// from the same heap and pays only for its own allocations.
func startMeter() meter {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{cpu0: cpuSeconds(), heap0: ms.TotalAlloc, t0: time.Now()}
}

// stop closes the interval and returns the sample's cost metrics.
func (m meter) stop() (end time.Time, metrics map[string]float64) {
	end = time.Now()
	cpu := cpuSeconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return end, map[string]float64{
		"tts_s":    end.Sub(m.t0).Seconds(),
		"cpu_s":    cpu - m.cpu0,
		"alloc_mb": float64(ms.TotalAlloc-m.heap0) / 1e6,
	}
}

// torn is what the set-up pipeline hands to core.Solve.
type torn struct {
	sys    sparse.System
	assign partition.Assignment
	part   *partition.Result
	p      *core.Problem
}

// tear runs spec strings → core.Problem the way core.GridProblem and
// core.AutoProblem do, with a span around each call into a layer.
func (l *lane) tear(tr *tracer, root int) (*torn, error) {
	p, in := l.p, l.in
	id := tr.begin("sparse.source_build", root)
	src, err := sparse.ParseSource(p.source)
	if err != nil {
		return nil, err
	}
	sys, hint, err := src.Build()
	if err != nil {
		return nil, err
	}
	tr.end(id)
	sys.B = in.b

	id = tr.begin("topology.build", root)
	topo, err := topology.ParseTopology(p.topology, p.parts(), 10)
	if err != nil {
		return nil, err
	}
	tr.end(id)

	id = tr.begin("graph.from_system", root)
	g, err := graph.FromSystem(sys.A, sys.B)
	if err != nil {
		return nil, err
	}
	tr.end(id)

	id = tr.begin("partition.assign", root)
	var assign partition.Assignment
	if p.nparts > 0 {
		assign = partition.LevelSetGrow(g, p.nparts)
	} else {
		assign = partition.GridBlocks(hint.NX, hint.NY, p.px, p.py)
	}
	tr.end(id)

	id = tr.begin("partition.evs", root)
	part, err := partition.EVS(g, assign, partition.Options{})
	if err != nil {
		return nil, err
	}
	tr.end(id)

	prob, err := core.NewProblem(sys, part, topo, nil)
	if err != nil {
		return nil, err
	}
	return &torn{sys, assign, part, prob}, nil
}

// runDES is one rep on the DES engine: spec strings → X. Verification and the
// standalone layer timings happen after the clock has stopped.
func (l *lane) runDES(tr *tracer) sample {
	in := l.in
	tr.nextRep()
	m := startMeter()
	root := tr.begin("solve", -1)
	t, err := l.tear(tr, root)
	if err != nil {
		return failed(err)
	}
	cfg := core.Config{CommonOptions: core.CommonOptions{Tol: l.p.tol}, MaxTime: 1e9}
	if cfg.Faults, err = chaos.ParseSpec(in.faults); err != nil {
		return failed(err)
	}
	solveStart := time.Now()
	id := tr.begin("core.solve_call", root)
	res, err := core.Solve(context.Background(), t.p, cfg)
	if err != nil {
		return failed(err)
	}
	tr.end(id)
	tr.end(root)
	_, mt := m.stop()

	if err := in.check(res.X, res.Converged); err != nil {
		return failed(err)
	}

	// What core.Solve did before its first wave could move, timed on its own:
	// the same impedance assignment and factorisations, after the solve so it
	// cannot have warmed it.
	start := time.Now()
	subs, _, err := t.p.BuildSubdomains(nil, "")
	if err != nil {
		return failed(err)
	}
	buildSubdomains := time.Since(start).Seconds()

	mt["setup_s"] = solveStart.Sub(m.t0).Seconds() + buildSubdomains
	mt["iterate_s"] = mt["tts_s"] - mt["setup_s"]
	mt["virtual_time_to_tol"] = res.FinalTime
	mt["core.solves_to_tol"] = float64(res.Solves)
	mt["core.messages"] = float64(res.Messages)
	if f := res.Faults; f != nil {
		mt["core.retransmissions"] = float64(f.Retransmissions)
		mt["core.dropped"] = float64(f.Dropped)
		mt["core.duplicated"] = float64(f.Duplicated)
	}
	mt["sparse.unknowns"] = float64(t.sys.Dim())
	mt["sparse.nnz"] = float64(t.sys.A.NNZ())
	mt["partition.twin_links"] = float64(len(t.part.Links))
	maxDim := 0
	for _, sd := range t.part.Subdomains {
		maxDim = max(maxDim, sd.Dim())
	}
	mt["partition.max_block_dim"] = float64(maxDim)
	mt["partition.imbalance"] = t.assign.Imbalance()
	if tr == nil {
		return sample{metrics: mt}
	}

	// Each child span of this rep is one stage timing: <span name>_s.
	for _, sp := range tr.children(root) {
		mt[sp.Name+"_s"] = float64(sp.EndNS-sp.StartNS) / 1e9
	}
	mt["core.solves_per_s"] = float64(res.Solves) / mt["core.solve_call_s"]
	mt["factor.build_subdomains_s"] = buildSubdomains

	start = time.Now()
	if _, err := dtl.Assign(t.part, dtl.DiagScaled{Alpha: 1}); err != nil {
		return failed(err)
	}
	mt["dtl.assign_s"] = time.Since(start).Seconds()

	local := localSolveSeconds(subs)
	mt["factor.local_solve_us"] = local * 1e6
	mt["core.engine_overhead_s"] = mt["core.solve_call_s"] - buildSubdomains - float64(res.Solves)*local
	mt["netsim.events_per_s"] = netsimEventsPerSecond()

	if len(t.part.Subdomains) == 1 {
		// The one-part workload: its single factorisation is the whole
		// solve, so its size counters are worth the second factorisation.
		f, err := factor.New("", t.sys.A)
		if err != nil {
			return failed(err)
		}
		if c, ok := f.(interface{ NNZL() int }); ok {
			mt["factor.nnzl"] = float64(c.NNZL())
		}
		if c, ok := f.(interface{ Flops() float64 }); ok {
			mt["factor.flops"] = c.Flops()
		}
		if c, ok := f.(interface{ FactorBytes() int64 }); ok {
			mt["factor.bytes"] = float64(c.FactorBytes())
		}
	}
	return sample{metrics: mt}
}

// localSolveSeconds is the median standalone Subdomain.Solve: rounds over all
// subdomains until at least 200 calls or 0.2 s, three rounds at least.
func localSolveSeconds(subs []*core.Subdomain) float64 {
	var d []float64
	start := time.Now()
	for round := 0; round < 3 || (len(d) < 200 && time.Since(start) < 200*time.Millisecond); round++ {
		for _, s := range subs {
			t := time.Now()
			s.Solve()
			d = append(d, time.Since(t).Seconds())
		}
	}
	return statOf(d).Median
}

// ringNode forwards every token it receives to the next node of a ring.
type ringNode struct {
	out [1]netsim.Outgoing[int]
}

func (n *ringNode) Init(float64) []netsim.Outgoing[int] { return n.out[:] }
func (n *ringNode) OnMessages(_ float64, msgs []netsim.Message[int]) []netsim.Outgoing[int] {
	n.out[0].Payload = msgs[0].Payload + 1
	return n.out[:]
}
func (n *ringNode) ComputeTime(int) float64 { return 0.5 }

// netsimEventsPerSecond drives a synthetic 64-node ring of trivial nodes
// through netsim: the engine's own event rate, no numerics attached.
func netsimEventsPerSecond() float64 {
	const n = 64
	nodes := make([]netsim.Node[int], n)
	for i := range nodes {
		r := &ringNode{}
		r.out[0].To = (i + 1) % n
		nodes[i] = r
	}
	sim := netsim.New(nodes, func(from, to int) float64 { return 10 })
	t := time.Now()
	st := sim.Run(50000) // ≈ 300k messages at delay 10 + compute 0.5
	return float64(st.Messages+st.Activations) / time.Since(t).Seconds()
}

package core

import (
	"context"
	"math"
	"slices"

	"repro/internal/netsim"
	"repro/internal/sparse"
	"repro/internal/topology"
	"repro/internal/transport"
)

// wavePacket is the payload of one N2N message: the outgoing waves of every
// DTL whose far end lives in the destination subdomain, and the sequence
// number the sending part's Shard stamped on them (transport.Packet's Seq;
// the receiving Shard deduplicates by it). It travels through the generic
// simulator as a value — no interface boxing, and 32 bytes where a
// transport.Packet is 80 — and, in a fault-free run, its entries slice is
// recycled through the engine's pool once the receiver has consumed it.
type wavePacket struct {
	seq     uint64
	entries []transport.WaveEntry
}

// engine is the one virtual-time engine: the subdomains, the incrementally
// maintained assembled solution and error, the trace, and the two scheduling
// primitives every virtual-time run is made of — window (an asynchronous DES
// phase) and sweep (a synchronous barrier). The DES, VTM and mixed engines
// are three schedules of them (solveDES, solveVTM, solveMixed). All engine
// state is on the run's absolute time axis; only window and the nodes it
// creates know the simulator's window-relative one.
type engine struct {
	prob *Problem
	cfg  *Config
	subs []*Subdomain
	zs   []float64 // characteristic impedance per twin link
	// compute is the virtual time one local solve takes
	// (topology.LocalSolveTime).
	compute float64

	// ownerOf[part] lists the (local index, global index) pairs the part owns
	// (see Problem.OwnerPairs).
	ownerOf [][][2]int

	// x is the assembled solution (owner copies). It follows every solve only
	// when exact is set — the running error is its one reader during a run;
	// otherwise finish folds each part in once, which is all a Subdomain
	// whose interior is materialised on demand should be asked for.
	x     sparse.Vec
	exact sparse.Vec
	// errSq is the running Σ (x_i - exact_i)² (valid only when exact != nil).
	// It is updated incrementally on every local solve and recomputed exactly
	// every errRecomputeEvery updates, because the incremental subtraction
	// accumulates rounding residue that would otherwise keep the apparent
	// error above tight StopOnError thresholds forever.
	errSq          float64
	sinceRecompute int
	solves         int

	// ports[part] is the view x[:NumPorts] of each subdomain's solution:
	// the port potentials the twin gap reads (see twinGap). The views stay
	// valid because a Subdomain's x is solved in place.
	ports [][]float64

	// shards[part] is the part's one-part member: the wave-reliability
	// protocol a dist worker runs (shard.go), which every DES window drives
	// (dtmNode). The shards outlive a mixed run's windows, so their sequence
	// numbers keep counting across them.
	shards []*Shard
	// entryPool recycles wave-entry slices between sender and receiver in a
	// fault-free run; the DES engine is single-threaded, so a plain free list
	// suffices and the steady state allocates no packet buffers at all.
	entryPool netsim.Pool[transport.WaveEntry]

	lastChange []float64 // last boundary-potential change per part, +Inf before the first solve

	trace []TracePoint
	// messages counts the waves sent and delivered those that arrived; a
	// fault spec drops and duplicates in between.
	messages, delivered int

	converged bool
	// interrupted is set when the caller's ctx ended the run before a
	// stopping rule fired.
	interrupted bool

	// faults is the fault-injection bookkeeping (see faults.go); nil unless the
	// run has an enabled fault spec, and every fault-path branch is off then.
	faults *faultState
}

// newEngine factorises the subdomains and builds the engine around them. cfg
// must be normalized and validated.
func newEngine(p *Problem, cfg *Config) (*engine, error) {
	subs, zs, err := p.buildSubdomains(cfg.Impedance, cfg.Factor)
	if err != nil {
		return nil, err
	}
	e := &engine{
		prob:       p,
		cfg:        cfg,
		subs:       subs,
		zs:         zs,
		compute:    topology.LocalSolveTime(p.Partition.AdjacentParts(), p.Delay),
		x:          sparse.NewVec(p.System.Dim()),
		exact:      cfg.Exact,
		lastChange: make([]float64, len(subs)),
		ports:      make([][]float64, len(subs)),
	}
	for i, sub := range subs {
		e.lastChange[i] = math.Inf(1)
		e.ports[i] = sub.x[:sub.numPorts]
	}
	e.ownerOf = p.OwnerPairs()
	if e.exact != nil {
		for i := range e.x {
			d := e.x[i] - e.exact[i]
			e.errSq += d * d
		}
	}
	owner := make([]int, len(subs))
	for part := range owner {
		owner[part] = part
	}
	e.shards = make([]*Shard, len(subs))
	for part, sub := range subs {
		e.shards[part] = NewShard(part, owner, 0, cfg.SendThreshold, nil)
		e.shards[part].Adopt(sub, nil)
	}
	if cfg.Faults.Enabled() {
		// A duplicated packet shares its entries with its twin, so a faulted
		// run leaves the buffers to the GC.
		e.faults = newFaultState(cfg.Faults, len(subs))
	} else {
		for _, sh := range e.shards {
			sh.pool = &e.entryPool
		}
	}
	return e, nil
}

// errRecomputeEvery is how many incremental error updates are allowed between
// exact recomputations of errSq (see the field comment).
const errRecomputeEvery = 256

// solve is one local solve of a part — the step every schedule is made of:
// re-solve with the current incoming waves and book it (solved).
func (e *engine) solve(part int, now float64) {
	e.solved(part, now, e.subs[part].Solve())
}

// solved books a local solve of part that moved its ports by change: note
// the change for the quiescence rule, fold the solution into the assembled
// state if the running error needs it, and tell the observer. In a DES
// window a part's Shard solves by itself, and its node books the solve here.
func (e *engine) solved(part int, now, change float64) {
	e.lastChange[part] = change
	e.solves++
	if e.exact != nil {
		e.applyLocal(part)
	}
	if e.cfg.Observer != nil {
		e.cfg.Observer(now, part, e.subs[part].X())
	}
}

// applyLocal folds the latest local solution of one part into the assembled
// solution and the running error, touching only the entries that part owns.
func (e *engine) applyLocal(part int) {
	lx := e.subs[part].X()
	for _, pair := range e.ownerOf[part] {
		li, gv := pair[0], pair[1]
		d := e.x[gv] - e.exact[gv]
		e.errSq -= d * d
		d = lx[li] - e.exact[gv]
		e.errSq += d * d
		e.x[gv] = lx[li]
	}
	if e.errSq < 0 {
		e.errSq = 0
	}
	e.sinceRecompute++
	if e.sinceRecompute >= errRecomputeEvery {
		e.recomputeErr()
	}
}

// recomputeErr recomputes the running squared error exactly from the assembled
// solution, discarding the accumulated incremental rounding residue.
func (e *engine) recomputeErr() {
	e.sinceRecompute = 0
	e.errSq = 0
	for i := range e.x {
		d := e.x[i] - e.exact[i]
		e.errSq += d * d
	}
}

func (e *engine) rmsError() float64 {
	if e.exact == nil {
		return math.NaN()
	}
	n := len(e.x)
	if n == 0 {
		return 0
	}
	return math.Sqrt(e.errSq / float64(n))
}

// twinGap returns the largest twin-potential disagreement over all links:
// TwinGap over the parts' port views, the function Quiescent reads too.
func (e *engine) twinGap() float64 {
	return TwinGap(e.prob.Partition.Links, e.ports)
}

// quiesced implements the distributed stopping rule of CommonOptions.Tol.
func (e *engine) quiesced(tol float64) bool {
	if tol <= 0 {
		return false
	}
	for i := range e.subs {
		if !(e.lastChange[i] <= tol) { // NaN too
			return false
		}
	}
	return e.twinGap() <= tol
}

// shouldStop evaluates the stopping rules at absolute virtual time now. The
// oracle rule (StopOnError, which peeks at the exact solution) is a
// measurement device and ignores the fault layer; the distributed rule
// (Tol-quiescence) is additionally gated on the fault layer being quiet —
// no open link-down window, no crashed part, no wave still unaccounted for —
// because any of those can still change a state that currently looks
// converged.
func (e *engine) shouldStop(now float64) bool {
	if e.cfg.StopOnError > 0 && e.exact != nil && e.rmsError() <= e.cfg.StopOnError {
		e.converged = true
		return true
	}
	if e.quiesced(e.cfg.Tol) && e.faultQuiet(now) {
		e.converged = true
		return true
	}
	return false
}

func (e *engine) record(now float64) {
	if !e.cfg.RecordTrace {
		return
	}
	e.trace = append(e.trace, TracePoint{
		Time:     now,
		RMSError: e.rmsError(),
		TwinGap:  e.twinGap(),
		Solves:   e.solves,
		Messages: e.messages,
	})
}

// dtmNode is one part of a DES window: the per-processor loop of Table 1
// around the part's Shard, which folds in what arrives and decides what to
// solve and announce (into outs). Under an enabled fault spec the node also
// runs the clocks a Shard has none of — the watchdogs, the snapshot tick and
// the crash schedule (faults.go); in a fault-free run they are never armed.
type dtmNode struct {
	eng   *engine
	shard *Shard
	part  int
	adj   []int
	// outs is the reused outgoing-message buffer; netsim copies it into the
	// event queue before the node runs again.
	outs []netsim.Outgoing[wavePacket]
	// off is the absolute virtual time of the window's start: the simulator
	// hands the node window-relative times, the engine lives on the absolute
	// axis.
	off float64

	// The fault clocks: the simulator their timers run on, the armed
	// watchdog deadline and the consecutive silent expiries per neighbour
	// (nil in a fault-free run), and whether the part is inside a crash
	// window.
	sim        *netsim.Simulator[wavePacket]
	wdDeadline []float64
	wdBackoff  []int
	crashed    bool
}

// Init announces the part's current waves without solving: before its first
// solve the zero waves of (5.6), the paper's initial boundary conditions that
// bootstrap the asynchronous exchange; in a mixed run's later windows the
// state the last barrier left. Under a fault spec it first arms the part's
// clocks (armClocks), and a part that starts crashed stays silent.
func (n *dtmNode) Init(now float64) []netsim.Outgoing[wavePacket] {
	if n.eng.faults != nil && n.armClocks(now) {
		return nil
	}
	n.outs = n.outs[:0]
	n.shard.parts[n.part].forget()
	n.shard.announce(int32(n.part), false)
	return n.sent(now)
}

// OnMessages implements steps 3–3.2: hand every delivered wave to the shard,
// which discards duplicates and overtaken waves, and, if one was fresh,
// re-solve the (pre-factorised) local system and send the new local boundary
// conditions to the adjacent subdomains. A crashed process loses everything
// delivered to it; the senders' watchdogs recover the state after the
// restart.
func (n *dtmNode) OnMessages(now float64, msgs []netsim.Message[wavePacket]) []netsim.Outgoing[wavePacket] {
	if n.crashed {
		return nil
	}
	pkt := transport.Packet{Kind: transport.KindWave, ToPart: int32(n.part)}
	for i := range msgs {
		pkt.FromPart, pkt.Seq, pkt.Entries = int32(msgs[i].From), msgs[i].Payload.seq, msgs[i].Payload.entries
		n.shard.Receive(&pkt)
		n.shard.pool.Put(pkt.Entries)
	}
	n.outs = n.outs[:0]
	if !n.shard.SolveDirty() {
		// Nothing fresh: re-solving and re-announcing would only amplify
		// the duplicate traffic.
		return nil
	}
	n.eng.solved(n.part, n.off+now, n.shard.parts[n.part].lastChange)
	return n.sent(now)
}

// ComputeTime implements netsim.Node.
func (n *dtmNode) ComputeTime(batch int) float64 {
	return n.eng.compute
}

// emit is the shard's network: the packet leaves at the end of the
// activation. The fields are written in place: appending a composite
// literal builds it on the stack and copies it, a store-forwarding stall on
// every wave.
func (n *dtmNode) emit(_ int, pkt *transport.Packet) {
	n.eng.messages++
	n.outs = slices.Grow(n.outs, 1)[:len(n.outs)+1]
	o := &n.outs[len(n.outs)-1]
	o.To, o.Payload.seq, o.Payload.entries = int(pkt.ToPart), pkt.Seq, pkt.Entries
}

// sent returns the activation's packets, having re-armed under a fault spec
// the watchdog toward every neighbour they go to.
func (n *dtmNode) sent(now float64) []netsim.Outgoing[wavePacket] {
	if n.eng.faults != nil {
		n.rearm(now)
	}
	return n.outs
}

// solveDES runs the fully asynchronous DTM on the deterministic
// discrete-event engine: one window over the whole horizon. cfg must be
// normalized and validated.
func solveDES(ctx context.Context, p *Problem, cfg *Config) (*Result, error) {
	eng, err := newEngine(p, cfg)
	if err != nil {
		return nil, err
	}
	end := eng.window(ctx, 0, cfg.MaxTime)
	return eng.finish(end), deadlineErr(eng.interrupted)
}

// window runs one asynchronous phase: a fresh DES over the subdomains' current
// state from absolute virtual time off for at most length, every part
// starting by announcing its current waves (Init). It returns the absolute
// time the phase ended at. The ctx is consulted only when it can fire, so a
// Background run pays one nil check per stop test.
func (e *engine) window(ctx context.Context, off, length float64) float64 {
	dtm := make([]dtmNode, len(e.subs))
	nodes := make([]netsim.Node[wavePacket], len(e.subs))
	for part, sub := range e.subs {
		adj := sub.AdjacentParts()
		n := &dtm[part]
		*n = dtmNode{eng: e, shard: e.shards[part], part: part, adj: adj, off: off,
			outs: make([]netsim.Outgoing[wavePacket], 0, len(adj))}
		if e.faults != nil {
			n.wdDeadline, n.wdBackoff = make([]float64, len(adj)), make([]int, len(adj))
		}
		n.shard.emit = n.emit
		nodes[part] = n
	}
	sim := netsim.New(nodes, func(from, to int) float64 { return e.prob.Delay(from, to) })
	for part := range dtm {
		dtm[part].sim = sim
	}
	if f := e.faults; f != nil {
		sim.SetFaultPolicy(func(from, to int, t, d float64) []float64 { return f.ctl.Fate(from, to, off+t, d) })
	}
	sim.SetObserver(func(t float64, node int) { e.record(off + t) })
	done := ctx.Done()
	sim.SetStopCondition(func(t float64) bool { return (done != nil && e.cancelled(done)) || e.shouldStop(off+t) })

	stats := sim.Run(length)
	e.delivered += stats.Messages
	return off + stats.Time
}

// cancelled polls the run's done channel (nil when its ctx can never fire)
// and latches interrupted.
func (e *engine) cancelled(done <-chan struct{}) bool {
	select {
	case <-done:
		e.interrupted = true
		return true
	default:
		return false
	}
}

// sweep runs one synchronous barrier at absolute virtual time now: every part
// solves with the waves it holds, then every link carries the new waves both
// ways at once (eq. (5.10)). A part inside a crash window at the barrier
// instant is down: it neither solves nor exchanges waves this sweep. What the
// barrier costs in virtual time is the schedule's business.
func (e *engine) sweep(now float64) {
	crashed := func(part int) bool { return e.faults != nil && e.faults.spec.CrashedAt(part, now) }
	for part := range e.subs {
		if !crashed(part) {
			e.solve(part, now)
		}
	}
	// The exchange is simultaneous: read every outgoing wave before any
	// incoming one is overwritten.
	type pending struct {
		sub  *Subdomain
		link int
		wave float64
	}
	var updates []pending
	for part, sub := range e.subs {
		if crashed(part) {
			continue
		}
		for k, end := range sub.Ends() {
			if !crashed(end.Remote) {
				updates = append(updates, pending{e.subs[end.Remote], end.LinkID, sub.OutgoingWave(k)})
			}
		}
	}
	for _, u := range updates {
		u.sub.SetIncomingByLink(u.link, u.wave)
	}
	e.messages += len(updates)
	e.delivered += len(updates)
	// The barrier exchanged (or consciously skipped) everything: no wave is
	// left in flight.
	e.settle()
}

// solveUncoupled is the degenerate case of a partition with no twin links
// (Solve short-cuts every engine to it): one local solve of each part.
func (e *engine) solveUncoupled() *Result {
	for part := range e.subs {
		e.solve(part, 0)
	}
	e.record(0)
	e.converged = true
	return e.finish(0)
}

// finish assembles the Result of a run that ended at virtual time finalTime.
func (e *engine) finish(finalTime float64) *Result {
	if e.exact == nil {
		// Nothing read the assembled solution during the run: assemble it now.
		for part, sub := range e.subs {
			assembleOwned(e.x, sub.X(), e.ownerOf[part])
		}
	}
	res := &Result{
		X:          e.x.Clone(),
		Converged:  e.converged,
		FinalTime:  finalTime,
		TwinGap:    e.twinGap(),
		Solves:     e.solves,
		Messages:   e.delivered,
		Trace:      downsample(e.trace, traceMaxPoints),
		Impedances: e.zs,
	}
	res.measure(e.prob, e.exact)
	if f := e.faults; f != nil {
		st := f.ctl.Stats()
		fs := f.stats
		fs.Dropped, fs.Duplicated, fs.Delayed = st.Dropped, st.Duplicated, st.Delayed
		res.Faults = &fs
	}
	return res
}

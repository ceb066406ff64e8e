package dist

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// Control-plane protocol. Control messages ride transport.Packet.Ctrl in one
// hand-written layout (encodeCtrl, decodeCtrl), little-endian and
// fixed-width like the wave frames: fields in a fixed order, no field names,
// no reflection and no float parsing, so every value — NaN payloads and ±Inf
// included — crosses bit for bit. The coordinator decodes a status per
// worker per poll round and a result per worker on its critical path
// (BenchmarkCtrlCodec). The layout of one message:
//
//	uint8   type (the index of its name in msgTypes)
//	uint8   flags: one presence bit per sub-message, in the order below,
//	        then the quiet bit; the last bit is zero
//	int64   round
//	string  err
//	assign, ready, status, result, heartbeat, reassign: each present only
//	        when its flag bit is set
//
// An int is an int64, a string or slice a uint32 count followed by its
// elements (a float64 as its IEEE-754 bits, a bool as a byte 0 or 1), and a
// struct its fields in declaration order. The decoder checks every count
// against the bytes left before it allocates, and refuses a frame that ends
// early, one with bytes left over, an unknown type, a set unused flag bit
// and a bool byte other than 0 or 1 — so one message has one encoding. The
// layout has no version of its own: transport's frame version changes with
// it.
//
// Shard lifecycle, as seen by a worker:
//
//	assign  → build the spec's problem, factorise the owned subdomains
//	ready   ← all owned parts factorised; carries the problem's dimension
//	          and twin links, which the coordinator does not tear itself
//	start   → announce initial waves; enter the solve loop
//	status  ⇄ report per-part convergence state + recovery sequence numbers;
//	          the reply echoes the poll's round number
//	quiet   ← the shard turned silent (true: nothing to solve, no news
//	          sent since the last idle tick) or stopped being so (false);
//	          sent once, it lets the coordinator poll at once
//	stop    → leave the solve loop
//	result  ← owner fragments of X, and a status holding only the
//	          session's work counters as they stand at the stop
//
// A worker outlives sessions: after result it waits for the next assign
// (the dtmd server mode), until shutdown or transport close.
//
// Failover extends the lifecycle with three messages. Workers in a session
// send periodic heartbeats carrying their incarnation, their ownership
// epoch and a boundary-state snapshot of every owned part; the coordinator
// grants each worker a lease renewed by any sign of life and declares it
// dead after the (jittered) lease lapses. On death it broadcasts a fenced reassign: a higher epoch, a
// deterministically re-derived ownership map, and the last-known-good
// snapshots of the reassigned parts, so survivors adopt the dead worker's
// subdomains and resume from the freshest reported boundary state. An idle
// worker answers polls with hello (its incarnation); a restarted worker
// hello-ing with a higher incarnation is handed parts back on the next
// epoch.
const (
	msgAssign    = "assign"
	msgReady     = "ready"
	msgStart     = "start"
	msgStatusRq  = "status?"
	msgStatus    = "status"
	msgStop      = "stop"
	msgResult    = "result"
	msgShutdown  = "shutdown"
	msgHeartbeat = "heartbeat"
	msgReassign  = "reassign"
	msgHello     = "hello"
	msgQuiet     = "quiet"
)

// msgTypes are the message names by wire code. A new type goes at the end,
// with a new frame version.
var msgTypes = [...]string{msgAssign, msgReady, msgStart, msgStatusRq, msgStatus, msgStop,
	msgResult, msgShutdown, msgHeartbeat, msgReassign, msgHello, msgQuiet}

type ctrlMsg struct {
	Type string
	// Round numbers a status? poll; the status answering it echoes the
	// number, so the coordinator counts a reply only in the round that asked.
	Round    int
	Assign   *assignMsg
	Ready    *readyMsg
	Status   *statusMsg
	Result   *resultMsg
	HB       *heartbeatMsg
	Reassign *reassignMsg
	// Quiet is a quiet notice's news: whether the worker's shard is silent.
	Quiet bool
	// Err carries a worker-side failure back to the coordinator (fatal for
	// the session).
	Err string
}

// assignMsg tells a worker which shard of which problem it owns.
type assignMsg struct {
	Spec SpecV2
	// Owner maps part → member id, for every part (workers need it to route
	// waves to remote parts).
	Owner []int
	// Backend and Ordering are the factor.Settings every owned subdomain
	// factorises under: the backend's registry name (empty for auto) and the
	// ordering's (factor.ParseOrdering).
	Backend  string
	Ordering string
	// SendThreshold suppresses unchanged wave re-announcements. The
	// coordinator defaults it to core.DrainThreshold(Tol) — the fault-mode
	// rule — because a real network always needs the traffic to drain.
	SendThreshold float64
	// WatchdogMS is the wall-clock interval of the retransmission sweep.
	WatchdogMS int
	// HeartbeatMS is the wall-clock interval of the worker's heartbeat (and
	// therefore of its boundary-state snapshots).
	HeartbeatMS int
	// Epoch is the ownership epoch this map was derived under; wave packets
	// carry it and receivers fence mismatches.
	Epoch uint32
}

// readyMsg is what the coordinator needs of the torn problem and no longer
// tears to learn: the dimension of X for the gather, and per twin link, in
// link-ID order, the PartA, PortA, PartB, PortB quadruple core.Quiescent
// reads, flattened (4·L values). Every worker sends its own, so the
// coordinator also checks that they all tore the same problem.
type readyMsg struct {
	Dim   int
	Links []int32
}

// partSnap is the boundary-state snapshot of one part: the latest incoming
// wave per DTL end, in end order (deterministic from the spec). It is the
// complete recovery state — a subdomain's solution is a pure function of its
// constant local system and its incoming waves — and it is small: boundary
// ports only, never interior unknowns.
type partSnap struct {
	Part     int32
	Incoming []float64
}

// heartbeatMsg is a worker's periodic liveness beat: its incarnation, the
// epoch it operates under and the boundary snapshots the coordinator retains
// as last-known-good recovery state. An idle worker sends it with Epoch 0 as
// a hello (re-registration).
type heartbeatMsg struct {
	Inc   uint32
	Epoch uint32
	Snaps []partSnap
}

// reassignMsg is the fenced ownership change of one failover or rejoin
// epoch: the full assignment under the new map (self-contained, so an idle
// rejoined worker can start a session from it) plus the last-known-good
// snapshots of the parts that changed owner.
type reassignMsg struct {
	Epoch  uint32
	Assign assignMsg
	Snaps  []partSnap
}

// statusMsg is a worker's poll reply: its shard's state — per-part
// convergence state, the needed/applied sequence frontiers the coordinator
// joins across workers (core.Quiescent), the dirty count, the work and fence
// counters — stamped by the session.
type statusMsg struct {
	core.ShardState
	// Epoch identifies the ownership map that produced this status; the
	// coordinator discards statuses from stale epochs.
	Epoch uint32
}

// resultMsg carries a worker's owner fragment of the assembled solution.
type resultMsg struct {
	Index []int32
	Value []float64
}

// Shutdown asks a worker member to exit its Run loop (the dtmd coordinator
// sends it after a solve unless told to keep the workers standing).
func Shutdown(ctx context.Context, tr transport.Transport, worker int) error {
	return sendCtrl(ctx, tr, worker, encodeCtrl(&ctrlMsg{Type: msgShutdown}))
}

// sendCtrl sends one encoded control message. A batch — one message to many
// members — is encoded once and its bytes sent to each: no fabric keeps or
// changes a packet's Ctrl.
func sendCtrl(ctx context.Context, tr transport.Transport, to int, ctrl []byte) error {
	return tr.Send(ctx, to, transport.Packet{Kind: transport.KindControl, Ctrl: ctrl})
}

// sendCtrlRetry keeps retrying an unavailable peer until ctx expires.
// Control messages must land: a coordinator may start before the worker
// processes have bound their listeners, and a broken connection heals
// through the transport's dial backoff — both look like ErrPeerUnavailable
// for a while.
func sendCtrlRetry(ctx context.Context, tr transport.Transport, to int, ctrl []byte) error {
	for {
		err := sendCtrl(ctx, tr, to, ctrl)
		if err == nil || !errors.Is(err, transport.ErrPeerUnavailable) {
			return err
		}
		select {
		case <-ctx.Done():
			return err
		case <-time.After(25 * time.Millisecond):
		}
	}
}

// The flags byte: which sub-messages follow, and the quiet notice's news.
const (
	hasAssign = 1 << iota
	hasReady
	hasStatus
	hasResult
	hasHB
	hasReassign
	isQuiet
	knownFlags = 1<<iota - 1
)

// encodeCtrl returns m's encoding. It panics on a type msgTypes does not
// name, which only a bug can build.
func encodeCtrl(m *ctrlMsg) []byte {
	code := slices.Index(msgTypes[:], m.Type)
	if code < 0 {
		panic(fmt.Sprintf("dist: encoding a control message of unknown type %q", m.Type))
	}
	var flags byte
	for bit, present := range [...]bool{m.Assign != nil, m.Ready != nil, m.Status != nil,
		m.Result != nil, m.HB != nil, m.Reassign != nil, m.Quiet} {
		if present {
			flags |= 1 << bit
		}
	}
	b := make([]byte, 0, 64)
	b = append(b, byte(code), flags)
	b = appendInt(b, m.Round)
	b = appendString(b, m.Err)
	if m.Assign != nil {
		b = appendAssign(b, m.Assign)
	}
	if r := m.Ready; r != nil {
		b = appendInt(b, r.Dim)
		b = appendInt32s(b, r.Links)
	}
	if st := m.Status; st != nil {
		b = appendShardState(b, &st.ShardState)
		b = binary.LittleEndian.AppendUint32(b, st.Epoch)
	}
	if r := m.Result; r != nil {
		b = appendInt32s(b, r.Index)
		b = appendFloat64s(b, r.Value)
	}
	if hb := m.HB; hb != nil {
		b = binary.LittleEndian.AppendUint32(b, hb.Inc)
		b = binary.LittleEndian.AppendUint32(b, hb.Epoch)
		b = appendSnaps(b, hb.Snaps)
	}
	if re := m.Reassign; re != nil {
		b = binary.LittleEndian.AppendUint32(b, re.Epoch)
		b = appendAssign(b, &re.Assign)
		b = appendSnaps(b, re.Snaps)
	}
	return b
}

func appendAssign(b []byte, a *assignMsg) []byte {
	b = appendInt(b, a.Spec.V)
	b = appendString(b, a.Spec.Source)
	b = appendInt(b, a.Spec.NParts)
	b = appendInt(b, a.Spec.PartsX)
	b = appendInt(b, a.Spec.PartsY)
	b = appendString(b, a.Spec.Topology)
	b = appendFloat64(b, a.Spec.Delay)
	b = appendCount(b, len(a.Owner))
	for _, w := range a.Owner {
		b = appendInt(b, w)
	}
	b = appendString(b, a.Backend)
	b = appendString(b, a.Ordering)
	b = appendFloat64(b, a.SendThreshold)
	b = appendInt(b, a.WatchdogMS)
	b = appendInt(b, a.HeartbeatMS)
	return binary.LittleEndian.AppendUint32(b, a.Epoch)
}

func appendShardState(b []byte, st *core.ShardState) []byte {
	b = appendInt(b, st.Solves)
	b = appendInt(b, st.Messages)
	b = appendCount(b, len(st.Parts))
	for i := range st.Parts {
		p := &st.Parts[i]
		b = binary.LittleEndian.AppendUint32(b, uint32(p.Part))
		b = appendBool(b, p.SolvedOnce)
		b = appendFloat64(b, p.LastChange)
		b = appendFloat64s(b, p.Ports)
	}
	b = appendPairs(b, st.Needed)
	b = appendPairs(b, st.Applied)
	b = appendInt(b, st.Dirty)
	return binary.LittleEndian.AppendUint64(b, st.Fenced)
}

func appendPairs(b []byte, ps []core.PairSeq) []byte {
	b = appendCount(b, len(ps))
	for _, p := range ps {
		b = binary.LittleEndian.AppendUint32(b, uint32(p.From))
		b = binary.LittleEndian.AppendUint32(b, uint32(p.To))
		b = binary.LittleEndian.AppendUint64(b, p.Seq)
	}
	return b
}

func appendSnaps(b []byte, snaps []partSnap) []byte {
	b = appendCount(b, len(snaps))
	for _, sn := range snaps {
		b = binary.LittleEndian.AppendUint32(b, uint32(sn.Part))
		b = appendFloat64s(b, sn.Incoming)
	}
	return b
}

func appendCount(b []byte, n int) []byte { return binary.LittleEndian.AppendUint32(b, uint32(n)) }

func appendInt(b []byte, v int) []byte { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

func appendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendString(b []byte, s string) []byte { return append(appendCount(b, len(s)), s...) }

func appendInt32s(b []byte, v []int32) []byte {
	b = slices.Grow(appendCount(b, len(v)), 4*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	return b
}

func appendFloat64s(b []byte, v []float64) []byte {
	b = slices.Grow(appendCount(b, len(v)), 8*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// decodeCtrl decodes one control packet, refusing any frame encodeCtrl
// could not have written.
func decodeCtrl(pkt *transport.Packet) (*ctrlMsg, error) {
	r := ctrlReader{b: pkt.Ctrl}
	m := r.msg()
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("%d bytes past the message", len(r.b))
	}
	if r.err != nil {
		return nil, fmt.Errorf("dist: bad control packet from %d: %w", pkt.From, r.err)
	}
	return m, nil
}

// ctrlReader reads a control message's fields off b in order. The first
// failure sticks: every later read returns a zero value, and allocates
// nothing.
type ctrlReader struct {
	b   []byte
	err error
}

func (r *ctrlReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.b = nil
}

// take consumes the next n bytes, nil when fewer are left.
func (r *ctrlReader) take(n int) []byte {
	if n > len(r.b) {
		r.fail("truncated: %d bytes left, %d needed", len(r.b), n)
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

func (r *ctrlReader) u8() byte {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *ctrlReader) u32() uint32 {
	if p := r.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *ctrlReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *ctrlReader) int() int { return int(int64(r.u64())) }

func (r *ctrlReader) int32() int32 { return int32(r.u32()) }

func (r *ctrlReader) float64() float64 { return math.Float64frombits(r.u64()) }

func (r *ctrlReader) bool() bool {
	v := r.u8()
	if v > 1 {
		r.fail("bool byte %d", v)
	}
	return v == 1
}

// count reads an element count and refuses one whose elements, each at
// least size bytes on the wire, could not fit in the bytes left — so what a
// decode allocates is bounded by the frame's length.
func (r *ctrlReader) count(size int) int {
	n := uint64(r.u32())
	if left := uint64(len(r.b)); n*uint64(size) > left {
		r.fail("%d elements of at least %d bytes in %d bytes", n, size, left)
		return 0
	}
	return int(n)
}

func (r *ctrlReader) string() string { return string(r.take(r.count(1))) }

func (r *ctrlReader) int32s() []int32 {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	v, p := make([]int32, n), r.take(4*n)
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return v
}

func (r *ctrlReader) float64s() []float64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	v, p := make([]float64, n), r.take(8*n)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return v
}

func (r *ctrlReader) msg() *ctrlMsg {
	code, flags := r.u8(), r.u8()
	switch {
	case r.err != nil:
		return nil
	case int(code) >= len(msgTypes):
		r.fail("unknown message type %d", code)
		return nil
	case flags&^knownFlags != 0:
		r.fail("unknown flags %#x", flags)
		return nil
	}
	m := &ctrlMsg{Type: msgTypes[code], Quiet: flags&isQuiet != 0, Round: r.int(), Err: r.string()}
	if flags&hasAssign != 0 {
		m.Assign = &assignMsg{}
		r.assign(m.Assign)
	}
	if flags&hasReady != 0 {
		m.Ready = &readyMsg{Dim: r.int(), Links: r.int32s()}
	}
	if flags&hasStatus != 0 {
		m.Status = &statusMsg{}
		r.shardState(&m.Status.ShardState)
		m.Status.Epoch = r.u32()
	}
	if flags&hasResult != 0 {
		m.Result = &resultMsg{Index: r.int32s(), Value: r.float64s()}
	}
	if flags&hasHB != 0 {
		m.HB = &heartbeatMsg{Inc: r.u32(), Epoch: r.u32(), Snaps: r.snaps()}
	}
	if flags&hasReassign != 0 {
		m.Reassign = &reassignMsg{Epoch: r.u32()}
		r.assign(&m.Reassign.Assign)
		m.Reassign.Snaps = r.snaps()
	}
	return m
}

func (r *ctrlReader) assign(a *assignMsg) {
	a.Spec.V = r.int()
	a.Spec.Source = r.string()
	a.Spec.NParts, a.Spec.PartsX, a.Spec.PartsY = r.int(), r.int(), r.int()
	a.Spec.Topology = r.string()
	a.Spec.Delay = r.float64()
	if n := r.count(8); n > 0 {
		a.Owner = make([]int, n)
		for i := range a.Owner {
			a.Owner[i] = r.int()
		}
	}
	a.Backend, a.Ordering = r.string(), r.string()
	a.SendThreshold = r.float64()
	a.WatchdogMS, a.HeartbeatMS = r.int(), r.int()
	a.Epoch = r.u32()
}

func (r *ctrlReader) shardState(st *core.ShardState) {
	st.Solves, st.Messages = r.int(), r.int()
	if n := r.count(4 + 1 + 8 + 4); n > 0 {
		st.Parts = make([]core.PartState, n)
		for i := range st.Parts {
			p := &st.Parts[i]
			p.Part, p.SolvedOnce, p.LastChange, p.Ports = r.int32(), r.bool(), r.float64(), r.float64s()
		}
	}
	st.Needed, st.Applied = r.pairs(), r.pairs()
	st.Dirty = r.int()
	st.Fenced = r.u64()
}

func (r *ctrlReader) pairs() []core.PairSeq {
	n := r.count(4 + 4 + 8)
	if n == 0 {
		return nil
	}
	ps := make([]core.PairSeq, n)
	for i := range ps {
		ps[i] = core.PairSeq{From: r.int32(), To: r.int32(), Seq: r.u64()}
	}
	return ps
}

func (r *ctrlReader) snaps() []partSnap {
	n := r.count(4 + 4)
	if n == 0 {
		return nil
	}
	snaps := make([]partSnap, n)
	for i := range snaps {
		snaps[i] = partSnap{Part: r.int32(), Incoming: r.float64s()}
	}
	return snaps
}

package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// Control-plane protocol. Control messages ride transport.Packet.Ctrl as a
// JSON envelope: field names, scalars and everything sized by the part count
// (owner maps, pair frontiers) are plain JSON, and every slice whose length
// grows with the problem — port potentials, boundary snapshots, the result's
// owner fragment, the twin links — is a transport.Packed string of
// little-endian bytes. The coordinator decodes a status per worker per poll
// round and a result per worker on its critical path; as decimal JSON those
// cost it 2–4× the decode time and half again the bytes (BenchmarkCtrlCodec).
// The waves themselves are binary frames.
//
// Shard lifecycle, as seen by a worker:
//
//	assign  → build the spec's problem, factorise the owned subdomains
//	ready   ← all owned parts factorised; carries the problem's dimension
//	          and twin links, which the coordinator does not tear itself
//	start   → announce initial waves; enter the solve loop
//	status  ⇄ report per-part convergence state + recovery sequence numbers;
//	          the reply echoes the poll's round number
//	stop    → leave the solve loop
//	result  ← owner fragments of X
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
)

type ctrlMsg struct {
	Type string `json:"type"`
	// Round numbers a status? poll; the status answering it echoes the
	// number, so the coordinator counts a reply only in the round that asked.
	Round    int           `json:"round,omitempty"`
	Assign   *assignMsg    `json:"assign,omitempty"`
	Ready    *readyMsg     `json:"ready,omitempty"`
	Status   *statusMsg    `json:"status,omitempty"`
	Result   *resultMsg    `json:"result,omitempty"`
	HB       *heartbeatMsg `json:"hb,omitempty"`
	Reassign *reassignMsg  `json:"reassign,omitempty"`
	// Err carries a worker-side failure back to the coordinator (fatal for
	// the session).
	Err string `json:"err,omitempty"`
}

// assignMsg tells a worker which shard of which problem it owns.
type assignMsg struct {
	Spec SpecV2 `json:"spec"`
	// Owner maps part → member id, for every part (workers need it to route
	// waves to remote parts).
	Owner []int `json:"owner"`
	// Tol is the distributed quiescence tolerance.
	Tol float64 `json:"tol"`
	// LocalSolver selects the factor backend (empty for default).
	LocalSolver string `json:"localSolver,omitempty"`
	// SendThreshold suppresses unchanged wave re-announcements. The
	// coordinator defaults it to core.DrainThreshold(Tol) — the fault-mode
	// rule — because a real network always needs the traffic to drain.
	SendThreshold float64 `json:"sendThreshold"`
	// WatchdogMS is the wall-clock interval of the retransmission sweep.
	WatchdogMS int `json:"watchdogMS"`
	// HeartbeatMS is the wall-clock interval of the worker's heartbeat (and
	// therefore of its boundary-state snapshots).
	HeartbeatMS int `json:"heartbeatMS"`
	// Epoch is the ownership epoch this map was derived under; wave packets
	// carry it and receivers fence mismatches.
	Epoch uint32 `json:"epoch"`
}

// readyMsg is what the coordinator needs of the torn problem and no longer
// tears to learn: the dimension of X for the gather, and per twin link, in
// link-ID order, the PartA, PortA, PartB, PortB quadruple core.Quiescent
// reads, flattened (4·L values). Every worker sends its own, so the
// coordinator also checks that they all tore the same problem.
type readyMsg struct {
	Dim   int                     `json:"dim"`
	Links transport.Packed[int32] `json:"links"`
}

// partSnap is the boundary-state snapshot of one part: the latest incoming
// wave per DTL end, in end order (deterministic from the spec). It is the
// complete recovery state — a subdomain's solution is a pure function of its
// constant local system and its incoming waves — and it is small: boundary
// ports only, never interior unknowns.
type partSnap struct {
	Part     int32                     `json:"part"`
	Incoming transport.Packed[float64] `json:"incoming"`
}

// heartbeatMsg is a worker's periodic liveness beat: its incarnation, the
// epoch it operates under and the boundary snapshots the coordinator retains
// as last-known-good recovery state. An idle worker sends it with Epoch 0 as
// a hello (re-registration).
type heartbeatMsg struct {
	Inc   uint32     `json:"inc"`
	Epoch uint32     `json:"epoch"`
	Snaps []partSnap `json:"snaps,omitempty"`
}

// reassignMsg is the fenced ownership change of one failover or rejoin
// epoch: the full assignment under the new map (self-contained, so an idle
// rejoined worker can start a session from it) plus the last-known-good
// snapshots of the parts that changed owner.
type reassignMsg struct {
	Epoch  uint32     `json:"epoch"`
	Assign assignMsg  `json:"assign"`
	Snaps  []partSnap `json:"snaps,omitempty"`
}

// statusMsg is a worker's poll reply: its shard's state — per-part
// convergence state, the needed/applied sequence frontiers the coordinator
// joins across workers (core.Quiescent), the dirty count, the work and fence
// counters — stamped by the session.
type statusMsg struct {
	core.ShardState
	// Inc and Epoch identify which life and ownership map produced this
	// status; the coordinator discards statuses from stale epochs.
	Inc   uint32 `json:"inc"`
	Epoch uint32 `json:"epoch"`
	// BadCtrl counts malformed control frames dropped by this worker.
	BadCtrl uint64 `json:"badCtrl,omitempty"`
}

// resultMsg carries a worker's owner fragment of the assembled solution.
type resultMsg struct {
	Index transport.Packed[int32]   `json:"index"`
	Value transport.Packed[float64] `json:"value"`
}

// Shutdown asks a worker member to exit its Run loop (the dtmd coordinator
// sends it after a solve unless told to keep the workers standing).
func Shutdown(ctx context.Context, tr transport.Transport, worker int) error {
	return sendCtrl(ctx, tr, worker, &ctrlMsg{Type: msgShutdown})
}

// errEncode wraps a control message encoding/json refuses — a non-finite
// float outside a Packed field, such as a diverging part's LastChange — so a
// send site that drops transport failures can still report it.
var errEncode = errors.New("dist: encoding")

func sendCtrl(ctx context.Context, tr transport.Transport, to int, m *ctrlMsg) error {
	ctrl, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("%w %s: %w", errEncode, m.Type, err)
	}
	return tr.Send(ctx, to, transport.Packet{Kind: transport.KindControl, Ctrl: ctrl})
}

// sendCtrlRetry keeps retrying an unavailable peer until ctx expires.
// Control messages must land: a coordinator may start before the worker
// processes have bound their listeners, and a broken connection heals
// through the transport's dial backoff — both look like ErrPeerUnavailable
// for a while.
func sendCtrlRetry(ctx context.Context, tr transport.Transport, to int, m *ctrlMsg) error {
	for {
		err := sendCtrl(ctx, tr, to, m)
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

func decodeCtrl(pkt *transport.Packet) (*ctrlMsg, error) {
	var m ctrlMsg
	if err := json.Unmarshal(pkt.Ctrl, &m); err != nil {
		return nil, fmt.Errorf("dist: bad control packet from %d: %w", pkt.From, err)
	}
	return &m, nil
}

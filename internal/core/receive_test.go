package core

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dtl"
	"repro/internal/factor"
	"repro/internal/sparse"
	"repro/internal/topology"
	"repro/internal/transport"
)

// The receive half of the wave-reliability protocol: Shard.Receive's
// last-writer-wins deduplication and its epoch and incarnation fences,
// checked against dedupModel, the map-keyed deduplicator the Shard's
// per-neighbour marks replaced.

// dedupModel is the replaced deduplicator, kept as the oracle: the newest
// sequence number applied per directed part pair, the newest incarnation per
// sending part, the epoch, and the count of fenced packets.
type dedupModel struct {
	epoch   uint32
	applied map[[2]int32]uint64
	inc     map[int32]uint32
	fenced  uint64
}

func newDedupModel(epoch uint32) *dedupModel {
	return &dedupModel{epoch: epoch, applied: make(map[[2]int32]uint64), inc: make(map[int32]uint32)}
}

// fresh admits a packet of the current epoch and a live incarnation whose
// sequence number is above everything applied on its pair, and records it;
// a newer incarnation of the sending part clears that part's pairs first.
func (d *dedupModel) fresh(pkt *transport.Packet) bool {
	if pkt.Epoch != d.epoch {
		d.fenced++
		return false
	}
	if prev := d.inc[pkt.FromPart]; pkt.Inc < prev {
		d.fenced++
		return false
	} else if pkt.Inc > prev {
		d.inc[pkt.FromPart] = pkt.Inc
		for key := range d.applied {
			if key[0] == pkt.FromPart {
				delete(d.applied, key)
			}
		}
	}
	key := [2]int32{pkt.FromPart, pkt.ToPart}
	if pkt.Seq <= d.applied[key] {
		return false
	}
	d.applied[key] = pkt.Seq
	return true
}

// advance moves to a newer epoch, forgetting every pair and incarnation.
func (d *dedupModel) advance(epoch uint32) {
	if epoch <= d.epoch {
		return
	}
	d.epoch = epoch
	clear(d.applied)
	clear(d.inc)
}

// receiveFixture is a 9×9 grid torn 3×3 (part 4 in the middle, with
// neighbours 1, 3, 5 and 7; part 0 touches 1 and 3 only) and its nine
// factorised subdomains.
func receiveFixture(tb testing.TB) []*Subdomain {
	tb.Helper()
	p, err := GridProblem(sparse.RandomGridSPD(9, 9, 5), 9, 9, 3, 3, topology.Uniform(9, 10, "uniform"))
	if err != nil {
		tb.Fatal(err)
	}
	zs, err := dtl.Assign(p.Partition, dtl.DiagScaled{Alpha: 1})
	if err != nil {
		tb.Fatal(err)
	}
	subs := make([]*Subdomain, p.Partition.NumParts())
	for part := range subs {
		if subs[part], err = NewSubdomain(p.Partition.Subdomains[part], p.Partition.LinksOfPart(part), zs, factor.Settings{}); err != nil {
			tb.Fatal(err)
		}
	}
	return subs
}

// receiver is member 0 under owner at epoch, holding the parts owner gives it.
func receiver(subs []*Subdomain, owner []int, epoch uint32) *Shard {
	sh := NewShard(0, owner, epoch, 0, func(int, *transport.Packet) {})
	for part, m := range owner {
		if m == 0 {
			sh.Adopt(subs[part], nil)
		}
	}
	return sh
}

// centreOwner gives part 4 to member 0 and every other part to member 1.
var centreOwner = []int{1, 1, 1, 1, 0, 1, 1, 1, 1}

func wave(from, to int32, seq uint64, epoch, inc uint32) *transport.Packet {
	return &transport.Packet{Kind: transport.KindWave, FromPart: from, ToPart: to, Seq: seq, Epoch: epoch, Inc: inc}
}

// appliedOn is the shard's applied mark on the pair from → to (State).
func appliedOn(sh *Shard, from, to int32) uint64 {
	for _, pr := range sh.State().Applied {
		if pr.From == from && pr.To == to {
			return pr.Seq
		}
	}
	return 0
}

// TestShardReceiveLWW: a pair's packets arrive with duplicates and one
// overtaken by a newer one (1, 1, 2, 4, 3, 4, 5); Receive applies exactly
// the fresh subsequence 1, 2, 4, 5, and the pair's applied mark ends at 5.
func TestShardReceiveLWW(t *testing.T) {
	sh := receiver(receiveFixture(t), centreOwner, 0)
	var fresh []uint64
	for _, s := range []uint64{1, 1, 2, 4, 3, 4, 5} {
		pkt := wave(1, 4, s, 0, 0)
		pkt.Entries = []transport.WaveEntry{{LinkID: 7, Wave: float64(s)}}
		if sh.Receive(pkt) {
			fresh = append(fresh, s)
		}
	}
	if want := []uint64{1, 2, 4, 5}; !slices.Equal(fresh, want) {
		t.Fatalf("fresh seqs %v, want %v", fresh, want)
	}
	if got := appliedOn(sh, 1, 4); got != 5 {
		t.Fatalf("applied = %d, want 5", got)
	}
}

// TestShardReceiveEpochFence exercises the failover fences: stale-epoch
// packets are dropped and counted, Advance clears the applied marks so
// reassigned senders can restart at seq 1, and moving backwards is a no-op.
func TestShardReceiveEpochFence(t *testing.T) {
	sh := receiver(receiveFixture(t), centreOwner, 0)
	sh.Advance(2, centreOwner)
	if sh.Epoch() != 2 {
		t.Fatalf("Epoch = %d, want 2", sh.Epoch())
	}
	if !sh.Receive(wave(1, 4, 1, 2, 0)) {
		t.Fatal("current-epoch packet fenced")
	}
	if sh.Receive(wave(1, 4, 2, 1, 0)) {
		t.Fatal("stale-epoch packet admitted")
	}
	if sh.Receive(wave(1, 4, 2, 3, 0)) {
		t.Fatal("future-epoch packet admitted before Advance")
	}
	if got := sh.State().Fenced; got != 2 {
		t.Fatalf("Fenced = %d, want 2", got)
	}
	// Advance clears the marks: seq 1 is fresh again under the new epoch.
	sh.Advance(3, centreOwner)
	if got := appliedOn(sh, 1, 4); got != 0 {
		t.Fatalf("applied mark survived Advance: %d", got)
	}
	if !sh.Receive(wave(1, 4, 1, 3, 0)) {
		t.Fatal("restarted seq fenced after Advance")
	}
	// Backwards or equal Advance is a no-op.
	sh.Advance(2, centreOwner)
	if sh.Epoch() != 3 {
		t.Fatalf("Advance moved backwards to %d", sh.Epoch())
	}
}

// TestShardReceiveIncarnationFence pins zombie fencing: packets from an
// overtaken incarnation of a sending part are dropped and counted, and a
// higher incarnation resets that part's applied marks (the restarted sender
// restarts its sequence numbers).
func TestShardReceiveIncarnationFence(t *testing.T) {
	sh := receiver(receiveFixture(t), centreOwner, 0)
	if !sh.Receive(wave(3, 4, 5, 0, 1)) {
		t.Fatal("first-life packet fenced")
	}
	// Restarted sender: higher inc, sequence restarts below the old mark.
	if !sh.Receive(wave(3, 4, 1, 0, 2)) {
		t.Fatal("restarted sender's seq 1 not admitted after inc bump")
	}
	// Zombie: the old life's traffic is fenced even with a huge seq.
	if sh.Receive(wave(3, 4, 100, 0, 1)) {
		t.Fatal("zombie incarnation admitted")
	}
	if got := sh.State().Fenced; got != 1 {
		t.Fatalf("Fenced = %d, want 1", got)
	}
	// Other sending parts are unaffected by part 3's new life.
	if !sh.Receive(wave(5, 4, 1, 0, 1)) {
		t.Fatal("unrelated part fenced")
	}
}

// TestShardAdvanceResetsIncarnations pins the crash-after-rejoin sequence:
// a part announced by a restarted worker (incarnation 2) fails over, on the
// next epoch, to a surviving incarnation-1 worker. Advance must reset the
// incarnation watermarks along with the applied marks — the epoch fence
// already drops every cross-epoch zombie — or the adopter's waves would be
// fenced forever and the solve could never converge (regression).
func TestShardAdvanceResetsIncarnations(t *testing.T) {
	sh := receiver(receiveFixture(t), centreOwner, 1)
	// Epoch 1: part 3 is announced by a restarted worker at incarnation 2.
	if !sh.Receive(wave(3, 4, 1, 1, 2)) {
		t.Fatal("restarted sender's wave fenced at epoch 1")
	}
	// The restarted worker dies too; part 3 fails over to an incarnation-1
	// survivor under epoch 2.
	sh.Advance(2, centreOwner)
	if !sh.Receive(wave(3, 4, 1, 2, 1)) {
		t.Fatal("adopter's lower-incarnation wave fenced after Advance")
	}
	// The fence still bites within the new epoch: cross-epoch zombies stay
	// fenced.
	if sh.Receive(wave(3, 4, 9, 1, 2)) {
		t.Fatal("stale-epoch zombie admitted")
	}
}

// TestShardReceiveRefusesStrangers: the applied marks are indexed by the
// receiving part's neighbours, so a wave whose FromPart is negative, past
// the last part, or a part that shares no link with ToPart — or whose
// ToPart is not held here — is refused without a panic, whatever its epoch,
// and leaves the marks and the fence counter as they were.
func TestShardReceiveRefusesStrangers(t *testing.T) {
	sh := receiver(receiveFixture(t), centreOwner, 1)
	if !sh.Receive(wave(1, 4, 3, 1, 0)) {
		t.Fatal("a neighbour's wave was refused")
	}
	before := sh.State()
	for _, pair := range [][2]int32{
		{-1, 4}, {9, 4}, {math.MaxInt32, 4}, {math.MinInt32, 4},
		{0, 4}, {8, 4}, {4, 4}, // no link to part 4
		{1, -1}, {1, 9}, {1, 0}, {5, math.MaxInt32}, // not held here
	} {
		for _, epoch := range []uint32{0, 1, 2} {
			pkt := wave(pair[0], pair[1], 7, epoch, 3)
			pkt.Entries = []transport.WaveEntry{{LinkID: 0, Wave: 1}, {LinkID: -1, Wave: 2}}
			if sh.Receive(pkt) {
				t.Errorf("wave %d → %d at epoch %d was applied", pair[0], pair[1], epoch)
			}
		}
	}
	if after := sh.State(); !reflect.DeepEqual(after.Applied, before.Applied) || after.Fenced != before.Fenced {
		t.Fatalf("refused waves changed the marks: applied %v → %v, fenced %d → %d",
			before.Applied, after.Applied, before.Fenced, after.Fenced)
	}
}

// FuzzShardReceive spells a sequence of wave packets and Advance calls out
// of the input and holds a shard that owns parts 0, 1 and 4 of the 3×3 tear
// (two sibling pairs among them) to dedupModel after every step: Receive's
// verdict, State().Applied and Fenced must be the model's. The model
// receives a packet only when its ToPart is held here and its FromPart is one
// of that part's neighbours; anything else — negative ids, ids past the last
// part, parts with no shared link — must be refused without a panic.
//
// Each step takes six bytes: op[0]%8 == 0 advances by op[1]%3 epochs (0 is
// ignored); otherwise op[1] picks FromPart (−1…9, or an extreme id from
// 0xF0 up), op[2]%11 − 1 ToPart, op[3]%8 Seq, op[4]%3 the epoch (one below,
// at, or one above the shard's) and op[4]/3%4 Inc, and op[5] up to two
// entries on links near op[5]/4.
func FuzzShardReceive(f *testing.F) {
	subs := receiveFixture(f)
	owner := []int{0, 0, 1, 1, 0, 1, 1, 1, 1}
	f.Add([]byte{1, 2, 5, 1, 1, 4, 1, 2, 5, 1, 1, 4, 1, 2, 5, 3, 1, 4})        // 1→4: fresh, duplicate, newer
	f.Add([]byte{1, 4, 5, 2, 4, 0, 1, 4, 5, 1, 7, 0, 1, 4, 5, 2, 1, 0})        // 3→4 across incarnations
	f.Add([]byte{1, 0, 5, 1, 1, 9, 0, 1, 0, 0, 0, 0, 1, 2, 5, 1, 4, 9})        // a stranger, then Advance
	f.Add([]byte{1, 0xF0, 5, 1, 1, 0, 1, 0xF1, 1, 1, 1, 0, 1, 6, 10, 1, 1, 0}) // extreme and out-of-range ids
	f.Fuzz(func(t *testing.T, ops []byte) {
		sh := receiver(subs, owner, 1)
		model := newDedupModel(1)
		held := func(part int32) bool { return part >= 0 && int(part) < len(owner) && owner[part] == 0 }
		for step := 0; len(ops) >= 6; step, ops = step+1, ops[6:] {
			op := ops[:6]
			if op[0]%8 == 0 {
				epoch := sh.Epoch() + uint32(op[1]%3)
				sh.Advance(epoch, owner)
				model.advance(epoch)
				continue
			}
			from := int32(op[1]%11) - 1
			if op[1] >= 0xF0 {
				from = []int32{math.MinInt32, math.MaxInt32, -1 << 20, 1 << 20}[op[1]&3]
			}
			pkt := wave(from, int32(op[2]%11)-1, uint64(op[3]%8), sh.Epoch()+uint32(op[4]%3)-1, uint32(op[4]/3%4))
			for i := range int(op[5] % 3) {
				pkt.Entries = append(pkt.Entries, transport.WaveEntry{LinkID: int32(op[5]/4) + int32(i) - 1, Wave: float64(op[3])})
			}
			want := held(pkt.ToPart) && slices.Contains(subs[pkt.ToPart].AdjacentParts(), int(pkt.FromPart)) && model.fresh(pkt)
			if got := sh.Receive(pkt); got != want {
				t.Fatalf("step %d: Receive(%d → %d seq %d epoch %d inc %d) = %v, the model says %v",
					step, pkt.FromPart, pkt.ToPart, pkt.Seq, pkt.Epoch, pkt.Inc, got, want)
			}
			var applied []PairSeq
			for _, part := range sh.Owned() {
				for _, remote := range subs[part].AdjacentParts() {
					if seq := model.applied[[2]int32{int32(remote), part}]; seq > 0 && owner[remote] != 0 {
						applied = append(applied, PairSeq{From: int32(remote), To: part, Seq: seq})
					}
				}
			}
			st := sh.State()
			if !slices.Equal(st.Applied, applied) || st.Fenced != model.fenced {
				t.Fatalf("step %d: applied %v fenced %d, the model's %v and %d", step, st.Applied, st.Fenced, applied, model.fenced)
			}
		}
	})
}

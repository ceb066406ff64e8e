package dist

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

// bigblockCtrl returns the two control messages of a bigblock-grid65 session
// whose bytes grow with the problem, as worker 1 of 2 sends them: its result
// (every owner entry of parts 0 and 1, ≈ 2 100) and a status of those two
// parts (their port potentials and cross-worker pair frontiers). Values are
// full-precision, as a converged solve's are.
func bigblockCtrl(tb testing.TB) []struct {
	name string
	m    *ctrlMsg
} {
	tb.Helper()
	p, err := gatedSpecs[1].spec.Build()
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	res := &resultMsg{}
	st := &statusMsg{Epoch: 1}
	st.Solves, st.Messages = 190, 450
	owner, adjacent := p.OwnerPairs(), p.Partition.AdjacentParts()
	for _, part := range []int{0, 1} {
		for _, pair := range owner[part] {
			res.Index = append(res.Index, int32(pair[1]))
			res.Value = append(res.Value, rng.NormFloat64())
		}
		ports := make([]float64, p.Partition.Subdomains[part].NumPorts)
		for i := range ports {
			ports[i] = rng.NormFloat64()
		}
		st.Parts = append(st.Parts, core.PartState{Part: int32(part), SolvedOnce: true, LastChange: 1e-10 * rng.Float64(), Ports: ports})
		for _, remote := range adjacent[part] {
			if remote >= 2 {
				st.Needed = append(st.Needed, core.PairSeq{From: int32(part), To: int32(remote), Seq: 60})
				st.Applied = append(st.Applied, core.PairSeq{From: int32(remote), To: int32(part), Seq: 58})
			}
		}
	}
	return []struct {
		name string
		m    *ctrlMsg
	}{
		{"result", &ctrlMsg{Type: msgResult, Result: res}},
		{"status", &ctrlMsg{Type: msgStatus, Round: 12, Status: st}},
	}
}

// BenchmarkCtrlCodec times the coordinator's share of the control plane on
// bigblock-grid65: encoding (the worker's side) and decoding (the
// coordinator's) of one result and one status, and reports each frame's size.
func BenchmarkCtrlCodec(b *testing.B) {
	for _, tc := range bigblockCtrl(b) {
		ctrl := encodeCtrl(tc.m)
		b.Run(tc.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(ctrl)), "B/frame")
			for i := 0; i < b.N; i++ {
				ctrlSink = encodeCtrl(tc.m)
			}
		})
		b.Run(tc.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(ctrl)), "B/frame")
			pkt := transport.Packet{Kind: transport.KindControl, Ctrl: ctrl}
			for i := 0; i < b.N; i++ {
				if _, err := decodeCtrl(&pkt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ctrlSink keeps the benchmark's encodes from being optimised away.
var ctrlSink []byte

// TestCtrlCodecAllocations holds BenchmarkCtrlCodec's messages to their
// allocation ceilings, about twice what encoding and decoding one allocates
// (result 3 and 4, status 3 and 7): the buffer, grown once per vector on
// the way, and one allocation per message, sub-message and slice decoded. The race
// detector's instrumentation allocates more, so the ceilings hold only in
// builds without it.
func TestCtrlCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings hold only without the race detector")
	}
	ceilings := map[string][2]float64{"result": {6, 8}, "status": {6, 14}}
	for _, tc := range bigblockCtrl(t) {
		pkt := transport.Packet{Kind: transport.KindControl, Ctrl: encodeCtrl(tc.m)}
		enc := testing.AllocsPerRun(5, func() { ctrlSink = encodeCtrl(tc.m) })
		dec := testing.AllocsPerRun(5, func() { _, _ = decodeCtrl(&pkt) })
		if limit := ceilings[tc.name]; enc > limit[0] || dec > limit[1] {
			t.Errorf("%s: encoding allocates %.0f objects and decoding %.0f, want <= %.0f and %.0f", tc.name, enc, dec, limit[0], limit[1])
		}
	}
}

// FuzzCtrlCodec holds the control codec to its contract:
//   - a random message (from seed: every type and sub-message, NaN payloads,
//     ±Inf, −0 and subnormals among its floats) round-trips bit for bit, and
//     every proper prefix of its encoding, and the encoding with a byte
//     appended, is refused;
//   - arbitrary bytes (data) never panic, and bytes that decode encode back
//     to themselves: one message has one encoding;
//   - a decode, refused or not, allocates at most five bytes per byte of
//     input past the message's fixed-size structs (a part snapshot's 8 wire
//     bytes are 32 in memory, plus the allocator's size classes): every
//     count is checked against the bytes left before anything is allocated
//     for it.
func FuzzCtrlCodec(f *testing.F) {
	empty := encodeCtrl(&ctrlMsg{Type: msgResult, Result: &resultMsg{}})
	huge := append(slices.Clip(empty[:len(empty)-8]), 0xff, 0xff, 0xff, 0xff) // an index count of 2³²−1, and no elements
	wide := append(slices.Clip(empty[:len(empty)-4]), 0, 0x10, 0, 0)          // 4 096 values in 4 096 bytes, not 32 768
	wide = append(wide, make([]byte, 4096)...)
	for seed, data := range [][]byte{
		encodeCtrl(&ctrlMsg{Type: msgStatusRq, Round: 3}),
		encodeCtrl(&ctrlMsg{Type: msgStatus, Round: 3, Status: &statusMsg{Epoch: 1, ShardState: core.ShardState{
			Parts:  []core.PartState{{Part: 1, SolvedOnce: true, LastChange: 1e-10, Ports: []float64{1, 2}}},
			Needed: []core.PairSeq{{From: 1, To: 2, Seq: 60}}}}}),
		encodeCtrl(&ctrlMsg{Type: msgHeartbeat, HB: &heartbeatMsg{Inc: 1, Epoch: 2, Snaps: []partSnap{{Part: 0, Incoming: []float64{math.NaN()}}}}}),
		huge,
		wide,
		{},
		{0xff, 0x00, 0x9e, 0x37, 0x79, 0xb9},
	} {
		f.Add(int64(seed), data)
	}
	var fixed int
	for _, v := range []any{ctrlMsg{}, assignMsg{}, readyMsg{}, statusMsg{}, resultMsg{}, heartbeatMsg{}, reassignMsg{}} {
		fixed += int(reflect.TypeOf(v).Size())
	}
	decode := func(b []byte) (*ctrlMsg, error) {
		return decodeCtrl(&transport.Packet{Kind: transport.KindControl, Ctrl: b})
	}
	// allocated is the fewest bytes three decodes of b allocate: another
	// goroutine's allocations can only add to a reading.
	allocated := func(b []byte) uint64 {
		least := uint64(math.MaxUint64)
		var ms runtime.MemStats
		for range 3 {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			_, _ = decode(b)
			runtime.ReadMemStats(&ms)
			least = min(least, ms.TotalAlloc-before)
		}
		return least
	}
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		m := randomCtrl(rand.New(rand.NewSource(seed)))
		b := encodeCtrl(m)
		got, err := decode(b)
		if err != nil {
			t.Fatalf("%+v does not decode: %v", m, err)
		}
		if !sameValue(reflect.ValueOf(got), reflect.ValueOf(m)) {
			t.Fatalf("%+v decodes to %+v", m, got)
		}
		for k := range b {
			if _, err := decode(b[:k]); err == nil {
				t.Fatalf("the first %d of %d bytes decode", k, len(b))
			}
		}
		if _, err := decode(append(b, 0)); err == nil {
			t.Fatal("a frame with a trailing byte decodes")
		}

		if n, limit := allocated(data), uint64(5*len(data)+fixed+1024); n > limit {
			t.Fatalf("decoding %d bytes allocates %d, over the %d they allow", len(data), n, limit)
		}
		if got, err = decode(data); err == nil {
			if again := encodeCtrl(got); !bytes.Equal(again, data) {
				t.Fatalf("%x decodes to %+v, which encodes to %x", data, got, again)
			}
		}
	})
}

// randomCtrl is a message of a random type carrying each sub-message with
// probability ½; its slices are nil or 1–3 elements long, as a decode
// returns them.
func randomCtrl(rng *rand.Rand) *ctrlMsg {
	n := func() int { return rng.Intn(4) }
	num := func() int { return int(rng.Uint64()) }
	str := func() string {
		b := make([]byte, n())
		rng.Read(b)
		return string(b)
	}
	float := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return math.Float64frombits(0x7ff0000000000000 | 1 + rng.Uint64()>>13) // a NaN, payload random
		case 1:
			return math.Inf(1 - 2*rng.Intn(2))
		case 2:
			return math.Copysign(0, -1)
		case 3:
			return math.Float64frombits(rng.Uint64() >> 12) // subnormal
		}
		return math.Float64frombits(rng.Uint64())
	}
	floats := func() []float64 {
		var v []float64
		for range n() {
			v = append(v, float())
		}
		return v
	}
	int32s := func() []int32 {
		var v []int32
		for range n() {
			v = append(v, int32(rng.Uint32()))
		}
		return v
	}
	assign := func() assignMsg {
		a := assignMsg{Spec: SpecV2{V: num(), Source: str(), NParts: num(), PartsX: num(), PartsY: num(), Topology: str(), Delay: float()},
			Backend: str(), Ordering: str(), SendThreshold: float(), WatchdogMS: num(), HeartbeatMS: num(), Epoch: rng.Uint32()}
		for range n() {
			a.Owner = append(a.Owner, num())
		}
		return a
	}
	snaps := func() []partSnap {
		var v []partSnap
		for range n() {
			v = append(v, partSnap{Part: int32(rng.Uint32()), Incoming: floats()})
		}
		return v
	}
	pairs := func() []core.PairSeq {
		var v []core.PairSeq
		for range n() {
			v = append(v, core.PairSeq{From: int32(rng.Uint32()), To: int32(rng.Uint32()), Seq: rng.Uint64()})
		}
		return v
	}
	some := func() bool { return rng.Intn(2) == 0 }
	m := &ctrlMsg{Type: msgTypes[rng.Intn(len(msgTypes))], Round: num(), Quiet: some(), Err: str()}
	if some() {
		a := assign()
		m.Assign = &a
	}
	if some() {
		m.Ready = &readyMsg{Dim: num(), Links: int32s()}
	}
	if some() {
		st := &statusMsg{Epoch: rng.Uint32()}
		st.Solves, st.Messages, st.Dirty, st.Fenced = num(), num(), num(), rng.Uint64()
		for range n() {
			st.Parts = append(st.Parts, core.PartState{Part: int32(rng.Uint32()), SolvedOnce: some(), LastChange: float(), Ports: floats()})
		}
		st.Needed, st.Applied = pairs(), pairs()
		m.Status = st
	}
	if some() {
		m.Result = &resultMsg{Index: int32s(), Value: floats()}
	}
	if some() {
		m.HB = &heartbeatMsg{Inc: rng.Uint32(), Epoch: rng.Uint32(), Snaps: snaps()}
	}
	if some() {
		m.Reassign = &reassignMsg{Epoch: rng.Uint32(), Assign: assign(), Snaps: snaps()}
	}
	return m
}

// sameValue reports whether a and b hold the same values, floats compared bit
// for bit, so NaN equals itself and −0 differs from 0.
func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}
